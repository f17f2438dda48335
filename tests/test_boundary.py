"""The range and finiteness boundary of the functions that read a flat up
to scale, and of the bivector split.

A call gives a finite value that matches an oracle computed here from the
coordinates (a unit normal through ``math.hypot``, point coordinates, the
``Multivector`` compositions of ``multivector_motors``, or the same flat
shifted to unit size with ``math.ldexp``), or it raises a ``GAError``.  It
never warns: pyproject turns a numpy RuntimeWarning into an error.

``ROWS`` are single cases, each of which warned or answered wrongly before
``algebra.require_finite`` and ``algebra.rescaled`` took over the policy,
before every up-to-scale reader shifted on one path, or before
``normalize`` divided only by a weight that leaves x / w finite.  One property
draws pga(2)/pga(3) flats whose slots sit at the edges of the float range;
another checks that those readers answer the same for x and 2^k x.
``euclidean_norm`` stays out of the first: past the float range it is
IEEE's inf, with the overflow warning of its square.  ``ideal_norm`` is
a measure like it: on a non-finite flat it is ``math.hypot``'s inf or NaN.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multivector_motors as ref
from pgakit.algebra import GAError, GeometryError, cga, pga
from pgakit.conformal import flat_rep, up
from pgakit.duality import join
from pgakit.dynamics import bivector_from_vectors, vectors_from_bivector
from pgakit.euclid import (direction, euclidean_norm, flat_kind, ideal_norm,
                           incident, is_ideal, normalize,
                           perpendicular_through_point, plane, point,
                           point_coords, weight)
from pgakit.motors import exp_bivector, screw_split

EDGES = [0.0, 5e-324, 1e-200, 1e-160, 1.0, 1e154, 1e200, 1e300, math.nan,
         math.inf]
SLOT = st.sampled_from(EDGES + [-x for x in EDGES])
P3 = pga(3)


def _slots(alg, **values):
    """A multivector of alg with the named slots set: no arithmetic, so an
    inf slot is built without the inf * 0 of a scaled blade."""
    c = np.zeros(alg.size)
    for name, value in values.items():
        c[alg.pos_of_name(name)] = value
    return alg.from_coeffs(c)


def _split_slots(x):
    """(euclidean, ideal) coefficients of a plane-based x, as floats."""
    pairs = list(zip(x.algebra.mask_of, x.coeffs.tolist()))
    return ([c for m, c in pairs if not m & 1], [c for m, c in pairs if m & 1])


def _unit_scale(x):
    """x shifted by the power of two that puts its largest |slot| in
    [1/2, 1), slot by slot through ``math.ldexp``."""
    e = math.frexp(max(map(abs, x.coeffs.tolist())))[1]
    return x.algebra.from_coeffs([math.ldexp(c, -e) for c in x.coeffs.tolist()])


def _on(blade, coords) -> float:
    """|up(q) ^ blade| over |up(q)| |blade|: zero for q on the conformal
    blade, order 1 off it."""
    q = up(cga(3), coords)
    return q.outer(blade).norm() / (q.norm() * blade.norm())


def _line(alg):
    return join(point(alg, 0.0, 0.0, 1.0), point(alg, 1.0, 0.0, 1.0))


def _unit_normal_plane(r):
    h = math.hypot(1e200, 1e200)
    want = [0.0, 1e200 / h, 1e200 / h, 0.0]  # e0, e1, e2, e3
    got = [r[name] for name in ("e0", "e1", "e2", "e3")]
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


def _unit_normal_far_offset(r):
    # the unit euclidean form is finite, so the plane gets it
    assert np.array_equal(r.coeffs, plane(P3, 1.0, 0.0, 0.0, 1e160).coeffs)


def _far_point_of_weight_1(r):
    assert np.array_equal(r.coeffs, point(P3, 1e160, 0.0, 0.0).coeffs)


def _unchanged(**values):
    """A check that the result has the slots ``values`` of P3, bit for bit."""
    def check(r):
        assert r.coeffs.tobytes() == _slots(P3, **values).coeffs.tobytes()
    return check


def _exactly_1e_160(r):
    assert r == 1e-160


def _small_vectors(r):
    angular, linear = r
    assert angular.tolist() == [1e-13, 0.0, 0.0]
    assert linear.tolist() == [0.0, 0.0, 2e-13]


def _perpendicular_y_0_1(r):
    # the same line, through (0, 1, 1) and (0, 0, 1), as at unit scale
    want = perpendicular_through_point(_line(P3), point(P3, 0.0, 1.0, 1.0))
    assert np.allclose(r.coeffs / r.norm(), want.coeffs / want.norm(),
                       rtol=0.0, atol=1e-15)


def _is_point(r):
    assert r == "point"


def _not_incident(r):
    assert r is False


def _plane_x_is_minus_1e_200(r):
    assert _on(r, [-1e-200, 3.0, -2.0]) < 1e-12
    assert _on(r, [1.0, 0.0, 0.0]) > 1e-3


def _line_y_0_z_1(r):
    assert _on(r, [5.0, 0.0, 1.0]) < 1e-12
    assert _on(r, [0.0, 1.0, 1.0]) > 1e-3


# each row warned or answered wrongly at the parent: a call and either the
# GeometryError text it raises now or a check of its result
ROWS = {
    "normalize a plane whose square overflows": (
        lambda: normalize(plane(P3, 1e200, 1e200, 0.0, 0.0)),
        _unit_normal_plane),
    "normalize a plane with an inf normal slot": (
        lambda: normalize(_slots(P3, e1=math.inf, e2=1.0)), "non-finite"),
    "normalize a plane with an inf offset": (
        lambda: normalize(_slots(P3, e1=1.0, e0=math.inf)), "non-finite"),
    "normalize a plane ideal to float precision": (
        lambda: normalize(plane(P3, 1e-160, 0.0, 0.0, 1.0)),
        _unit_normal_far_offset),
    "normalize a far point scaled by 2^-600": (
        lambda: normalize(point(P3, 1e160, 0.0, 0.0) * 2.0 ** -600),
        _far_point_of_weight_1),
    # mixed grades, read as a point: x / w overflows, so the unit
    # euclidean form it already has is kept
    "normalize a point whose weight is rounding beside a plane part": (
        lambda: normalize(_slots(P3, e1=1.0, e123=1e-300, e023=1e300)),
        _unchanged(e1=1.0, e123=1e-300, e023=1e300)),
    "normalize a point whose weight is small beside a plane part": (
        lambda: normalize(_slots(P3, e1=1.0, e123=1e-10, e023=1e300)),
        _unchanged(e1=1.0, e123=1e-10, e023=1e300)),
    "euclidean norm of a plane tiny beside its offset": (
        lambda: euclidean_norm(plane(P3, 1e-160, 0.0, 0.0, 1.0)),
        _exactly_1e_160),
    "vectors of a bivector below the junk tolerance's old floor": (
        lambda: vectors_from_bivector(bivector_from_vectors(
            P3, [1e-13, 0.0, 0.0], [0.0, 0.0, 2e-13])),
        _small_vectors),
    "flat_kind of a point scaled by 1e-100": (
        lambda: flat_kind(point(P3, 1.0, 2.0, 3.0) * 1e-100), _is_point),
    "incident of two points scaled by 1e-100": (
        lambda: incident(point(P3, 1.0, 2.0, 3.0) * 1e-100,
                         point(P3, 4.0, 5.0, 6.0) * 1e-100),
        _not_incident),
    "perpendicular from a point onto a line, both scaled by 1e-10": (
        lambda: perpendicular_through_point(
            _line(P3) * 1e-10, point(P3, 0.0, 1.0, 1.0) * 1e-10),
        _perpendicular_y_0_1),
    "incident with an inf slot": (
        lambda: incident(_slots(P3, e1=1.0, e0=math.inf), point(P3, 1, 2, 3)),
        "non-finite"),
    "incident of a far plane and a far point off it": (
        lambda: incident(plane(P3, 1e200, 0.0, 0.0, 0.0),
                         point(P3, 1.0, 1.0, 2.0) * 1e200),
        _not_incident),
    "incident of a tiny plane and a tiny point off it": (
        lambda: incident(plane(P3, 0.0, 1.0, 0.0, 0.0) * 1e-200,
                         point(P3, 0.0, 1.0, 2.0) * 1e-200),
        _not_incident),
    "incident of a small plane and a small point off it": (
        lambda: incident(plane(P3, 0.0, 1.0, 0.0, 0.0) * 1e-20,
                         point(P3, 0.0, 1.0, 2.0) * 1e-20),
        _not_incident),
    "flat_rep of a plane whose square overflows": (
        lambda: flat_rep(plane(P3, 1e200, 0.0, 0.0, 1.0)),
        _plane_x_is_minus_1e_200),
    "flat_rep of a line scaled by 1e200": (
        lambda: flat_rep(_line(P3) * 1e200), _line_y_0_z_1),
    "exp of a bivector whose square overflows": (
        lambda: exp_bivector(P3.blade("e12", 1e200)), "square is not finite"),
    "exp of a bivector with an inf euclidean slot": (
        lambda: exp_bivector(_slots(P3, e12=math.inf)), "square is not finite"),
    "exp of a bivector with an inf ideal slot": (
        lambda: exp_bivector(_slots(P3, e12=1.0, e03=math.inf)),
        "square is not finite"),
    "screw split of a bivector with an inf euclidean slot": (
        lambda: screw_split(_slots(P3, e12=math.inf)), "square is not finite"),
    "screw split of a bivector with an inf ideal slot": (
        lambda: screw_split(_slots(P3, e12=1.0, e03=math.inf)),
        "square is not finite"),
}


@pytest.mark.parametrize("case", list(ROWS))
def test_row(case):
    call, expect = ROWS[case]
    if isinstance(expect, str):
        with pytest.raises(GeometryError, match=expect):
            call()
    else:
        expect(call())


@st.composite
def flats(draw, algebras=(pga(2), pga(3))):
    """A single-grade element of pga(2) or pga(3) with slots from EDGES."""
    alg = draw(st.sampled_from(algebras))
    k = draw(st.integers(1, alg.n))
    values = draw(st.lists(SLOT, min_size=alg.size, max_size=alg.size))
    return alg.from_coeffs(np.where(alg.grades == k, values, 0.0))


def _outcome(f, *args):
    try:
        return f(*args)
    except GAError as e:
        return e


def _finite(x) -> bool:
    return all(map(math.isfinite, x.coeffs.tolist()))


def _kind(x):
    n, k = x.algebra.n, x.grades_present()
    if not k:
        return "mixed"
    return {1: "plane" if n == 3 else "line", 2: "line" if n == 3 else "point",
            3: "point"}[k[0]]


def _check_normalize(x, r):
    if not (_finite(x) and x.coeffs.any()):
        assert isinstance(r, GAError)
        return
    got, want = r.coeffs.tolist(), _unit_scale(x).coeffs.tolist()
    assert all(map(math.isfinite, got))
    j = max(range(len(want)), key=lambda i: abs(want[i]))
    scale = got[j] / want[j]  # r = scale * x, to rounding
    assert all(abs(g - scale * w) <= 1e-12 * abs(got[j]) for g, w in zip(got, want))
    euclidean, ideal = (math.hypot(*part) for part in _split_slots(r))
    assert (abs(euclidean - 1.0) <= 1e-12
            or euclidean <= 2.0 ** -500 and abs(ideal - 1.0) <= 1e-12), r
    if abs(euclidean - 1.0) <= 1e-12 and _kind(x) == "point":
        assert weight(r) == 1.0


def _check_point_coords(x, got):
    n, full = x.algebra.n, x.algebra.size - 1
    if isinstance(got, GAError):
        return
    assert _kind(x) == "point" and _finite(x)
    w = weight(x)
    want = [(-1.0 if i % 2 else 1.0) * x.coeffs[x.algebra.pos_of[full ^ 1 << i]] / w
            for i in range(1, n + 1)]
    assert got.tolist() == want


def _same_outcome(got, want):
    if isinstance(want, GAError):
        assert isinstance(got, GAError), got
        return
    got, want = (np.concatenate([p.coeffs for p in v]) if isinstance(v, tuple)
                 else v.coeffs for v in (got, want))
    assert all(map(math.isfinite, got.tolist()))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=400, deadline=None)
@given(x=flats(), y=flats())
def test_flats_at_the_edges(x, y):
    finite = _finite(x)
    _check_normalize(x, _outcome(normalize, x))
    kind = _outcome(flat_kind, x)
    assert kind == _kind(x) if finite else isinstance(kind, (str, GAError))
    euclidean, ideal = _split_slots(x)
    if finite:
        assert is_ideal(x) == (max(map(abs, euclidean))
                               <= 2.0 ** -52 * max(map(abs, ideal)))
    else:
        assert is_ideal(x) in (True, False)
    got, want = ideal_norm(x), math.hypot(*ideal)
    assert got == pytest.approx(want, rel=1e-15) or math.isnan(got) and math.isnan(want)
    d = _outcome(direction, x)
    if finite:
        assert d.tobytes() == ref.direction(x).tobytes()
    else:
        assert isinstance(d, GAError)
    _check_point_coords(x, _outcome(point_coords, x))
    _same_outcome(_outcome(exp_bivector, x), _outcome(ref.exp_bivector, x))
    _same_outcome(_outcome(screw_split, x), _outcome(ref.screw_split, x))
    if x.algebra is not y.algebra:
        return
    hit = _outcome(incident, x, y)
    if finite and _finite(y):
        assert hit == incident(_unit_scale(x), _unit_scale(y))
    else:
        assert isinstance(hit, GAError)


@settings(max_examples=200, deadline=None)
@given(x=flats(algebras=(pga(3),)))
def test_flat_rep_at_the_edges(x):
    got = _outcome(flat_rep, x)
    if isinstance(got, GAError):
        return
    assert _finite(x) and all(map(math.isfinite, got.coeffs.tolist()))
    want = flat_rep(_unit_scale(x))  # the same flat at unit size
    assert np.allclose(got.coeffs / np.abs(got.coeffs).max(),
                       want.coeffs / np.abs(want.coeffs).max(), rtol=0.0,
                       atol=1e-12)


def _shifted(x, k):
    """x 2^k slot by slot, or None where a slot leaves the float range or
    loses a bit, so that the shift is not exact."""
    values = x.coeffs.tolist()
    try:
        shifted = [math.ldexp(v, k) for v in values]
    except OverflowError:
        return None
    if [math.ldexp(v, -k) for v in shifted] != values:
        return None
    return x.algebra.from_coeffs(shifted)


@st.composite
def scaled_flats(draw, alg):
    """A single-grade flat of alg at 10^s, s in -300..300, and the same flat
    shifted by an exact 2^k."""
    k = draw(st.integers(1, alg.n))
    scale = 10.0 ** draw(st.integers(-300, 300))
    mantissas = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    values = draw(st.lists(mantissas, min_size=alg.size, max_size=alg.size))
    x = alg.from_coeffs(np.where(alg.grades == k, values, 0.0) * scale)
    shifted = _shifted(x, draw(st.integers(-600, 600)))
    assume(shifted is not None)
    return x, shifted


def _same_flat_rep(got, want):
    if isinstance(want, GAError):
        assert isinstance(got, GAError), got
        return
    assert np.allclose(got.coeffs / np.abs(got.coeffs).max(),
                       want.coeffs / np.abs(want.coeffs).max(), rtol=0.0,
                       atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alg=st.sampled_from((pga(2), pga(3))))
def test_readers_are_invariant_under_exact_shifts(data, alg):
    """normalize (bitwise), flat_kind, incident and flat_rep (to 1e-12) read
    x and 2^k x alike: a flat is the same flat at every scale."""
    x, xk = data.draw(scaled_flats(alg))
    y, yk = data.draw(scaled_flats(alg))
    _same_outcome(_outcome(normalize, xk), _outcome(normalize, x))
    assert _outcome(flat_kind, xk) == _outcome(flat_kind, x)
    assert _outcome(incident, xk, yk) == _outcome(incident, x, y)
    if alg is P3:
        _same_flat_rep(_outcome(flat_rep, xk), _outcome(flat_rep, x))
