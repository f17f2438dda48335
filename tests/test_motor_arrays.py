"""The array paths of ``motors``, ``duality.polarity`` and
``euclid.direction`` against the ``Multivector`` compositions they
replaced (``tests/multivector_motors.py``).

Finite input gives the composition's bytes: the terms the array paths
drop are (x_i * s) * 0.0, which never change a sum that starts at +0.0,
even beside an overflow.  Non-finite input gives the composition's
exception, type and text, or a result with the same bits wherever the
composition's is finite and non-finite on no other slot: NaN on fewer
slots, but still non-finite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multivector_motors as ref
from conftest import random_motor
from pgakit import algebra as ga
from pgakit import duality, euclid, motors
from pgakit.algebra import GAError, Multivector

PGA = [ga.pga(2), ga.pga(3)]
EDGES = [0.0, 5e-324, 1e-200, 1e200]
FINITE = st.sampled_from(EDGES + [-x for x in EDGES]) | st.floats(-4.0, 4.0)
ANY = FINITE | st.sampled_from([math.inf, -math.inf, math.nan])


def _coeffs(alg, values, grade=None):
    """A coefficient array of alg drawn from values, zero off ``grade``."""
    draw = st.lists(values, min_size=alg.size, max_size=alg.size).map(np.array)
    if grade is None:
        return draw
    return draw.map(lambda c: np.where(alg.grades == grade, c, 0.0))


def _flat(value) -> np.ndarray:
    if isinstance(value, Multivector):
        return value.coeffs
    if isinstance(value, tuple):
        return np.concatenate([_flat(v) for v in value])
    return np.asarray(value, dtype=float).ravel()


def _outcome(f, *args):
    with np.errstate(all="ignore"):  # overflow, inf * 0, inf - inf
        try:
            return f(*args)
        except GAError as e:
            return e


def assert_same(new, old, *args, stays_non_finite=True):
    """new(*args) against the composition old(*args), as the module
    docstring says; ``stays_non_finite=False`` only for polarity, whose
    pseudoscalar zeroes an e0 slot of a plane-based operand."""
    got, want = _outcome(new, *args), _outcome(old, *args)
    if isinstance(want, GAError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, GAError), got
    assert type(got) is type(want)
    g, w = _flat(got), _flat(want)
    if all(np.isfinite(_flat(a)).all() for a in args
           if not isinstance(a, ga.Algebra)):
        assert g.tobytes() == w.tobytes()
        return
    kept = np.isfinite(w)
    assert g[kept].tobytes() == w[kept].tobytes()
    assert not (~np.isfinite(g) & kept).any()
    if stays_non_finite and not kept.all():
        assert not np.isfinite(g).all()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA + [ga.cga(3)]))
def test_polarity(data, alg):
    x = Multivector(alg, data.draw(_coeffs(alg, ANY)))
    assert_same(duality.polarity, ref.polarity, x, stays_non_finite=False)
    # a non-finite slot that the pseudoscalar does not zero shows
    i = alg.cached(duality._polarity_pairs)[0].i
    if not np.isfinite(x.coeffs[i]).all():
        with np.errstate(all="ignore"):
            assert not np.isfinite(duality.polarity(x).coeffs).all()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA))
def test_direction(data, alg):
    # finite: the same bits; non-finite: refused as the composition's
    # ideal point is, with the same text
    flat = Multivector(alg, data.draw(_coeffs(alg, ANY)))
    assert_same(euclid.direction, ref.direction, flat)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA), values=st.sampled_from([FINITE, ANY]))
def test_screw_generator(data, alg, values):
    line = Multivector(alg, data.draw(_coeffs(alg, values, alg.gens - 2)))
    angle, slide = data.draw(values), data.draw(values | st.just(0.0))
    assert_same(motors.screw_generator, ref.screw_generator, line, angle, slide)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA), values=st.sampled_from([FINITE, ANY]),
       grade=st.sampled_from([2, 2, 2, None]))
def test_exp_bivector_and_screw_split(data, alg, values, grade):
    b = Multivector(alg, data.draw(_coeffs(alg, values, grade)))
    assert_same(motors.exp_bivector, ref.exp_bivector, b)
    assert_same(motors.screw_split, ref.screw_split, b)


@pytest.mark.parametrize("alg", PGA, ids=["pga2", "pga3"])
@pytest.mark.parametrize("slot", ["zero", "1", "e1", "e12", "e0"])
def test_split_refuses_as_the_composition(alg, slot):
    """b = 0 splits; a NaN alone shows no grade, yet b is not zero, so it
    is refused unless it sits on a bivector slot."""
    b = alg.zero()
    if slot != "zero":
        b.coeffs[alg.pos_of_name(slot)] = math.nan
    assert_same(motors.exp_bivector, ref.exp_bivector, b)
    assert_same(motors.screw_split, ref.screw_split, b)


@pytest.mark.parametrize("alg", PGA + [ga.cga(3)], ids=["pga2", "pga3", "cga3"])
def test_polarity_pairs_are_the_gp_pairs_onto_the_pseudoscalar(alg):
    pairs, unit = alg.cached(duality._polarity_pairs)
    gp = alg.pairs["gp"]
    on_top = gp.j == alg.size - 1
    assert np.array_equal(pairs.i, gp.i[on_top]) and pairs.bins == alg.size
    assert (pairs.j == alg.size - 1).all()
    assert len(set(pairs.k.tolist())) == len(pairs.k)
    assert unit.tobytes() == alg.pseudoscalar().coeffs.tobytes()
    assert not unit.flags.writeable


def _versor(data, alg):
    """A unit versor: a motor from a drawn bivector, or a unit plane."""
    b = Multivector(alg, data.draw(_coeffs(alg, st.floats(-4.0, 4.0), 2)))
    if data.draw(st.booleans()):
        return ref.exp_bivector(b)
    plane = data.draw(_coeffs(alg, st.floats(-4.0, 4.0), 1))
    size = euclid.euclidean_norm_of(alg, plane)  # of e1..en, not e0
    if not np.abs(plane).max() < size * 2.0 ** 1023:  # no finite unit plane
        plane[2] = size = 1.0  # e1
    return Multivector(alg, plane / size)


def _perturbed(data, g):
    """g, or g with one slot drawn from ±{0, 5e-324, 1e±200}, a float or a
    non-finite value."""
    if data.draw(st.booleans()):
        return g
    c = g.coeffs.copy()
    c[data.draw(st.integers(0, len(c) - 1))] = data.draw(ANY)
    return Multivector(g.algebra, c)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA))
def test_log_versor(data, alg):
    g = _perturbed(data, _versor(data, alg))
    assert_same(motors.log_versor, ref.log_versor, g)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA))
def test_sandwich(data, alg):
    g = _perturbed(data, _versor(data, alg))
    x = Multivector(alg, data.draw(_coeffs(alg, ANY)))
    assert_same(motors.sandwich, ref.sandwich, g, x)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), alg=st.sampled_from(PGA))
def test_axis_line(data, alg):
    n = alg.gens - 1
    center, axis = (np.array(data.draw(st.lists(ANY, min_size=n, max_size=n)))
                    for _ in range(2))
    assert_same(motors.axis_line, ref.axis_line, alg, center, axis)


@pytest.mark.parametrize("alg", PGA, ids=["pga2", "pga3"])
def test_seeded_screws_are_the_composed_bytes(alg):
    rng = np.random.default_rng(20261019)
    for _ in range(300):
        g = random_motor(alg, rng)
        x = alg.from_coeffs(rng.normal(size=alg.size) * 10.0 ** rng.uniform(-3, 3))
        line = ref.axis_line(alg, rng.uniform(-5, 5, alg.gens - 1),
                             rng.normal(size=alg.gens - 1))
        angle, slide = rng.uniform(-4, 4, 2)
        assert_same(motors.axis_line, ref.axis_line, alg,
                    rng.uniform(-5, 5, alg.gens - 1), rng.normal(size=alg.gens - 1))
        assert_same(motors.screw_generator, ref.screw_generator, line, angle, slide)
        gen = ref.screw_generator(line, angle, slide)
        assert_same(motors.exp_bivector, ref.exp_bivector, gen)
        assert_same(motors.screw_split, ref.screw_split, gen)
        assert_same(motors.log_versor, ref.log_versor, g)
        assert_same(motors.sandwich, ref.sandwich, g, x)
        assert_same(duality.polarity, ref.polarity, x)
        assert euclid.direction(line).tobytes() == ref.direction(line).tobytes()


def test_kernel_calls_and_allocations(pga3, monkeypatch):
    """Each array path makes the kernel calls its formula needs and builds
    one ``Multivector``, its result; polarity and direction read their
    right factor from the per-algebra cache, built on first use."""
    calls = dict.fromkeys(["product", "Multivector", "pseudoscalar", "blade"], 0)

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    g = motors.motor_from_screw(pga3, [1.0, -0.5, 0.25], [0, 1, 1], 0.9, 0.4)
    line = motors.axis_line(pga3, [1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    gen = motors.screw_generator(line, 0.9, 0.4)
    p = euclid.point(pga3, 1.0, 2.0, 3.0)
    duality.polarity(p), euclid.direction(line)  # fill the caches
    for name, owner in (("product", ga.Algebra), ("pseudoscalar", ga.Algebra),
                        ("blade", ga.Algebra), ("Multivector", Multivector)):
        attr = "__init__" if name == "Multivector" else name
        monkeypatch.setattr(owner, attr, counted(name, getattr(owner, attr)))
    for f, args, products, built in (
            (duality.polarity, (p,), 1, 1),
            (euclid.direction, (line,), 1, 0),
            (motors.screw_generator, (line, 0.9, 0.4), 1, 1),
            (motors.exp_bivector, (gen,), 2, 1),  # b*b and b*I
            (motors.log_versor, (g,), 3, 1),  # <g~g>, |<g>_2|, <g>_2 * I
            (motors.sandwich, (g, p), 3, 1)):  # <g~g>, g p, (g p) ~g
        calls.update(dict.fromkeys(calls, 0))
        f(*args)
        assert calls == {"product": products, "Multivector": built,
                         "pseudoscalar": 0, "blade": 0}, f.__name__
