"""Torque-free rigid body motion on the motor group.

State is a pair (pose, momentum): the pose motor carries the body frame
to space, the momentum bivector lives in the body frame.  The equations

    pose'     = (1/2) pose velocity
    momentum' = commutator(momentum, velocity)

with velocity read from momentum through the inverse inertia map keep
the space-frame momentum  pose momentum ~pose  and the kinetic energy
constant; both invariants are what the long-run integration tests pin.

The inertia map acts slot by slot on bivector coefficients: rotational
moments on the euclidean slots (about the body x, y, z axes), the total
mass on the ideal slots.  Which slot carries which unit motion, and with
which sign, is read off the joined axis lines in ``_generator_basis``
alone; no orientation signs are hard-coded here.

The integrator is one RK4 stepper on the [pose, momentum] coefficient
array, built once per run; it builds each step's four stages in one
reused [stage, velocity] buffer, and ``rk4_step`` is one step of it.  A
``BodyState`` packs its array once, refusing an odd-grade part.  The
products run on the algebra's one kernel with its ``gp`` pairs
restricted to the slots they can touch: even × bivector for the rates,
fused into one ``Pairs`` list over four stacked outputs and so one call,
and even × even for the space momentum.
Only ±0.0 terms are dropped, so states, CSV rows and the step at which a
run diverges are bitwise those of whole-multivector products, down to
the residue the pose and momentum keep in their scalar and pseudoscalar.

``integrate`` and ``write_trajectory`` share one stepping loop.  It steps
BLOCK_ROWS arrays into one rows array, checks each block for finiteness
once and hands on the finite prefix.  States are built per block, and
per step only for ``integrate``'s observer.  ``write_trajectory``
computes the energies and space momenta on stacked operands (each row
bitwise its own product), formats the rows with one ``%`` and writes
them with one call.  ``csv_row``, ``energy`` and ``spatial_momentum``
are the one-row cases of the same code, so the bytes written are
``csv_row``'s for each state the observer sees, and a run that diverges
writes the same rows and raises the same error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, TextIO

import numpy as np

from .algebra import Algebra, GeometryError, Multivector, Pairs, pga
from .euclid import euclidean_norm_of, significant_grades
from .motors import axis_line

BLOCK_ROWS = 256  # states per finite check, format and write of a trajectory
CSV_HEADER = (
    "t,g0,g1,g2,g3,g4,g5,g6,g7,"
    "m0,m1,m2,m3,m4,m5,energy,ms0,ms1,ms2,ms3,ms4,ms5"
)


def _generator_basis(alg: Algebra) -> np.ndarray:
    """Rows: bivector coefficients of the six unit motions, in the order
    (turn about x, y, z, slide along x, y, z).  They form a signed
    permutation, so the matrix is its own inverse transpose."""
    sl = alg.grade_slice[2]
    rows = np.zeros((6, 6))
    for i in range(3):
        axis = [0.0, 0.0, 0.0]
        axis[i] = 1.0
        rows[i] = axis_line(alg, [0.0, 0.0, 0.0], axis).coeffs[sl]
        # a unit slide: exp of half the generator translates by one unit
        rows[3 + i] = -alg.blade(f"e0{i + 1}").coeffs[sl]
    return rows


def bivector_from_vectors(alg: Algebra, angular, linear) -> Multivector:
    """Bivector with the given angular part (right-handed, about the
    coordinate axes) and linear part.  Works for velocities and momenta
    alike; the two live in the same six slots."""
    alg.require("pga", 3)
    rows = alg.cached(_generator_basis)
    packed = np.concatenate([np.asarray(angular, float),
                             np.asarray(linear, float)])
    if packed.shape != (6,):
        raise GeometryError("expected three angular and three linear components")
    out = np.zeros(alg.size)
    out[alg.grade_slice[2]] = packed @ rows
    return Multivector(alg, out)


def vectors_from_bivector(b: Multivector) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of bivector_from_vectors."""
    alg = b.algebra
    alg.require("pga", 3)
    if not (b.is_zero() or significant_grades(b) == (2,)):
        raise GeometryError("expected a bivector")
    packed = alg.cached(_generator_basis) @ b.coeffs[alg.grade_slice[2]]
    return packed[:3].copy(), packed[3:].copy()


@dataclass(frozen=True)
class InertiaOperator:
    """Diagonal body inertia: three rotational moments and the mass."""

    moments: tuple
    mass: float
    # per bivector slot: the weight of the one unit motion it carries
    _diag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "moments",
                           tuple(float(m) for m in self.moments))
        object.__setattr__(self, "mass", float(self.mass))
        if len(self.moments) != 3:
            raise GeometryError("expected three rotational moments")
        if not all(0.0 < w < np.inf for w in self.moments + (self.mass,)):
            raise GeometryError("singular inertia: moments and mass must be"
                                " positive and finite")
        motion_of_slot = np.abs(pga(3).cached(_generator_basis)).argmax(axis=0)
        weights = np.array(self.moments + (self.mass,) * 3)
        object.__setattr__(self, "_diag", weights[motion_of_slot])

    def apply(self, velocity: Multivector) -> Multivector:
        """Momentum bivector of a velocity bivector."""
        alg = velocity.algebra
        alg.require("pga", 3)
        out = np.zeros(alg.size)
        sl = alg.grade_slice[2]
        out[sl] = self._diag * velocity.coeffs[sl]
        return Multivector(alg, out)

    def inverse_apply(self, momentum: Multivector) -> Multivector:
        alg = momentum.algebra
        alg.require("pga", 3)
        out = np.zeros(alg.size)
        sl = alg.grade_slice[2]
        out[sl] = momentum.coeffs[sl] / self._diag
        return Multivector(alg, out)


@dataclass(frozen=True)
class BodyState:
    pose: Multivector
    momentum: Multivector

    @cached_property
    def _coeffs(self) -> np.ndarray:
        """[pose, momentum] coefficients in one array, built and checked on
        first use: the restricted products drop odd slots, so an odd-grade
        part (NaN counts) is refused, not silently changed.  ``_state``
        hands the states the stepper makes their array directly."""
        for mv in (self.pose, self.momentum):
            mv.algebra.require("pga", 3)
        y = np.concatenate((self.pose.coeffs, self.momentum.coeffs))
        if y.reshape(2, -1)[:, self.pose.algebra.grades % 2 == 1].any():
            raise GeometryError("pose and momentum must have no odd-grade part")
        return y


def _tables(alg: Algebra):
    """The fused rate pairs over x = [pose, momentum, the velocity's
    bivector slots], where the momentum's bivector slots sit in [pose,
    momentum], and the even × even → even pairs."""
    n, sl, even = alg.size, alg.grade_slice[2], alg.cached(_even_positions)
    biv, v = np.arange(sl.start, sl.stop), 2 * n - sl.start  # v's p is x[v + p]
    gp = alg.pairs["gp"]
    gv, vm = gp.restrict(even, biv), gp.restrict(biv, even)
    # bins g v, m v, a gap, v m: out[:2n] - out[2n:] is [g v, m v - v m]
    rates = Pairs(*(np.concatenate(c) for c in zip(
        (gv.i, gv.j + v, gv.k, gv.sign),
        (gv.i + n, gv.j + v, gv.k + n, gv.sign),
        (vm.i + v, vm.j + n, vm.k + 3 * n, vm.sign))), 4 * n)
    return rates, slice(n + sl.start, n + sl.stop), gp.restrict(even, even)


def energy(state: BodyState, inertia: InertiaOperator) -> float:
    alg = state.momentum.algebra
    alg.require("pga", 3)
    m = state.momentum.coeffs[None, alg.grade_slice[2]]
    return float(_energies(m, inertia)[0])


def spatial_momentum(state: BodyState) -> Multivector:
    """Momentum seen from the space frame; constant along exact motion."""
    alg = state.pose.algebra
    return Multivector(alg, _spatial_momenta(alg, state._coeffs[None])[0])


def _energies(m: np.ndarray, inertia: InertiaOperator) -> np.ndarray:
    """Kinetic energy of each row of momentum bivector coefficients.  The
    stacked matmul runs the 1-D dot on every row, so a row's energy is
    bitwise ``0.5 * ((m / diag) @ m)``; a row sum would add in another
    order."""
    v = m / inertia._diag
    return 0.5 * np.matmul(v[:, None, :], m[:, :, None])[:, 0, 0]


def _spatial_momenta(alg: Algebra, ys: np.ndarray) -> np.ndarray:
    """g m ~g of every [pose, momentum] row, in two stacked kernel calls."""
    pairs, g = alg.cached(_tables)[2], ys[:, :alg.size]
    return alg.product(pairs, alg.product(pairs, g, ys[:, alg.size:]),
                       g * alg.reverse_sign)


def _stepper(alg: Algebra, inertia: InertiaOperator, renormalize: bool):
    """RK4 on [pose, momentum] arrays: ``step(y, h)`` returns a fresh next
    array, built through one [stage, velocity] buffer kept across calls."""
    (rates, vel, _), n = alg.cached(_tables), alg.size
    x = np.empty(2 * n + len(inertia._diag))  # [stage, its velocity]
    stage, v = x[:2 * n], x[2 * n:]

    def f():
        # [pose', momentum'] = [g v, m v - v m] / 2 at the stage in x
        np.divide(stage[vel], inertia._diag, out=v)
        out = alg.product(rates, x, x)
        k = out[:2 * n]
        k -= out[2 * n:]
        k *= 0.5
        return k

    def step(y: np.ndarray, h: float) -> np.ndarray:
        stage[:] = y
        k1 = f()
        np.add(y, np.multiply(k1, h / 2, out=stage), out=stage)
        k2 = f()
        np.add(y, np.multiply(k2, h / 2, out=stage), out=stage)
        k3 = f()
        np.add(y, np.multiply(k3, h, out=stage), out=stage)
        k4 = f()
        # y + (k1 + k2 * 2 + k3 * 2 + k4) * (h / 6), summed in that order
        k2 *= 2
        k3 *= 2
        k1 += k2
        k1 += k3
        k1 += k4
        k1 *= h / 6
        y1 = y + k1
        if renormalize:
            # no null-versor check: a zero norm gives non-finite
            # coefficients, which integrate reports as divergence
            y1[:n] /= euclidean_norm_of(alg, y1[:n])
        return y1

    return step


def _state(alg: Algebra, y: np.ndarray) -> BodyState:
    """The state of a [pose, momentum] array the stepper made, which is
    even by construction: it is handed its array, not checked."""
    n = alg.size
    out = BodyState(Multivector(alg, y[:n]), Multivector(alg, y[n:]))
    object.__setattr__(out, "_coeffs", y)
    return out


def rk4_step(state: BodyState, inertia: InertiaOperator, h: float,
             renormalize: bool = True) -> BodyState:
    """One step of the stepper that ``integrate`` runs."""
    alg, y = state.pose.algebra, state._coeffs
    return _state(alg, _stepper(alg, inertia, renormalize)(y, h))


def _check_run(state: BodyState, h: float, steps: int) -> None:
    state.pose.algebra.require("pga", 3)
    if not 0.0 < h < np.inf or steps < 0:
        raise GeometryError("need a positive finite step size and steps >= 0")


def _blocks(state: BodyState, inertia: InertiaOperator, h: float,
            steps: int, renormalize: bool):
    """The one stepping loop: yields (first step, [pose, momentum] rows)
    for the finite prefix of each block of BLOCK_ROWS stepped arrays, and
    raises at the first row that is not finite.  The rows array is
    reused: read it before the next block."""
    alg = state.pose.algebra
    step = _stepper(alg, inertia, renormalize)
    ys = np.empty((BLOCK_ROWS, 2 * alg.size))
    y = state._coeffs if steps else None  # a run of no steps checks nothing
    for first in range(1, steps + 1, BLOCK_ROWS):
        count = min(BLOCK_ROWS, steps + 1 - first)
        for j in range(count):
            ys[j] = y = step(y, h)
        finite = np.isfinite(ys[:count]).all(axis=1)
        stop = count if finite.all() else int(finite.argmin())
        if stop:
            yield first, ys[:stop]
        if stop < count:
            raise GeometryError(f"integration diverged at step {first + stop}")


def integrate(state: BodyState, inertia: InertiaOperator, h: float,
              steps: int, renormalize: bool = True,
              observer: Callable[[int, float, BodyState], None] | None = None,
              ) -> BodyState:
    """Fixed-step fourth-order run.  The observer sees the initial state,
    then each stepped state once its block has passed the finite check."""
    _check_run(state, h, steps)
    alg = state.pose.algebra
    # overflow, and renormalising a pose of zero norm, on the way to the
    # finite check are reported as divergence, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if observer is not None:
            observer(0, 0.0, state)
        for first, ys in _blocks(state, inertia, h, steps, renormalize):
            if observer is not None:
                # a copy: the next block overwrites the rows
                for i, y in enumerate(ys.copy(), first):
                    observer(i, i * h, _state(alg, y))
            state = _state(alg, ys[-1].copy())
    return state


def _even_positions(alg: Algebra) -> np.ndarray:
    return np.flatnonzero(alg.grades % 2 == 0)


_ROW = ",".join(["%.17g"] * 22) + "\n"


def _csv_rows(alg: Algebra, t: np.ndarray, ys: np.ndarray,
              inertia: InertiaOperator) -> str:
    """The CSV lines, newline-terminated, of the [pose, momentum] rows ys
    at times t, in one ``%`` format."""
    n, sl = alg.size, alg.grade_slice[2]
    m = ys[:, n + sl.start:n + sl.stop]
    fields = np.column_stack((
        t, ys[:, alg.cached(_even_positions)], m, _energies(m, inertia),
        _spatial_momenta(alg, ys)[:, sl]))
    return (_ROW * len(ys)) % tuple(fields.ravel().tolist())


def csv_row(t: float, state: BodyState, inertia: InertiaOperator) -> str:
    alg = state.pose.algebra
    return _csv_rows(alg, np.array([t], float), state._coeffs[None],
                     inertia)[:-1]


def write_trajectory(out: TextIO, state: BodyState, inertia: InertiaOperator,
                     h: float, steps: int, renormalize: bool = True) -> BodyState:
    """The CSV header, then ``csv_row`` of every state ``integrate`` would
    show its observer: the initial one through ``csv_row`` itself, each
    block of stepped states formatted with one ``_csv_rows``.  A run that
    diverges writes the rows before the state or row it fails on and
    raises as ``integrate`` would, with ``: the row is not finite`` when
    a finite state has a non-finite row."""
    out.write(CSV_HEADER + "\n")
    _check_run(state, h, steps)
    alg = state.pose.algebra
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the initial state is checked only through its row, as in integrate
        _write_rows(out, 0, csv_row(0.0, state, inertia) + "\n")
        for first, ys in _blocks(state, inertia, h, steps, renormalize):
            state = _state(alg, ys[-1].copy())
            _write_rows(out, first, _csv_rows(
                alg, np.arange(first, first + len(ys)) * h, ys, inertia))
    return state


def _write_rows(out: TextIO, first: int, text: str) -> None:
    """Write the CSV lines of steps first, first + 1, ... up to the first
    one with a non-finite value, and raise there."""
    # %.17g spells a non-finite value inf or nan, a finite one never
    if "inf" in text or "nan" in text:
        lines = text.splitlines(keepends=True)
        j = next(j for j, line in enumerate(lines)
                 if "inf" in line or "nan" in line)
        out.write("".join(lines[:j]))
        raise GeometryError(f"integration diverged at step {first + j}:"
                            " the row is not finite")
    out.write(text)
