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

The integrator works on one array of [pose, momentum] coefficients,
which a ``BodyState`` packs once (refusing an odd-grade part) and each
step's state carries.  The products are ``gp`` restricted by
``gp_pairs`` to the slots they can touch: even × bivector for the rates,
fused into one ``bincount``, and even × even for the space momentum.
Only ±0.0 terms are dropped, so states, CSV rows and the step at which a
run diverges are bitwise those of whole-multivector products, down to
the residue the pose and momentum keep in their scalar and pseudoscalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, TextIO

import numpy as np

from .algebra import Algebra, GeometryError, Multivector, cga, gp_pairs, pga
from .euclid import euclidean_norm, significant_grades
from .motors import axis_line

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
        if min(self.moments) <= 0.0 or self.mass <= 0.0:
            raise GeometryError(
                "singular inertia: moments and mass must be positive")
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
        part (NaN counts) is refused, not silently changed.  rk4_step
        hands the states it makes their array directly."""
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
    gv, vm = gp_pairs(alg, even, biv, even), gp_pairs(alg, biv, even, even)
    # bins g v, m v, a gap, v m: out[:2n] - out[2n:] is [g v, m v - v m]
    rates = [np.concatenate(c) for c in zip(
        (gv[0], gv[1] + v, gv[2], gv[3]),
        (gv[0] + n, gv[1] + v, gv[2] + n, gv[3]),
        (vm[0] + v, vm[1] + n, vm[2] + 3 * n, vm[3]))]
    return (rates, slice(n + sl.start, n + sl.stop),
            gp_pairs(alg, even, even, even))


def _gp(pairs, a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    i, j, k, s = pairs
    return np.bincount(k, (a[i] * s) * b[j], minlength=size)


def energy(state: BodyState, inertia: InertiaOperator) -> float:
    sl = state.momentum.algebra.grade_slice[2]
    v = inertia.inverse_apply(state.momentum)
    return 0.5 * float(v.coeffs[sl] @ state.momentum.coeffs[sl])


def spatial_momentum(state: BodyState) -> Multivector:
    """Momentum seen from the space frame; constant along exact motion."""
    alg, y = state.pose.algebra, state._coeffs
    pairs, n = alg.cached(_tables)[2], alg.size
    g = y[:n]
    return Multivector(alg, _gp(pairs, _gp(pairs, g, y[n:], n),
                                g * alg.reverse_sign, n))


def rk4_step(state: BodyState, inertia: InertiaOperator, h: float,
             renormalize: bool = True) -> BodyState:
    alg, y = state.pose.algebra, state._coeffs
    (rates, vel, _), n = alg.cached(_tables), alg.size

    def f(y):
        # [pose', momentum'] = [g v, m v - v m] / 2
        x = np.concatenate((y, y[vel] / inertia._diag))
        out = _gp(rates, x, x, 4 * n)
        return (out[:2 * n] - out[2 * n:]) * 0.5

    k1 = f(y)
    k2 = f(y + k1 * (h / 2))
    k3 = f(y + k2 * (h / 2))
    k4 = f(y + k3 * h)
    y1 = y + (k1 + k2 * 2 + k3 * 2 + k4) * (h / 6)
    if renormalize:
        # no null-versor check: a zero norm gives non-finite
        # coefficients, which integrate reports as divergence
        y1[:n] /= euclidean_norm(Multivector(alg, y1[:n]))
    out = BodyState(Multivector(alg, y1[:n]), Multivector(alg, y1[n:]))
    object.__setattr__(out, "_coeffs", y1)  # even by construction
    return out


def integrate(state: BodyState, inertia: InertiaOperator, h: float,
              steps: int, renormalize: bool = True,
              observer: Callable[[int, float, BodyState], None] | None = None,
              ) -> BodyState:
    """Fixed-step fourth-order run; the observer sees every state
    including the initial one."""
    state.pose.algebra.require("pga", 3)
    if h <= 0.0 or steps < 0:
        raise GeometryError("need a positive step size and steps >= 0")
    # overflow on the way to the finite check is reported as divergence,
    # not as a stream of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if observer is not None:
            observer(0, 0.0, state)
        for i in range(1, steps + 1):
            state = rk4_step(state, inertia, h, renormalize)
            if not np.isfinite(state._coeffs).all():
                raise GeometryError(f"integration diverged at step {i}")
            if observer is not None:
                observer(i, i * h, state)
    return state


def _even_positions(alg: Algebra) -> np.ndarray:
    return np.flatnonzero(alg.grades % 2 == 0)


def csv_row(t: float, state: BodyState, inertia: InertiaOperator) -> str:
    alg = state.pose.algebra
    sl = alg.grade_slice[2]
    return ",".join(["%.17g"] * 22) % (
        t, *state.pose.coeffs[alg.cached(_even_positions)].tolist(),
        *state.momentum.coeffs[sl].tolist(), energy(state, inertia),
        *spatial_momentum(state).coeffs[sl].tolist())


def write_trajectory(out: TextIO, state: BodyState, inertia: InertiaOperator,
                     h: float, steps: int, renormalize: bool = True) -> BodyState:
    out.write(CSV_HEADER + "\n")

    def row(i, t, s):
        line = csv_row(t, s, inertia)
        # %.17g spells a non-finite value inf or nan, a finite one never
        if "inf" in line or "nan" in line:
            raise GeometryError(f"integration diverged at step {i}:"
                                " the row is not finite")
        out.write(line + "\n")

    return integrate(state, inertia, h, steps, renormalize, observer=row)


def solution_space_dims(model: str) -> tuple[int, int, int]:
    """(bivector count, even-subalgebra count, excess of the pair space
    over the 12 states a rigid body actually has) for a model family."""
    if model == "pga":
        alg = pga(3)
    elif model == "cga":
        alg = cga(3)
    else:
        raise GeometryError(f"unknown model {model!r}")
    biv = len(alg.basis_blades(2))
    even = int(np.count_nonzero(alg.grades % 2 == 0))
    return biv, even, biv + even - valid_state_dim()


def valid_state_dim() -> int:
    """Velocity and momentum freedoms of one rigid body."""
    return 2 * len(pga(3).basis_blades(2))
