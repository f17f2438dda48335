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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TextIO

import numpy as np

from .algebra import Algebra, GeometryError, Multivector, cga, pga
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

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.pose.coeffs).all()
                    and np.isfinite(self.momentum.coeffs).all())


def derivatives(state: BodyState, inertia: InertiaOperator):
    v = inertia.inverse_apply(state.momentum)
    return state.pose.gp(v) * 0.5, state.momentum.commutator(v)


def energy(state: BodyState, inertia: InertiaOperator) -> float:
    sl = state.momentum.algebra.grade_slice[2]
    v = inertia.inverse_apply(state.momentum)
    return 0.5 * float(v.coeffs[sl] @ state.momentum.coeffs[sl])


def spatial_momentum(state: BodyState) -> Multivector:
    """Momentum seen from the space frame; constant along exact motion."""
    g = state.pose
    return g.gp(state.momentum).gp(g.reverse())


def rk4_step(state: BodyState, inertia: InertiaOperator, h: float,
             renormalize: bool = True) -> BodyState:
    g, m = state.pose, state.momentum

    def f(gc, mc):
        return derivatives(BodyState(gc, mc), inertia)

    k1g, k1m = f(g, m)
    k2g, k2m = f(g + k1g * (h / 2), m + k1m * (h / 2))
    k3g, k3m = f(g + k2g * (h / 2), m + k2m * (h / 2))
    k4g, k4m = f(g + k3g * h, m + k3m * h)
    g1 = g + (k1g + k2g * 2 + k3g * 2 + k4g) * (h / 6)
    m1 = m + (k1m + k2m * 2 + k3m * 2 + k4m) * (h / 6)
    if renormalize:
        # no null-versor check: a zero norm gives non-finite
        # coefficients, which integrate reports as divergence
        g1 = g1 / euclidean_norm(g1)
    return BodyState(g1, m1)


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
            if not state.is_finite():
                raise GeometryError(f"integration diverged at step {i}")
            if observer is not None:
                observer(i, i * h, state)
    return state


def _even_positions(alg: Algebra) -> np.ndarray:
    return np.flatnonzero(alg.grades % 2 == 0)


def csv_row(t: float, state: BodyState, inertia: InertiaOperator) -> str:
    alg = state.pose.algebra
    sl = alg.grade_slice[2]
    fields = [t]
    fields.extend(state.pose.coeffs[alg.cached(_even_positions)])
    fields.extend(state.momentum.coeffs[sl])
    fields.append(energy(state, inertia))
    fields.extend(spatial_momentum(state).coeffs[sl])
    return ",".join("%.17g" % x for x in fields)


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
