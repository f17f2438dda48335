"""The rigid-body RK4 written with whole ``Multivector`` products.

This is the formulation ``pgakit.dynamics`` used before it ran on
grade-restricted arrays, kept as the oracle the array path must match
bit for bit: every product is a dense 16 × 16 ``gp``, and a state is a
plain (pose, momentum) pair of 16-slot multivectors, odd slots and all.
"""

from typing import NamedTuple

import numpy as np

from pgakit.algebra import GeometryError, Multivector
from pgakit.euclid import euclidean_norm


class State(NamedTuple):
    pose: Multivector
    momentum: Multivector


def derivatives(g, m, inertia):
    v = inertia.inverse_apply(m)
    return g.gp(v) * 0.5, m.commutator(v)


def energy(state, inertia):
    sl = state.momentum.algebra.grade_slice[2]
    v = inertia.inverse_apply(state.momentum)
    return 0.5 * float(v.coeffs[sl] @ state.momentum.coeffs[sl])


def spatial_momentum(state):
    g = state.pose
    return g.gp(state.momentum).gp(g.reverse())


def rk4_step(state, inertia, h, renormalize=True):
    g, m = state.pose, state.momentum
    k1g, k1m = derivatives(g, m, inertia)
    k2g, k2m = derivatives(g + k1g * (h / 2), m + k1m * (h / 2), inertia)
    k3g, k3m = derivatives(g + k2g * (h / 2), m + k2m * (h / 2), inertia)
    k4g, k4m = derivatives(g + k3g * h, m + k3m * h, inertia)
    g1 = g + (k1g + k2g * 2 + k3g * 2 + k4g) * (h / 6)
    m1 = m + (k1m + k2m * 2 + k3m * 2 + k4m) * (h / 6)
    if renormalize:
        g1 = g1 / euclidean_norm(g1)
    return State(g1, m1)


def integrate(state, inertia, h, steps, renormalize=True, observer=None):
    state = State(state.pose, state.momentum)
    with np.errstate(over="ignore", invalid="ignore"):
        if observer is not None:
            observer(0, 0.0, state)
        for i in range(1, steps + 1):
            state = rk4_step(state, inertia, h, renormalize)
            if not (np.isfinite(state.pose.coeffs).all()
                    and np.isfinite(state.momentum.coeffs).all()):
                raise GeometryError(f"integration diverged at step {i}")
            if observer is not None:
                observer(i, i * h, state)
    return state


def csv_row(t, state, inertia):
    alg = state.pose.algebra
    sl = alg.grade_slice[2]
    fields = [t]
    fields.extend(state.pose.coeffs[np.flatnonzero(alg.grades % 2 == 0)])
    fields.extend(state.momentum.coeffs[sl])
    fields.append(energy(state, inertia))
    fields.extend(spatial_momentum(state).coeffs[sl])
    return ",".join("%.17g" % x for x in fields)
