"""Checks on pgakit's outputs that use numpy and the standard library only.

Nothing here imports pgakit: every expected value comes from coordinate
formulas or from the small exterior algebra below, written from the
documented coefficient layout (blades as generator bitmasks, positions
ordered by grade, then bitmask).  The exterior product and the
complement carry no metric, so they are enough to build points, lines
and joins up to scale, and to test incidence.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import lru_cache

import numpy as np


class OracleError(AssertionError):
    """An output of the program disagrees with its independent oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


# -- coefficient layout --------------------------------------------------------


@lru_cache(maxsize=None)
def blade_order(gens: int) -> tuple[int, ...]:
    """Bitmask of each coefficient position: grade first, then bitmask."""
    return tuple(sorted(range(1 << gens), key=lambda m: (bin(m).count("1"), m)))


@lru_cache(maxsize=None)
def _position(gens: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(blade_order(gens))}


def _swap_sign(a: int, b: int) -> int:
    """Sign of sorting the generators of blade a followed by those of b."""
    swaps = 0
    for i in range(b.bit_length()):
        if b >> i & 1:
            swaps += bin(a >> (i + 1)).count("1")
    return -1 if swaps % 2 else 1


def vector(gens: int, coeffs) -> np.ndarray:
    """Grade-1 element sum_i coeffs[i] e_i."""
    out = np.zeros(1 << gens)
    pos = _position(gens)
    for i, c in enumerate(coeffs):
        out[pos[1 << i]] = c
    return out


def wedge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    gens = int(a.size).bit_length() - 1
    order, pos = blade_order(gens), _position(gens)
    out = np.zeros(a.size)
    for i in np.flatnonzero(a):
        for j in np.flatnonzero(b):
            ma, mb = order[i], order[j]
            if ma & mb == 0:
                out[pos[ma | mb]] += _swap_sign(ma, mb) * a[i] * b[j]
    return out


def _complement(x: np.ndarray, inverse: bool) -> np.ndarray:
    """Right complement: e_m ^ J(e_m) = e_full, and its inverse."""
    gens = int(x.size).bit_length() - 1
    order, pos = blade_order(gens), _position(gens)
    full = (1 << gens) - 1
    out = np.zeros(x.size)
    for i in np.flatnonzero(x):
        m = order[i]
        c = full ^ m
        sign = _swap_sign(c, m) if inverse else _swap_sign(m, c)
        out[pos[c]] = sign * x[i]
    return out


def join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Regressive product, correct up to an overall sign."""
    return _complement(wedge(_complement(a, False), _complement(b, False)), True)


# -- plane-based (dual) euclidean model ------------------------------------------


def pga_point(x) -> np.ndarray:
    """Meet of the planes x_i = c_i, each written e_i - c_i e0."""
    x = np.asarray(x, float)
    gens = x.size + 1
    out = None
    for i, c in enumerate(x, start=1):
        plane = vector(gens, [-c] + [1.0 if k == i else 0.0
                                     for k in range(1, gens)])
        out = plane if out is None else wedge(out, plane)
    return out


def parallel(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """u and v span the same ray or its opposite, to relative tolerance."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return False
    du, dv = u / nu, v / nv
    return min(np.linalg.norm(du - dv), np.linalg.norm(du + dv)) <= tol


# -- conformal model ---------------------------------------------------------------


def cga_up(x) -> np.ndarray:
    """x + (|x|^2 - 1)/2 e+ + (|x|^2 + 1)/2 e-, with e+ = e3 and e- = e4."""
    x = np.asarray(x, float)
    sq = float(x @ x)
    return vector(5, list(x) + [0.5 * sq - 0.5, 0.5 * sq + 0.5])


def rodrigues(v, axis, angle: float) -> np.ndarray:
    """Right-handed rotation of v about a unit axis through the origin."""
    v, k = np.asarray(v, float), np.asarray(axis, float)
    return (v * math.cos(angle) + np.cross(k, v) * math.sin(angle)
            + k * (k @ v) * (1.0 - math.cos(angle)))


# -- printed output ------------------------------------------------------------------

_TERM = re.compile(r"^(?P<num>[0-9.eE+-]+|inf|nan)(?:\*e(?P<gens>\d+))?$")


def parse_multivector(text: str, gens: int) -> np.ndarray:
    """Coefficients of a multivector printed as '1.5*e12 - 2.0*e0 + ...'."""
    out = np.zeros(1 << gens)
    if text.strip() == "0":
        return out
    pos = _position(gens)
    tokens = text.replace(" - ", " -").replace(" + ", " +").split()
    for token in tokens:
        m = _TERM.match(token)
        require(m is not None, f"unreadable term {token!r} in {text!r}")
        mask = sum(1 << int(d) for d in (m.group("gens") or ""))
        out[pos[mask]] += float(m.group("num"))
    return out


def output_fields(text: str) -> dict[str, str]:
    """'key: value' lines of a command's standard output."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith("#"):
            fields[key] = value
    return fields


# -- rigid body CSV ---------------------------------------------------------------------

CSV_HEADER = ("t,g0,g1,g2,g3,g4,g5,g6,g7,m0,m1,m2,m3,m4,m5,energy,"
              "ms0,ms1,ms2,ms3,ms4,ms5")

# the even subalgebra of pga(3) in layout order is
# 1, e01, e02, e12, e03, e13, e23, e0123: the euclidean part squares to -1
_EUCLIDEAN_EVEN = [3, 5, 6]


def _inertia_diagonal(moments, mass) -> np.ndarray:
    """Momentum slots e01, e02, e12, e03, e13, e23 in layout order: the
    ideal ones carry the mass, e23/e13/e12 turn about x/y/z."""
    ix, iy, iz = moments
    return np.array([mass, mass, iz, mass, iy, ix], float)


def check_trajectory(data: bytes, steps: int, h: float, body: dict,
                     tol: float) -> dict:
    """Checks one simulate CSV against the scene's body; returns the drift
    figures and the digest."""
    text = data.decode("ascii")
    lines = text.split("\n")
    require(lines[-1] == "", "CSV does not end with a newline")
    require(lines[0] == CSV_HEADER, f"CSV header is {lines[0]!r}")
    rows = lines[1:-1]
    require(len(rows) == steps + 1, f"{len(rows)} rows for {steps} steps")
    table = np.array([[float(x) for x in r.split(",")] for r in rows])
    require(table.shape[1] == 22, f"{table.shape[1]} columns per row")
    require(bool(np.isfinite(table).all()), "non-finite value in the CSV")
    require(bool(np.allclose(table[:, 0], h * np.arange(steps + 1),
                             rtol=1e-12, atol=0.0)), "time column is off")

    momentum, energy, space = table[:, 9:15], table[:, 15], table[:, 16:22]
    diag = _inertia_diagonal(body["moments"], body["mass"])
    angular, linear = np.asarray(body["angular"]), np.asarray(body["linear"])
    start = np.abs([linear[0], linear[1], angular[2], linear[2], angular[1],
                    angular[0]])
    scale = float(np.linalg.norm(start))
    require(float(np.max(np.abs(np.abs(momentum[0]) - start)))
            <= 1e-12 * scale, "initial momentum is not the scene's")
    e0 = 0.5 * float(np.sum(start ** 2 / diag))
    require(float(np.max(np.abs(energy - 0.5 * np.sum(momentum ** 2 / diag,
                                                        axis=1))))
            <= 1e-12 * e0, "energy column disagrees with the momentum")
    require(abs(energy[0] - e0) <= 1e-12 * e0,
            "initial energy is not the scene's")

    e_drift = float(np.max(np.abs(energy - e0))) / e0
    m_drift = float(np.max(np.linalg.norm(space - space[0], axis=1))) \
        / float(np.linalg.norm(space[0]))
    pose = table[:, 1:9]
    norm_sq = pose[:, 0] ** 2 + np.sum(pose[:, _EUCLIDEAN_EVEN] ** 2, axis=1)
    require(e_drift <= tol, f"energy drifted by {e_drift:.3g} > {tol:.3g}")
    require(m_drift <= tol, f"space momentum drifted by {m_drift:.3g}")
    return {
        "energy_drift": e_drift,
        "momentum_drift": m_drift,
        "norm_defect": float(np.max(np.abs(norm_sq - 1.0))),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
