"""The embedding phi: pga(3) -> cga(3), an exact oracle between the models.

phi sends the degenerate generator e0 to -n_inf and e_i to the euclidean
axis e_(i-1) of cga(3), and extends by products: a pga(3) blade goes to
the product of its generators' images in ascending order.  The images
anticommute and square as e0..e3 do (n_inf is null and orthogonal to the
euclidean axes), so phi preserves gp, outer and left_contract.  It is
built from ``conformal.n_infinity`` and ``basis_vector`` alone; the
package itself holds no map between its two models.
"""

from functools import cache

from pgakit import conformal
from pgakit.algebra import cga, pga

PGA, CGA = pga(3), cga(3)


@cache
def _images(e0_sign: float) -> tuple:
    """cga(3) image of each pga(3) blade, in pga(3) slot order, with
    e0 sent to ``e0_sign * n_inf``."""
    gens = [conformal.n_infinity(CGA) * e0_sign]
    gens += [CGA.basis_vector(i) for i in range(3)]
    out = []
    for mask in PGA.mask_of:
        img = CGA.scalar(1.0)
        for g, gen in enumerate(gens):
            if mask >> g & 1:
                img = img * gen
        out.append(img)
    return tuple(out)


def phi(x, e0_sign: float = -1.0):
    """cga(3) image of a pga(3) multivector: its coefficients times the
    blade images, summed from zero."""
    out = CGA.zero()
    for c, img in zip(x.coeffs, _images(e0_sign)):
        if c:
            out = out + img * float(c)
    return out
