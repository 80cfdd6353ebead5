"""Test-side references: exact quantities the tests check the program
against, computed from the package's public operators."""

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from fockop.analysis import log_fraction
from fockop.arith import MultiIndex
from fockop.operators import BasisExpansion, SpaceParams, hankel_product_apply
from fockop.symbols import SymbolPolynomial


def hankel_vector_norm_sq(f: SymbolPolynomial, alpha: MultiIndex, sp: SpaceParams) -> Fraction:
    """Exact ||H_f e_alpha||^2 = <H*_f H_f e_alpha, e_alpha>."""
    image = hankel_product_apply(f, f, BasisExpansion.basis_vector(sp, alpha))
    c = image.coefficient(alpha)
    if c.is_zero():
        return Fraction(0)
    assert c.radicand == 1 and not c.im_num, f"diagonal Hankel-product entry must be a real rational, got {c}"
    return c.re


def ratio_stabilization(
    samples: Sequence[Tuple[int, Fraction]], exponent: Fraction
) -> List[Tuple[int, float]]:
    """For every (t, 2t) pair present: ||.e_(2t)|| / (||.e_t|| * 2^exponent).

    Constants cancel in the ratio, so stabilization near 1 checks the
    exponent alone.
    """
    by_t = {t: v for t, v in samples}
    out = []
    for t, v in samples:
        w = by_t.get(2 * t)
        if w is None:
            continue
        if v == 0 or w == 0:
            continue
        log_ratio = 0.5 * (log_fraction(w) - log_fraction(v)) - float(exponent) * math.log(2.0)
        out.append((t, math.exp(log_ratio)))
    return out
