"""Test-side references: exact quantities the tests check the program
against, computed from the package's public operators, a float Toeplitz
coefficient from the oracle's quadrature, and the earlier float
arithmetic of the Monte Carlo oracle."""

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from fockop.analysis import log_fraction
from fockop.arith import MultiIndex
from fockop.operators import BasisExpansion, SpaceParams, hankel_product_apply
from fockop.oracle import gamma_recurrence, quadrature_norm_sq
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


def _basis_constant_sq(alpha: MultiIndex, sp: SpaceParams) -> float:
    """Squared normalizing constant of e_alpha, via the float Gamma path."""
    n, m = sp.n, sp.m
    num = gamma_recurrence(m + n) * gamma_recurrence(n + alpha.order)
    den = gamma_recurrence(n)
    for a in alpha:
        den *= gamma_recurrence(a + 1)
    den *= gamma_recurrence(m + n + alpha.order)
    return num / den


def oracle_toeplitz_coeff(beta: MultiIndex, gamma: MultiIndex, alpha: MultiIndex, sp: SpaceParams) -> float:
    """Float <T_{z^beta conj(z)^gamma} e_alpha, e_tau> with tau = alpha + beta - gamma
    (n = 1): the quadrature of ||z^(alpha + beta)||^2 times the normalizing
    constants of e_alpha and e_tau; 0.0 when a component of tau is negative."""
    comps = []
    for x, b_, g_ in zip(alpha, beta, gamma):
        t = x + b_ - g_
        if t < 0:
            return 0.0
        comps.append(t)
    tau = MultiIndex(comps)
    inner = quadrature_norm_sq(alpha + beta, sp)
    scale = math.sqrt(_basis_constant_sq(alpha, sp)) * math.sqrt(_basis_constant_sq(tau, sp))
    return inner * scale


def complex_product_mc_sums(a, b, m, weight, n, seed_seq, count, chunk):
    """Monte Carlo sums of one case ``(a, b, m, weight)`` in complex arithmetic.

    Each chunk of draws is made from a fresh generator seeded by
    ``seed_seq``; w = z^a conj(z)^b R^m * weight is formed as a complex
    product of complex powers (R = |z|^2), as the oracle did before it
    split w into a real modulus and a complex phase.  Returns
    ``(re, re^2, im, im^2)`` sums and ``(|w|, |w|^2)`` sums, which scale
    a rounding bound against the oracle's sums.
    """
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    sums = np.zeros(4)
    abs_sums = np.zeros(2)
    done = 0
    while done < count:
        size = min(chunk, count - done)
        xy = rng.standard_normal((size, 2 * n)) * math.sqrt(0.5)
        z = xy[:, :n] + 1j * xy[:, n:]
        w = np.ones(size, dtype=np.complex128)
        for j in range(n):
            if a[j]:
                w *= z[:, j] ** a[j]
            if b[j]:
                w *= np.conj(z[:, j]) ** b[j]
        if m:
            w *= np.sum(xy * xy, axis=1) ** m
        w *= weight
        sums += [np.sum(w.real), np.sum(w.real**2), np.sum(w.imag), np.sum(w.imag**2)]
        abs_w = np.abs(w)
        abs_sums += [np.sum(abs_w), np.sum(abs_w**2)]
        done += size
    return sums, abs_sums
