"""Test-side references: exact quantities the tests check the program
against, computed from the package's public operators, the closed-form
sweep's per-case loop (one engine apply per alpha), the default ray of
an operator, a float Toeplitz coefficient from the oracle's quadrature,
the recursive adaptive Simpson routine the oracle's level walk must
match bit for bit, and the earlier float arithmetic of the Monte Carlo
oracle."""

import math
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from fockop import operators, verify
from fockop.analysis import RaySpec, default_base, geometric_ts, log_fraction
from fockop.arith import MultiIndex
from fockop.operators import (
    BasisExpansion,
    OperatorExpr,
    SpaceParams,
    closed_form_min_alpha,
    hankel_product_apply,
)
from fockop.oracle import (
    MAX_QUAD_DEPTH,
    _gamma_tail_bound,
    _quadrature_span,
    gamma_recurrence,
    quadrature_norm_sq,
)
from fockop.symbols import SymbolPolynomial


def default_ray(expr: OperatorExpr, t_values: Optional[Sequence[int]] = None) -> RaySpec:
    """The ray from the operator's validity base along (1, ..., 1), at
    ``t_values`` (``analysis.geometric_ts()`` by default)."""
    ts = tuple(t_values) if t_values is not None else geometric_ts()
    return RaySpec(default_base(expr), MultiIndex.ones(expr.dimension), ts)


def hankel_vector_norm_sq(f: SymbolPolynomial, alpha: MultiIndex, sp: SpaceParams) -> Fraction:
    """Exact ||H_f e_alpha||^2 = <H*_f H_f e_alpha, e_alpha>."""
    image = hankel_product_apply(f, f, BasisExpansion.basis_vector(sp, alpha))
    c = image.coefficient(alpha)
    if c.is_zero():
        return Fraction(0)
    assert c.radicand == 1 and not c.im_num, f"diagonal Hankel-product entry must be a real rational, got {c}"
    return c.re


def closed_form_sweep_block(task) -> verify.ClosedFormSweep:
    """``verify._sweep_block`` one case at a time: the engine's composition
    route ``hankel_product_apply`` runs on each tuple's whole symbols and
    each e_alpha alone, so a vanishing case (gamma = 0 or nu = 0) still
    runs the composition, and the target's coefficient is read with
    ``coefficient``; a case whose image holds any other monomial is stray
    support.  The closed form is the public per-case
    ``hankel_coeff_closed_form``, looked up on ``operators`` at each call,
    so a test can replace it there."""
    n, m, beta, max_component, max_alpha = task
    sp = SpaceParams(n, m)
    beta = MultiIndex(beta)
    exps = verify.indices_by_component(n, max_component)
    out = verify.ClosedFormSweep()

    def label() -> str:
        return (
            f"n={n} m={m} beta={tuple(beta)} gamma={tuple(gamma)} "
            f"mu={tuple(mu)} nu={tuple(nu)} alpha={tuple(alpha)}"
        )

    for gamma in exps:
        gamma_zero = gamma.order == 0
        f = SymbolPolynomial.monomial(n, beta, gamma)
        for mu in exps:
            for nu in exps:
                out.tuples += 1
                need = closed_form_min_alpha(beta, gamma, mu, nu)
                if max(need) > max_alpha:
                    continue
                expect_zero = gamma_zero or nu.order == 0
                degenerate = m == 0 and sum(x * y for x, y in zip(gamma, nu)) == 0
                g = SymbolPolynomial.monomial(n, mu, nu)
                for comps in product(*(range(k, max_alpha + 1) for k in need)):
                    alpha = MultiIndex(comps)
                    out.cases += 1
                    target, closed = operators.hankel_coeff_closed_form(beta, gamma, mu, nu, alpha, sp)
                    image = hankel_product_apply(f, g, BasisExpansion.basis_vector(sp, alpha))
                    comp = image.coefficient(target)
                    if closed != comp:
                        out.mismatches.append(f"{label()}: closed {closed} vs composition {comp}")
                    if len(image.monomials) > (0 if comp.is_zero() else 1):
                        out.stray_support.append(label())
                    if expect_zero:
                        if not closed.is_zero():
                            out.vanish_false_nonzero.append(label())
                    elif closed.is_zero():
                        if degenerate:
                            out.degenerate_zero_cases += 1
                        else:
                            out.vanish_false_zero_strict.append(label())
                    elif degenerate:
                        out.degenerate_nonzero.append(label())
    return out


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


def _simpson(a: float, fa: float, b: float, fb: float, fm: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive_simpson(f, a, fa, b, fb, fm, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    lv, le = _adaptive_simpson(f, a, fa, m, fm, flm, left, tol / 2.0, depth - 1)
    rv, re = _adaptive_simpson(f, m, fm, b, fb, frm, right, tol / 2.0, depth - 1)
    return lv + rv, le + re


def recursive_simpson(f, a: float, b: float, tol: float, depth: int) -> Tuple[float, float]:
    """(value, error estimate) of adaptive Simpson on [a, b], one Python call
    of ``f`` per point: what ``oracle._simpson_levels`` must return bit for bit."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(a, fa, b, fb, fm)
    return _adaptive_simpson(f, a, fa, b, fb, fm, whole, tol, depth)


def gamma_integrand(k: int):
    """u -> u**k * exp(-u) on one Python float."""

    def f(u: float) -> float:
        return u**k * math.exp(-u)

    return f


def recursive_gamma_integral_quadrature(k: int, rel_tol: float) -> Tuple[float, float]:
    """(value, absolute error bound) for int_0^inf u^k e^-u du by recursive
    adaptive Simpson to relative tolerance ``rel_tol``: at
    ``oracle.QUAD_REL_TOL``, the pair ``oracle.gamma_integral_quadrature``
    must return bit for bit."""
    scale, upper = _quadrature_span(k)
    value, err = recursive_simpson(gamma_integrand(k), 0.0, upper, rel_tol * scale, MAX_QUAD_DEPTH)
    return value, err + _gamma_tail_bound(k, upper)


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
