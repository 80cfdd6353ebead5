"""Verification sweeps binding the exact engine to its independent checks.

These drivers back the ``fockop verify ...`` subcommands and the
acceptance suite: exact orthonormality of the normalized monomial
basis, agreement of the closed-form Hankel-product coefficient with the
composition route on its validity range (with vanishing-pattern
bookkeeping), and agreement of the exact inner products with the
floating-point oracle, within ``DETERMINISTIC_REL_TOL`` and ``MC_MAX_PULL``.
Every grid, seed and sample count comes from the caller; the CLI states
each default once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import product
from operator import add
from typing import Callable, List, Optional, Sequence

from .arith import MultiIndex, RADICAL_ONE, RADICAL_ZERO
from .oracle import _mc_inner, gamma_norm_sq, quadrature_norm_sq
from .operators import (
    SpaceParams,
    _closed_form_monomial_coeffs,
    _expansion,
    _norm_ratio,
    _pack,
    basis_coefficient,
    hankel_product_apply,
    monomial_inner,
)
from .parallel import fan_out
from .symbols import SymbolPolynomial


def indices_up_to_order(dimension: int, max_order: int) -> List[MultiIndex]:
    """The C(dimension + max_order, dimension) multi-indices of order at most
    ``max_order``, sorted; no other tuple is visited."""
    prefixes = [((), max_order)]  # (leading components, order left for the rest)
    for _ in range(dimension):
        prefixes = [(p + (c,), left - c) for p, left in prefixes for c in range(left + 1)]
    return [MultiIndex(p) for p, _ in prefixes]


def indices_by_component(dimension: int, max_component: int) -> List[MultiIndex]:
    return [MultiIndex(c) for c in product(range(max_component + 1), repeat=dimension)]


def _merge(out, part) -> None:
    """Add each int field of ``part`` to ``out``'s and extend each list field
    in place (a failing sweep's lists may be long)."""
    for f in fields(out):
        mine, theirs = getattr(out, f.name), getattr(part, f.name)
        if isinstance(mine, list):
            mine.extend(theirs)
        else:
            setattr(out, f.name, mine + theirs)


# ---------------------------------------------------------------------------
# orthonormality


@dataclass
class OrthonormalityResult:
    pairs_checked: int
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _orthonormality_block(task) -> OrthonormalityResult:
    """Orthonormality of one space ``(n, m)`` up to ``max_order``."""
    n, m, max_order = task
    result = OrthonormalityResult(0)
    pool = indices_up_to_order(n, max_order)
    sp = SpaceParams(n, m)
    constants = {alpha: basis_coefficient(alpha, sp) for alpha in pool}
    for alpha in pool:
        c_alpha = constants[alpha]
        for eta in pool:
            inner = monomial_inner(alpha, eta, sp)
            value = (c_alpha * constants[eta]).scale(inner)
            result.pairs_checked += 1
            if alpha == eta:
                if value != RADICAL_ONE:
                    result.failures.append(
                        f"n={n} m={m} alpha={tuple(alpha)}: <e,e> = {value}"
                    )
            elif not value.is_zero():
                result.failures.append(
                    f"n={n} m={m} alpha={tuple(alpha)} eta={tuple(eta)}: nonzero {value}"
                )
    return result


def verify_orthonormality(
    n_values: Sequence[int], m_values: Sequence[int], max_order: int, jobs: int = 1
) -> OrthonormalityResult:
    """Exact check of <e_alpha, e_eta> = delta over all pairs up to max order.

    The spaces ``(n, m)`` are checked in up to ``jobs`` processes; the
    failures are listed in the serial order whatever ``jobs`` is.
    """
    tasks = [(n, m, max_order) for n in n_values for m in m_values]
    result = OrthonormalityResult(0)
    fan_out(_orthonormality_block, tasks, jobs, on_result=lambda part: _merge(result, part))
    return result


# ---------------------------------------------------------------------------
# closed form vs composition


@dataclass
class ClosedFormSweep:
    """Outcome of the closed-form vs composition sweep.

    ``degenerate_zero_cases`` counts the coefficient-vanishing family
    that falls outside the stated vanishing criterion: m = 0 with both
    conjugate exponents nonzero but componentwise-disjoint (the leading
    coupling sum(gamma_j nu_j) is zero and the coefficient vanishes
    identically).  Any anomaly beyond that family lands in the strict
    failure lists.
    """

    cases: int = 0
    tuples: int = 0
    mismatches: List[str] = field(default_factory=list)
    stray_support: List[str] = field(default_factory=list)
    vanish_false_nonzero: List[str] = field(default_factory=list)
    vanish_false_zero_strict: List[str] = field(default_factory=list)
    degenerate_zero_cases: int = 0
    degenerate_nonzero: List[str] = field(default_factory=list)

    @property
    def closed_form_matches(self) -> bool:
        return not self.mismatches and not self.stray_support

    @property
    def vanishing_as_stated(self) -> bool:
        """Literal reading: zero iff gamma = 0 or nu = 0."""
        return (
            not self.vanish_false_nonzero
            and not self.vanish_false_zero_strict
            and self.degenerate_zero_cases == 0
        )

    @property
    def vanishing_with_degenerate_family(self) -> bool:
        """Vanishing criterion with the documented m=0 disjoint-support family."""
        return (
            not self.vanish_false_nonzero
            and not self.vanish_false_zero_strict
            and not self.degenerate_nonzero
        )


def _sweep_block(task) -> ClosedFormSweep:
    """The sweep over every (gamma, mu, nu) for one ``(n, m, beta)``.

    ``task`` is ``(n, m, beta, max_component, max_alpha)``.  What a tuple
    only looks up is set up once per block: per (mu, nu) the symbol
    g = z^mu conj(z)^nu, the distances |mu_j - nu_j|, whether nu = 0 and
    the packed ``mu - nu``; per gamma the symbol conj(f) = conj(z^beta
    conj(z)^gamma), the distances |gamma_j - beta_j| and the packed
    ``gamma - beta``; and conj(f) g = z^(gamma+mu) conj(z)^(beta+nu) once
    per (gamma + mu, nu), shared by the tuples with those sums.  One
    ``memo`` serves every ``_closed_form_monomial_coeffs`` call of the
    block, so each component's factors and each order's weight runs are
    computed once per block.  A tuple's least alpha
    (``closed_form_min_alpha``) is the sum of its two distances, so a
    gamma with one distance above ``max_alpha`` has no tuple with an alpha
    in the validity range: its tuples are counted and skipped together.
    The Hankel product of an exponent tuple is applied once, with
    ``hankel_product_apply``, only when the tuple has at least one alpha
    in the validity range.

    That one apply serves all of the tuple's alphas at once: it acts on
    ``sum z^alpha / ||z^anchor||`` over them, a vector built once per
    least alpha, with its alphas' packed keys, and shared, unchanged, by
    every tuple with that least alpha.  It is exact per alpha.  Both
    symbols are monomials, so every contribution from z^alpha lands on
    alpha + gamma + mu - beta - nu, and distinct alphas never share a
    target.  Each target's monomial coefficient q is therefore summed from
    the same integers, in the same order, as an apply to z^alpha alone
    would sum it: ``H*_f H_g z^alpha = q z^target``.  A monomial of the
    image that is no alpha's target is stray support of the tuple.

    Each case compares q with the closed form in the same basis,
    ``num/den`` from ``_closed_form_monomial_coeffs``, on the image's raw
    sums: the fields ``[re, im, den, radicand]`` under the packed target,
    the alpha's key plus the tuple's packed shift (an alpha in the validity
    range has a target with no negative component, so no field borrows
    from the next).  The case agrees when
    the sum is absent or zero and ``num`` is 0, or when ``im`` is 0, the
    radicand 1 and ``re * den_cf == num * den`` (both denominators are
    positive).  Any other case is only a candidate: it is decided again on
    the canonical coefficient, from the image's ``monomials``, as the
    mismatch's text is.  Stray support shows as more nonzero raw sums
    than alphas whose target holds one; only then is the stray list read
    from ``monomials``.  A passing tuple canonicalizes nothing.  The
    orthonormal coefficients, both ``q`` and ``num/den`` times
    ``_norm_ratio(alpha, target)``, are formed only for a mismatch's
    text; they are equal exactly when ``q == num/den``.
    """
    n, m, beta, max_component, max_alpha = task
    sp = SpaceParams(n, m)
    beta = MultiIndex(beta)
    beta_key = _pack(n, beta)
    exps = indices_by_component(n, max_component)
    right = [
        (
            mu, nu, SymbolPolynomial.monomial(n, mu, nu), [abs(u - w) for u, w in zip(mu, nu)],
            nu.order == 0, _pack(n, mu) - _pack(n, nu),
        )
        for mu in exps
        for nu in exps
    ]
    # per least alpha: its alphas, in the order of indices_by_component(n,
    # max_alpha), their packed keys, and the vector sum z^alpha /
    # ||z^(least alpha)|| over them
    vectors = {}
    # conj(f) g by (gamma + mu, nu)
    products = {}
    memo = {}
    out = ClosedFormSweep()

    def tuple_label() -> str:  # formatted only for a tuple or case in a failure list
        return (
            f"n={n} m={m} beta={tuple(beta)} gamma={tuple(gamma)} "
            f"mu={tuple(mu)} nu={tuple(nu)}"
        )

    def label() -> str:
        return f"{tuple_label()} alpha={tuple(alpha)}"

    for gamma in exps:
        f_gap = [abs(g_ - b) for b, g_ in zip(beta, gamma)]
        if max(f_gap) > max_alpha:
            out.tuples += len(right)  # no tuple of this gamma has an alpha in range
            continue
        gamma_zero = gamma.order == 0
        f_shift = _pack(n, gamma) - beta_key
        f = SymbolPolynomial.monomial(n, beta, gamma)
        f_conj = f.conjugate()
        for mu, nu, g, g_gap, nu_zero, g_shift in right:
            out.tuples += 1
            need = tuple(map(add, f_gap, g_gap))
            if max(need) > max_alpha:
                continue  # no alpha in the validity range
            expect_zero = gamma_zero or nu_zero
            degenerate = m == 0 and sum(x * y for x, y in zip(gamma, nu)) == 0
            shared = vectors.get(need)
            if shared is None:
                alphas = [
                    MultiIndex._wrap(comps)
                    for comps in product(*(range(k, max_alpha + 1) for k in need))
                ]
                shared = vectors[need] = (
                    alphas,
                    [_pack(n, alpha) for alpha in alphas],
                    _expansion(sp, alphas[0], dict.fromkeys(alphas, RADICAL_ONE)),
                )
            alphas, keys, v = shared
            key = (*map(add, gamma, mu), *nu)
            f_conj_g = products.get(key)
            if f_conj_g is None:
                f_conj_g = products[key] = f_conj * g
            image = hankel_product_apply(f, g, v, f_conj=f_conj, f_conj_g=f_conj_g)
            sums = image._sums
            closed_forms = _closed_form_monomial_coeffs(beta, gamma, mu, nu, alphas, sp, memo)
            shift = f_shift + g_shift
            out.cases += len(alphas)
            present = hits = 0  # alphas whose target holds a sum, a nonzero one
            for alpha, alpha_key, (target, num, den) in zip(alphas, keys, closed_forms):
                raw = sums.get(alpha_key + shift)
                if raw is None:
                    agree = not num
                else:
                    present += 1
                    re, im, raw_den, radicand = raw
                    if re or im:
                        hits += 1
                        agree = not im and radicand == 1 and re * den == num * raw_den
                    else:
                        agree = not num
                if not agree:  # decided again on the canonical q
                    q = image.monomials.get(target)
                    if q is None:
                        agree = not num
                    else:  # q == num/den, q canonical with den > 0
                        agree = q.re_num * den == num * q.den and not q.im_num and q.radicand == 1
                    if not agree:
                        ratio = _norm_ratio(alpha, target, sp)
                        comp = RADICAL_ZERO if q is None else q * ratio
                        out.mismatches.append(
                            f"{label()}: closed {ratio.scale_ratio(num, den)} vs composition {comp}"
                        )
                if expect_zero:
                    if num:
                        out.vanish_false_nonzero.append(label())
                elif not num:
                    if degenerate:
                        out.degenerate_zero_cases += 1
                    else:
                        out.vanish_false_zero_strict.append(label())
                elif degenerate:
                    out.degenerate_nonzero.append(label())
            if len(sums) != present and hits != sum(1 for raw in sums.values() if raw[0] or raw[1]):
                targets = {target for target, _, _ in closed_forms}
                stray = sorted(tau for tau in image.monomials if tau not in targets)
                out.stray_support.append(
                    f"{tuple_label()}: stray targets {[tuple(tau) for tau in stray]}"
                )
    return out


def closed_form_case_count(
    n_values: Sequence[int], m_values: Sequence[int], max_component: int, max_alpha: int
) -> int:
    """The cases ``sweep_hankel_closed_form`` checks, counted without enumerating them.

    In one component an exponent tuple (b, g, u, w) admits the alphas from
    |g-b| + |u-w| to ``max_alpha``, so it counts only through its two
    distances; ``pairs[d]`` pairs of components lie at distance d.
    """
    c, a = max_component, max_alpha
    pairs = [c + 1] + [2 * (c + 1 - d) for d in range(1, min(a, c) + 1)]
    side = sum(
        p1 * p2 * (a + 1 - d1 - d2)
        for d1, p1 in enumerate(pairs)
        for d2, p2 in enumerate(pairs[: a + 1 - d1])
    )
    return len(m_values) * sum(side**n for n in n_values)


def sweep_hankel_closed_form(
    n_values: Sequence[int],
    m_values: Sequence[int],
    max_component: int,
    max_alpha: int,
    progress: Optional[Callable[[int, int], None]] = None,
    jobs: int = 1,
) -> ClosedFormSweep:
    """Compare the closed-form coefficient with the composition route.

    Runs over all monomial exponent 4-tuples with components up to
    ``max_component`` and all alpha in the validity range with
    components up to ``max_alpha``.

    The work is split into blocks, one per ``(n, m, beta)``, run in up
    to ``jobs`` processes (see ``parallel.fan_out``).  The blocks'
    results are merged in block order, so every count and failure list
    is the same, in the same order, whatever ``jobs`` is.
    ``progress(done, total)`` is called here, in the calling process,
    as each block's exponent tuples are merged.
    """
    tasks = [
        (n, m, beta, max_component, max_alpha)
        for n in n_values
        for m in m_values
        for beta in indices_by_component(n, max_component)
    ]
    total = sum((max_component + 1) ** (3 * n) for n, *_ in tasks)
    out = ClosedFormSweep()

    def merge(part: ClosedFormSweep) -> None:
        _merge(out, part)
        if progress:
            progress(out.tuples, total)

    fan_out(_sweep_block, tasks, jobs, on_result=merge)
    return out


# ---------------------------------------------------------------------------
# oracle agreement


@dataclass
class OracleAgreementResult:
    cases: int = 0
    max_relative_error: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


# Largest relative error the n=1 quadrature and Gamma-recurrence routes may
# show against the exact inner products, and against each other.
DETERMINISTIC_REL_TOL = 1e-10

# Largest distance, in standard errors, of a Monte Carlo estimate from the
# exact inner product.
MC_MAX_PULL = 3.0


def verify_oracle_deterministic(m_values: Sequence[int], max_order: int) -> OracleAgreementResult:
    """n=1: exact inner products vs quadrature and Gamma-recurrence routes,
    within ``DETERMINISTIC_REL_TOL``."""
    out = OracleAgreementResult()
    for m in m_values:
        sp = SpaceParams(1, m)
        for order in range(max_order + 1):
            a = MultiIndex((order,))
            exact = float(monomial_inner(a, a, sp))
            quad = quadrature_norm_sq(a, sp)
            gamma = gamma_norm_sq(a, sp)
            out.cases += 1
            for name, value in (("quadrature", quad), ("gamma", gamma)):
                rel = abs(value - exact) / exact
                out.max_relative_error = max(out.max_relative_error, rel)
                if not rel <= DETERMINISTIC_REL_TOL:  # a NaN error fails too
                    out.failures.append(
                        f"m={m} a={order} {name}: rel error {rel:.3e} > {DETERMINISTIC_REL_TOL:.1e}"
                    )
            cross = abs(quad - gamma) / exact
            out.max_relative_error = max(out.max_relative_error, cross)
            if not cross <= DETERMINISTIC_REL_TOL:
                out.failures.append(
                    f"m={m} a={order}: quadrature vs gamma differ by {cross:.3e}"
                )
    return out


@dataclass
class MonteCarloAgreementResult:
    cases: int = 0
    max_sigmas: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_oracle_monte_carlo(
    n: int,
    m_values: Sequence[int],
    max_order: int,
    seed: int,
    samples: int,
) -> MonteCarloAgreementResult:
    """n>=2: Monte Carlo at ``samples`` draws seeded by ``seed`` must bracket
    each exact value within ``MC_MAX_PULL`` standard errors.

    All cases are estimated in one call, from the same draws.
    """
    out = MonteCarloAgreementResult()
    spaces = [SpaceParams(n, m) for m in m_values]
    cases = [(a, a, sp) for sp in spaces for a in indices_up_to_order(n, max_order)]
    estimates = _mc_inner(cases, seed, samples).estimates
    for (a, _, sp), est in zip(cases, estimates):
        exact = float(monomial_inner(a, a, sp))
        out.cases += 1
        if est.standard_error == 0:
            if est.value != exact:
                out.failures.append(f"m={sp.m} a={tuple(a)}: zero spread but off")
            continue
        if math.isfinite(est.value) and math.isfinite(est.standard_error):
            pull = abs(est.value - exact) / est.standard_error
        else:
            pull = math.inf  # a NaN or infinite estimate brackets nothing
        out.max_sigmas = max(out.max_sigmas, pull)
        if pull > MC_MAX_PULL:
            out.failures.append(
                f"m={sp.m} a={tuple(a)}: {est.value:.8f} vs exact {exact:.8f} "
                f"is {pull:.2f} standard errors (> {MC_MAX_PULL})"
            )
    return out
