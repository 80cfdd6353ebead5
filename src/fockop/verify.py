"""Verification sweeps binding the exact engine to its independent checks.

These drivers back the ``fockop verify ...`` subcommands and the
acceptance suite: exact orthonormality of the normalized monomial
basis, agreement of the closed-form Hankel-product coefficient with the
composition route on its validity range (with vanishing-pattern
bookkeeping), and agreement of the exact inner products with the
floating-point oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, List, Optional, Sequence

from .arith import MultiIndex, RADICAL_ONE
from .oracle import OracleConfig, OracleMethod, _mc_inner, oracle_inner
from .operators import (
    BasisExpansion,
    HankelProductOp,
    SpaceParams,
    apply_operator,
    basis_coefficient,
    hankel_coeff_closed_form,
    hankel_product_target,
    monomial_inner,
)
from .parallel import fan_out
from .symbols import SymbolPolynomial


def indices_up_to_order(dimension: int, max_order: int) -> List[MultiIndex]:
    out = [
        MultiIndex(c)
        for c in product(range(max_order + 1), repeat=dimension)
        if sum(c) <= max_order
    ]
    out.sort()
    return out


def indices_by_component(dimension: int, max_component: int) -> List[MultiIndex]:
    return [MultiIndex(c) for c in product(range(max_component + 1), repeat=dimension)]


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
    n_values: Sequence[int] = (1, 2, 3),
    m_values: Sequence[int] = (0, 1, 2, 3),
    max_order: int = 8,
    jobs: int = 1,
) -> OrthonormalityResult:
    """Exact check of <e_alpha, e_eta> = delta over all pairs up to max order.

    The spaces ``(n, m)`` are checked in up to ``jobs`` processes; the
    failures are listed in the serial order whatever ``jobs`` is.
    """
    tasks = [(n, m, max_order) for n in n_values for m in m_values]
    result = OrthonormalityResult(0)
    for part in fan_out(_orthonormality_block, tasks, jobs):
        result.pairs_checked += part.pairs_checked
        result.failures.extend(part.failures)
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

    ``task`` is ``(n, m, beta, max_component, max_alpha)``.  The Hankel
    product operator is built once per exponent tuple, and only for
    tuples with at least one alpha in the validity range.
    """
    n, m, beta, max_component, max_alpha = task
    sp = SpaceParams(n, m)
    beta = MultiIndex(beta)
    exps = indices_by_component(n, max_component)
    out = ClosedFormSweep()

    def label() -> str:  # formatted only for a case that lands in a failure list
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
                need = [abs(g - b) + abs(u - w) for b, g, u, w in zip(beta, gamma, mu, nu)]
                if max(need) > max_alpha:
                    continue  # no alpha in the validity range
                expect_zero = gamma_zero or nu.order == 0
                degenerate = m == 0 and sum(x * y for x, y in zip(gamma, nu)) == 0
                op = HankelProductOp(f, SymbolPolynomial.monomial(n, mu, nu))
                # the alphas with need <= alpha <= max_alpha, in the order
                # of indices_by_component(n, max_alpha)
                for comps in product(*(range(k, max_alpha + 1) for k in need)):
                    alpha = MultiIndex._wrap(comps)
                    out.cases += 1
                    closed = hankel_coeff_closed_form(beta, gamma, mu, nu, alpha, sp)
                    image = apply_operator(op, BasisExpansion.basis_vector(sp, alpha))
                    target = hankel_product_target(beta, gamma, mu, nu, alpha)
                    comp = image.coefficient(target)
                    if closed != comp:
                        out.mismatches.append(f"{label()}: closed {closed} vs composition {comp}")
                    if len(image.coeffs) > (0 if comp.is_zero() else 1):
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


def sweep_hankel_closed_form(
    n_values: Sequence[int] = (1, 2),
    m_values: Sequence[int] = (0, 1, 2),
    max_component: int = 2,
    max_alpha: int = 12,
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
        out.cases += part.cases
        out.tuples += part.tuples
        out.degenerate_zero_cases += part.degenerate_zero_cases
        for name in (
            "mismatches",
            "stray_support",
            "vanish_false_nonzero",
            "vanish_false_zero_strict",
            "degenerate_nonzero",
        ):
            getattr(out, name).extend(getattr(part, name))
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


def verify_oracle_deterministic(
    m_values: Sequence[int] = (0, 1, 2, 3),
    max_order: int = 10,
    rel_tol: float = 1e-10,
    cfg: OracleConfig = OracleConfig(),
) -> OracleAgreementResult:
    """n=1: exact inner products vs quadrature and Gamma-recurrence routes."""
    out = OracleAgreementResult()
    for m in m_values:
        sp = SpaceParams(1, m)
        for order in range(max_order + 1):
            a = MultiIndex((order,))
            exact = float(monomial_inner(a, a, sp))
            quad = oracle_inner(a, a, sp, OracleMethod.RADIAL_QUADRATURE, cfg)
            gamma = oracle_inner(a, a, sp, OracleMethod.GAMMA_IDENTITY, cfg)
            out.cases += 1
            for name, est in (("quadrature", quad), ("gamma", gamma)):
                rel = abs(est.value - exact) / exact
                out.max_relative_error = max(out.max_relative_error, rel)
                if not rel <= rel_tol:  # a NaN error fails too
                    out.failures.append(
                        f"m={m} a={order} {name}: rel error {rel:.3e} > {rel_tol:.1e}"
                    )
            cross = abs(quad.value - gamma.value) / exact
            out.max_relative_error = max(out.max_relative_error, cross)
            if not cross <= rel_tol:
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
    n: int = 2,
    m_values: Sequence[int] = (0, 1, 2),
    max_order: int = 4,
    sigmas: float = 3.0,
    cfg: OracleConfig = OracleConfig(),
) -> MonteCarloAgreementResult:
    """n>=2: seeded Monte Carlo must bracket each exact value within ``sigmas``.

    All cases are estimated in one call, from the same draws.
    """
    out = MonteCarloAgreementResult()
    spaces = [SpaceParams(n, m) for m in m_values]
    cases = [(a, a, sp) for sp in spaces for a in indices_up_to_order(n, max_order)]
    estimates = _mc_inner(cases, cfg).estimates
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
        if pull > sigmas:
            out.failures.append(
                f"m={sp.m} a={tuple(a)}: {est.value:.8f} vs exact {exact:.8f} "
                f"is {pull:.2f} standard errors (> {sigmas})"
            )
    return out
