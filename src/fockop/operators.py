"""Exact operator engine on the weighted entire-function Hilbert space.

The monomials ``z^alpha`` are orthogonal, and ``e_alpha = z^alpha/||z^alpha||``
is the orthonormal basis every result is reported in.  On monomials a
Toeplitz operator is rational:

    T_{z^beta conj(z)^gamma} z^alpha = (||z^(alpha+beta)||^2 / ||z^tau||^2) z^tau,
    tau = alpha + beta - gamma

(Zhu, *Analysis on Fock Spaces*, GTM 263, ch. 6); the square roots come
only from normalizing.  So a ``BasisExpansion`` holds the coefficients
``q_tau`` of unnormalized monomials over the norm of one anchor index,
``v = sum q_tau z^tau / ||z^anchor||``.  ``toeplitz_apply``, compositions
and Hankel products act on the ``q_tau`` in Gaussian rationals, and a
squared norm is rational too.  A square root, the ratio
``||z^tau||/||z^anchor||``, enters only when an orthonormal coefficient
is read, and it keeps the result inside the RadicalCoefficient closure.

A basis action sums its image's coefficients as integer fields keyed by
packed indices (INDEX_COMPONENT_BOUND), and returns an image that holds
those raw sums.  Canonicalization happens only where ``monomials`` is
read, once per target; ``squared_norm`` and the next stage of a
composition read the raw sums, so ``norms`` canonicalizes nothing and
takes no square root.

Hankel products are never materialized through the projection
complement; the product ``H*_f H_g`` is evaluated through the operator
identity ``T_{conj(f) g} - T_{conj(f)} T_g``, which holds with no
restriction on the input vector.  ``H_h = 0`` for a holomorphic h, so
``HankelProductOp`` applies it to the symbols' non-holomorphic parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd, perm, prod
from operator import add
from struct import Struct
from typing import Dict, Optional, Tuple

from .arith import (
    MultiIndex,
    RADICAL_ONE,
    RADICAL_ZERO,
    RadicalCoefficient,
    _radical,
    check_index,
    check_same_dimension,
    rising_product,
)
from .errors import InputError, SymbolSyntaxError
from .symbols import MAX_DIMENSION, _T_END, _T_OPERATOR, SymbolPolynomial, _Parser, check_dimension


# Largest weight order m.  A basis action's rational factors are runs of
# |gamma| integers whatever m is, and a ratio of two monomial norms, which
# a squared norm multiplies and an orthonormal coefficient read takes the
# square root of, has weight runs of at most min(m, order difference)
# integers (``_weight_runs``).  One three-sample ``norms`` of a small
# Hankel product (``HP(conj(z1)*z2 + z1; conj(z2)^2 + 1)``, n = 2, t = 1..3),
# the command with its argument parsing, takes about 1.1 ms at m = 1000,
# as at m = 100 (median of 400 in one process, on a 2-core Xeon).
MAX_WEIGHT_ORDER = 1000


@dataclass(frozen=True)
class SpaceParams:
    """Dimension 1 <= n <= MAX_DIMENSION and weight order 0 <= m <= MAX_WEIGHT_ORDER.

    Immutable, and a value: equal (n, m) compare and hash equal.
    """

    n: int
    m: int

    def __post_init__(self):
        check_dimension(self.n)
        if self.m < 0:
            raise InputError("weight order m must be >= 0")
        if self.m > MAX_WEIGHT_ORDER:
            raise InputError(f"weight order m = {self.m} exceeds MAX_WEIGHT_ORDER = {MAX_WEIGHT_ORDER}")


# ---------------------------------------------------------------------------
# basis constants


def monomial_inner(a: MultiIndex, b: MultiIndex, sp: SpaceParams) -> Fraction:
    """Exact inner product <z^a, z^b> in the weighted space; 0 unless a == b."""
    check_same_dimension(sp.n, a.dimension, b.dimension)
    if a != b:
        return Fraction(0)
    # a! (n-1)! (m+n-1+|a|)! / ((m+n-1)! (n-1+|a|)!)
    num = prod(map(factorial, a)) * rising_product(sp.n - 1 + a.order, sp.m)
    return Fraction(num, rising_product(sp.n - 1, sp.m))


def basis_coefficient(alpha: MultiIndex, sp: SpaceParams) -> RadicalCoefficient:
    """Normalizing constant of e_alpha: 1/sqrt(<z^alpha, z^alpha>) = ||1|| / ||z^alpha||."""
    check_same_dimension(sp.n, alpha.dimension)
    return _norm_ratio(alpha, MultiIndex.zero(sp.n), sp)


def _weight_runs(base_a: int, base_b: int, m: int):
    """Runs ``(start, count)`` (see ``rising_product``) of the numerator and
    the denominator of ``(B+1)...(B+m) / ((A+1)...(A+m))`` after cancelling,
    for A = ``base_a`` and B = ``base_b``: k = min(|B - A|, m) integers each.
    """
    k = min(abs(base_b - base_a), m)
    if base_b >= base_a:
        return (base_b + m - k, k), (base_a, k)
    return (base_b, k), (base_a + m - k, k)


def _norm_ratio_runs(a: MultiIndex, b: MultiIndex, sp: SpaceParams):
    """Runs ``(start, count)`` of the numerator and the denominator of
    ``||z^b||^2 / ||z^a||^2``.

    The ratio is ``(b!/a!) (B+1)...(B+m) / ((A+1)...(A+m))`` with
    A = n-1+|a| and B = n-1+|b|.  Each component gives one run between
    a_j and b_j, and ``_weight_runs`` the weight factors' two.
    """
    num = []
    den = []
    for x, y in zip(a, b):
        if y > x:
            num.append((x, y - x))
        elif x > y:
            den.append((y, x - y))
    w_num, w_den = _weight_runs(sp.n - 1 + sum(a), sp.n - 1 + sum(b), sp.m)
    num.append(w_num)
    den.append(w_den)
    return num, den


def _norm_ratio(a: MultiIndex, b: MultiIndex, sp: SpaceParams) -> RadicalCoefficient:
    """Canonical ``||z^b|| / ||z^a||``: ``from_sqrt_ratio`` of the integers
    of the runs of ``_norm_ratio_runs``.

    ``from_sqrt_ratio`` is looked up on the class at each call, so a
    wrapper bound there sees every square root the engine takes: the
    orthonormal coefficient reads ``coeffs``, ``coefficient`` (and
    ``toeplitz_mono_apply`` through it), ``BasisExpansion(...)``,
    ``basis_coefficient``, ``hankel_coeff_closed_form`` and a closed-form
    sweep mismatch's text.
    """
    num, den = _norm_ratio_runs(a, b, sp)
    return RadicalCoefficient.from_sqrt_ratio(
        [k for s, c in num for k in range(s + 1, s + c + 1)],
        [k for s, c in den for k in range(s + 1, s + c + 1)],
    )


def toeplitz_mono_apply(
    beta: MultiIndex, gamma: MultiIndex, alpha: MultiIndex, sp: SpaceParams
) -> Optional[Tuple[MultiIndex, RadicalCoefficient]]:
    """Image of e_alpha under the Toeplitz operator of z^beta conj(z)^gamma.

    Returns ``(target, coefficient)``, or ``None`` when any component of
    ``tau = alpha + beta - gamma`` is negative (the image is the zero
    vector).  Read from ``toeplitz_apply`` on e_alpha, with one square
    root for the coefficient.
    """
    image = toeplitz_apply(SymbolPolynomial.monomial(sp.n, beta, gamma), BasisExpansion.basis_vector(sp, alpha))
    if image.is_zero():
        return None
    (tau,) = image.monomials
    return tau, image.coefficient(tau)


# ---------------------------------------------------------------------------
# expansions


class BasisExpansion:
    """Finite vector ``sum(coeffs[tau] * e_tau)``; coefficients are nonzero.

    ``BasisExpansion(space, coeffs)`` takes coefficients on the orthonormal
    basis, keyed by indices of n nonnegative components, and drops the zero
    ones; ``coeffs``, ``coefficient``, ``sorted_items``, ``==`` and ``repr``
    read them.  Underneath, the vector is held as
    ``sum(monomials[tau] * z^tau) / ||z^anchor||`` for one anchor index:
    the form the basis actions work in, with radicand 1 whenever the
    vector was built from a basis vector.  Each read converts from it:
    ``coeffs`` takes one square root per entry on every read, and
    ``coefficient`` one for the entry it returns.

    Canonicalization happens where ``monomials`` is read.  An image that
    ``toeplitz_apply`` or ``hankel_product_apply`` returns holds its
    monomial coefficients as the basis action summed them: integer fields
    under packed keys (``_add_image``), not yet canonical.  ``monomials``
    canonicalizes each of them on its first read and keeps the dict;
    ``squared_norm`` and the next basis action of a composition read the
    raw fields through ``_source``, so neither canonicalizes anything.
    ``_source`` packs a vector's indices on its first call and keeps the
    records, so a vector applied many times packs once.  Both are derived
    data: do not change a vector's ``monomials`` after reading them.
    """

    __slots__ = ("space", "anchor", "_monomials", "_sums", "_packed")

    def __init__(self, space: SpaceParams, coeffs: Dict[MultiIndex, RadicalCoefficient]):
        for tau in coeffs:
            check_index(space.n, tau)
        coeffs = {tau: c for tau, c in coeffs.items() if not c.is_zero()}
        self.space = space
        self.anchor = next(iter(coeffs), None) or MultiIndex.zero(space.n)
        # c_tau e_tau = c_tau ||z^anchor||/||z^tau|| * z^tau/||z^anchor||
        self._monomials = {tau: c * _norm_ratio(tau, self.anchor, space) for tau, c in coeffs.items()}
        self._sums = self._packed = None

    @staticmethod
    def basis_vector(space: SpaceParams, alpha: MultiIndex) -> "BasisExpansion":
        alpha = MultiIndex(alpha)
        check_same_dimension(space.n, alpha.dimension)
        return _expansion(space, alpha, {alpha: RADICAL_ONE})

    @property
    def monomials(self) -> Dict[MultiIndex, RadicalCoefficient]:
        """The canonical coefficients ``q_tau`` by tau; an image's raw sums
        are canonicalized on the first read, once, and the dict is kept."""
        out = self._monomials
        if out is None:
            out = self._monomials = _canonical(self.space.n, self._sums)
        return out

    def _source(self) -> list:
        """The vector as ``_add_image`` and ``squared_norm`` read it: one
        record ``(key, tau, n-1+|tau|, re, im, den, radicand)`` per nonzero
        monomial coefficient ``(re + im*i)/den * sqrt(radicand)``, ``key``
        the packed tau (see INDEX_COMPONENT_BOUND, which every component
        must lie below).  Read from an image's raw sums, else from
        ``monomials``; built on the first call and kept."""
        records = self._packed
        if records is None:
            if self._sums is not None:
                records = _sum_records(self.space.n, self._sums)
            else:
                records = _monomial_records(self.space.n, self._monomials)
            self._packed = records
        return records

    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def coeffs(self) -> Dict[MultiIndex, RadicalCoefficient]:
        """The coefficients on the orthonormal basis, converted on each read."""
        anchor, sp = self.anchor, self.space
        return {tau: q * _norm_ratio(anchor, tau, sp) for tau, q in self.monomials.items()}

    def coefficient(self, alpha: MultiIndex) -> RadicalCoefficient:
        """The coefficient of e_alpha."""
        alpha = MultiIndex(alpha)
        q = self.monomials.get(alpha)
        if q is None:
            return RADICAL_ZERO
        return q * _norm_ratio(self.anchor, alpha, self.space)

    def squared_norm(self) -> Fraction:
        """Exact Parseval sum: |q_tau|^2 ||z^tau||^2 / ||z^anchor||^2 over the
        monomials, read from the source records (``_source``): an image's
        raw sums are not canonicalized, and no square root is taken.

        Each ratio of norms is the product of the runs of
        ``_norm_ratio_runs(anchor, tau)``.  A component's run depends on
        tau_j alone and the weight runs (``_weight_runs``) on |tau| alone,
        so each is computed once per call, for the first monomial that has it.
        """
        sp = self.space
        anchor = self.anchor
        m = sp.m
        base_a = sp.n - 1 + sum(anchor)
        # per component: (anchor_j, {tau_j: run}), the run between anchor_j
        # and tau_j that the numerator (tau_j > anchor_j) or the denominator
        # takes; perm(s + c, c) is rising_product(s, c)
        columns = [(x, {}) for x in anchor]
        weights: Dict[int, Tuple[int, int]] = {}
        num, den = 0, 1
        for _, tau, base_b, a, b, d, radicand in self._source():
            t_num = (a * a + b * b) * radicand
            t_den = d * d
            for y, (x, runs) in zip(tau, columns):
                if y != x:
                    r = runs.get(y)
                    if r is None:
                        r = runs[y] = perm(max(x, y), abs(y - x))
                    if y > x:
                        t_num *= r
                    else:
                        t_den *= r
            if m:
                w = weights.get(base_b)
                if w is None:
                    (ns, nc), (ds, dc) = _weight_runs(base_a, base_b, m)
                    w = weights[base_b] = (perm(ns + nc, nc), perm(ds + dc, dc))
                t_num *= w[0]
                t_den *= w[1]
            if t_den == den:
                num += t_num
            else:
                g = gcd(den, t_den)
                num = num * (t_den // g) + t_num * (den // g)
                den = den // g * t_den
        return Fraction(num, den)

    def sorted_items(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BasisExpansion)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{tuple(a)}: {c}" for a, c in self.sorted_items())
        return f"BasisExpansion(n={self.space.n}, m={self.space.m}, {{{inner}}})"


def _expansion(
    space: SpaceParams,
    anchor: MultiIndex,
    monomials: Optional[Dict[MultiIndex, RadicalCoefficient]],
    sums: Optional[Dict[int, list]] = None,
) -> BasisExpansion:
    """The vector ``sum(monomials[tau] * z^tau) / ||z^anchor||`` (internal),
    or, with ``monomials`` None, the image of the raw ``sums`` of a basis
    action (``_add_image``), canonicalized when ``monomials`` is first read."""
    v = object.__new__(BasisExpansion)
    v.space = space
    v.anchor = anchor
    v._monomials = monomials
    v._sums = sums
    v._packed = None
    return v


# ---------------------------------------------------------------------------
# packed multi-indices

# Inside a basis action a multi-index tau of n components is one integer,
# its key ``sum tau_j << (64*j)``: a symbol term moves every index by one
# integer add, of its step key, and the sums are keyed by ints, which hash
# faster than tuples (packed exponent vectors, as in Monagan and Pearce,
# CASC 2007).  The kernel reads only components below
# INDEX_COMPONENT_BOUND, of a vector (``_source``) and of a symbol's
# exponents (``_action_terms``), and raises InputError for any other.  A
# target's components then lie in (-2**62, 2**63): no 64-bit field carries
# into the next, and a negative component sets bit 63 of its field (in
# the two's complement that Python's ``&`` reads).  The CLI's
# ``MAX_ALPHA_ORDER`` is far below the bound.
INDEX_COMPONENT_BOUND = 2**62
# per dimension n: the n fields as bytes, bit 63 of each field, and bits
# 62 and 63 of each field, where a component at or above the bound shows
_FIELDS = [Struct(f"<{n}Q") for n in range(MAX_DIMENSION + 1)]
_NEGATIVE = [sum(1 << (64 * j + 63) for j in range(n)) for n in range(MAX_DIMENSION + 1)]
_ABOVE_BOUND = [bits | bits >> 1 for bits in _NEGATIVE]


def _pack(n: int, components) -> int:
    """The packed key of n components, each below INDEX_COMPONENT_BOUND."""
    return int.from_bytes(_FIELDS[n].pack(*components), "little")


def _bound_error(components) -> InputError:
    return InputError(f"index component {max(components)} is not below INDEX_COMPONENT_BOUND = 2**62")


def _monomial_records(n: int, monomials: Dict[MultiIndex, RadicalCoefficient]) -> list:
    """The source records (see ``BasisExpansion._source``) of canonical ``monomials``."""
    pack = _FIELDS[n].pack
    records = []
    for tau, q in monomials.items():
        if max(tau) >= INDEX_COMPONENT_BOUND:
            raise _bound_error(tau)
        key = int.from_bytes(pack(*tau), "little")
        records.append((key, tau, n - 1 + sum(tau), q.re_num, q.im_num, q.den, q.radicand))
    return records


def _sum_records(n: int, sums: Dict[int, list]) -> list:
    """The source records of the nonzero raw ``sums`` of an image, each
    key decoded once."""
    unpack = _FIELDS[n].unpack
    width = 8 * n
    above = _ABOVE_BOUND[n]
    n1 = n - 1
    records = []
    for key, (re, im, den, radicand) in sums.items():
        if re or im:
            tau = unpack(key.to_bytes(width, "little"))
            if key & above:
                raise _bound_error(tau)
            records.append((key, tau, n1 + sum(tau), re, im, den, radicand))
    return records


def _canonical(n: int, sums: Dict[int, list]) -> Dict[MultiIndex, RadicalCoefficient]:
    """The canonical monomial coefficients of the raw ``sums`` of an image:
    each nonzero sum canonicalized once, under its decoded multi-index."""
    unpack = _FIELDS[n].unpack
    width = 8 * n
    return {
        _new_index(MultiIndex, unpack(key.to_bytes(width, "little"))): _radical(re, im, den, radicand)
        for key, (re, im, den, radicand) in sums.items()
        if re or im
    }


# A MultiIndex built without validation, from components known to be
# nonnegative integers.
_new_index = tuple.__new__


def toeplitz_apply(f: SymbolPolynomial, v: BasisExpansion) -> BasisExpansion:
    """Apply the multiplication-projection operator with symbol f to v.

    It acts on v's monomials and keeps v's anchor: a symbol term
    ``a z^beta conj(z)^gamma`` sends ``q z^alpha`` to ``q a r z^tau`` with
    ``tau = alpha + beta - gamma`` (nothing when a component of tau is
    negative) and the rational

        r = ||z^(alpha+beta)||^2 / ||z^tau||^2
          = prod_j (t_j+1)...(t_j+g_j) * (N+m+1)...(N+m+|gamma|) / ((N+1)...(N+|gamma|)),

    N = n-1+|tau|: runs of |gamma| factors, whatever m is.  ``_add_image``
    sums the contributions to each target as integer fields, and the
    image returned holds those raw sums, not canonicalized here: its
    ``monomials`` canonicalizes each target once, on the first read, while
    its ``squared_norm`` and the next basis action of a composition read
    the sums as they are.  They share their radicand when v's monomial
    coefficients do, as every vector built from a basis vector does
    (radicand 1).  A vector that mixes square classes can send two of
    them to one target, a sum no ``RadicalCoefficient`` holds: unlike
    radicands on a merge raise ``InputError``, naming both.  v's
    ``monomials`` dict is read, never changed.  Every index component of
    v and every exponent of f must lie below INDEX_COMPONENT_BOUND.
    """
    sums: Dict[int, list] = {}
    _add_image(sums, f, v.space, v._source(), 1)
    return _expansion(v.space, v.anchor, None, sums)


def _action_terms(f: SymbolPolynomial) -> tuple:
    """f's terms as ``_add_image`` walks them: ``(reach, rows)``, with a
    row ``(step, rises, |beta|, |gamma|, re, im, den)`` for each term
    ``(re + im*i)/den z^beta conj(z)^gamma``, in f's term order.

    ``step`` is the packed ``beta - gamma`` (see INDEX_COMPONENT_BOUND):
    a source's key plus the step is its target's.  ``rises`` holds
    ``(j, beta_j, gamma_j)`` for each j with gamma_j > 0, the run
    ``(tau_j+1)...(tau_j+gamma_j)`` = ``perm(alpha_j + beta_j, gamma_j)``;
    it is empty exactly when the term cannot send an index below zero.
    ``reach`` is the packed componentwise largest ``gamma_j - beta_j``
    (0 where none is positive): no term sends an alpha with
    ``alpha_j >= reach_j`` for every j to a negative target.

    Derived from ``f.terms`` on the first apply of f and kept on f
    (``SymbolPolynomial._action``), so a symbol applied to many vectors
    builds it once; it never changes f's value.
    """
    table = f._action
    if table is None:
        pack = _FIELDS[f.dimension].pack
        reach = [0] * f.dimension
        rows = []
        for (beta, gamma), a in f.terms.items():
            if max(beta) >= INDEX_COMPONENT_BOUND or max(gamma) >= INDEX_COMPONENT_BOUND:
                raise _bound_error((*beta, *gamma))
            rises = []
            for j, (b, g) in enumerate(zip(beta, gamma)):
                if g:
                    rises.append((j, b, g))
                    if g - b > reach[j]:
                        reach[j] = g - b
            step = int.from_bytes(pack(*beta), "little") - int.from_bytes(pack(*gamma), "little")
            rows.append((step, rises, sum(beta), sum(gamma), a.re_num, a.im_num, a.den))
        table = f._action = (int.from_bytes(pack(*reach), "little"), rows)
    return table


def _add_image(sums: Dict[int, list], f: SymbolPolynomial, sp: SpaceParams, source: list, sign: int) -> None:
    """Add ``sign * T_f`` of the vector of the source records ``source``
    (see ``BasisExpansion._source``) in ``sp`` into ``sums`` (see
    ``toeplitz_apply``), and read ``source`` only.

    ``sums`` maps each target tau's packed key (see INDEX_COMPONENT_BOUND)
    to the fields ``[re, im, den, radicand]`` of
    ``(re + im*i)/den * sqrt(radicand)``, summed but never canonicalized
    here: a target's key is its source's key plus the term's step.  A sum
    may reach zero; ``_sum_records`` and ``_canonical``, the two readers of
    ``sums``, skip it.  A target with a negative component is skipped: a
    source that reaches the symbol's ``reach`` in every component has no
    such target, and only a source that does not tests each term's
    target, by its fields' sign bits.
    """
    if sp.n != f.dimension:
        check_same_dimension(sp.n, f.dimension)
    m = sp.m
    negative = _NEGATIVE[sp.n]
    reach, terms = _action_terms(f)
    # perm(s + c, c) is rising_product(s, c), called directly in this loop
    for key, alpha, order, qr, qi, qd, radicand in source:
        if sign < 0:
            qr, qi = -qr, -qi
        short = (key - reach) & negative  # some alpha_j < reach_j
        for step, rises, order_b, order_g, ar, ai, ad in terms:
            tau = key + step
            den = qd * ad
            if rises:
                if short and tau & negative:
                    continue
                num = 1
                for j, b, g in rises:
                    num *= perm(alpha[j] + b, g)
                if m:
                    base = order + order_b
                    num *= perm(base + m, order_g)
                    den *= perm(base, order_g)
                re = (qr * ar - qi * ai) * num
                im = (qr * ai + qi * ar) * num
            else:
                re = qr * ar - qi * ai
                im = qr * ai + qi * ar
            acc = sums.get(tau)
            if acc is None or not (acc[0] or acc[1]):
                sums[tau] = [re, im, den, radicand]
            elif acc[3] != radicand:
                raise InputError(
                    f"cannot add unlike radicands {acc[3]} and {radicand}: the vector "
                    "mixes square classes whose images meet"
                )
            elif acc[2] == den:
                acc[0] += re
                acc[1] += im
            else:
                g = gcd(acc[2], den)
                x, y = den // g, acc[2] // g
                acc[0] = acc[0] * x + re * y
                acc[1] = acc[1] * x + im * y
                acc[2] *= x


def hankel_product_apply(
    f: SymbolPolynomial,
    g: SymbolPolynomial,
    v: BasisExpansion,
    *,
    f_conj: Optional[SymbolPolynomial] = None,
    f_conj_g: Optional[SymbolPolynomial] = None,
) -> BasisExpansion:
    """Exact H*_f H_g via T_{conj(f) g} - T_{conj(f)} T_g; valid for every v.

    ``f_conj`` = conj(f) and ``f_conj_g`` = conj(f) * g are built here
    unless the caller built them already (``HankelProductOp`` does, once,
    from the non-holomorphic parts of f and g, which give the same
    product; the closed-form sweep builds conj(f) once per gamma, and
    conj(f) * g once per exponent sum).  The image ``T_g v`` is left as
    ``_add_image``'s summed integer fields, which the ``conj(f)`` stage
    reads as they are (zero sums skipped), never canonicalized.
    Both stages keep v's anchor, so the contributions of ``T_{conj(f) g} v``
    and then of ``-T_{conj(f)} T_g v`` are summed into one set of targets.
    The image returned holds those raw sums, as ``toeplitz_apply``'s does:
    each target is canonicalized once, when the image's ``monomials`` is
    first read, and its ``squared_norm`` canonicalizes none.  The
    closed-form sweep (``verify._sweep_block``) reads the raw sums too,
    under its targets' packed keys, and reads ``monomials`` only for a
    case or a tuple it reports.  v's ``monomials`` dict is read, never
    changed.
    """
    if f_conj is None:
        f_conj = f.conjugate()
    if f_conj_g is None:
        f_conj_g = f_conj * g
    sp = v.space
    source = v._source()
    inner: Dict[int, list] = {}
    _add_image(inner, g, sp, source, 1)
    sums: Dict[int, list] = {}
    _add_image(sums, f_conj_g, sp, source, 1)
    _add_image(sums, f_conj, sp, _sum_records(sp.n, inner), -1)
    return _expansion(sp, v.anchor, None, sums)


def closed_form_min_alpha(beta, gamma, mu, nu) -> "list[int]":
    """Componentwise least alpha of the closed form's validity range,
    alpha_j >= |gamma_j - beta_j| + |mu_j - nu_j|."""
    return [abs(g_ - b) + abs(u - w) for b, g_, u, w in zip(beta, gamma, mu, nu)]


def hankel_coeff_closed_form(
    beta: MultiIndex,
    gamma: MultiIndex,
    mu: MultiIndex,
    nu: MultiIndex,
    alpha: MultiIndex,
    sp: SpaceParams,
) -> Tuple[MultiIndex, RadicalCoefficient]:
    """Closed form of H*_f H_g e_alpha for monomial symbols: ``(target, coefficient)``.

    Here f = z^beta conj(z)^gamma, g = z^mu conj(z)^nu, and the image is
    the coefficient times e_target, target = alpha+gamma+mu-beta-nu: the
    rational of ``_closed_form_monomial_coeffs`` times
    ``||z^target||/||z^alpha||``, one square root.  alpha must lie in that
    walk's validity range; hankel_product_apply has no restriction.
    """
    ((tau, num, den),) = _closed_form_monomial_coeffs(beta, gamma, mu, nu, (alpha,), sp)
    return tau, _norm_ratio(alpha, tau, sp).scale_ratio(num, den)


def _closed_form_monomial_coeffs(
    beta: MultiIndex,
    gamma: MultiIndex,
    mu: MultiIndex,
    nu: MultiIndex,
    alphas,
    sp: SpaceParams,
    memo: Optional[dict] = None,
) -> "list[tuple[MultiIndex, int, int]]":
    """Closed form of ``H*_f H_g z^alpha``, f = z^beta conj(z)^gamma and
    g = z^mu conj(z)^nu, for many alphas: ``(tau, num, den)`` for each alpha
    of ``alphas``, in order, with ``H*_f H_g z^alpha = (num/den) z^tau``,
    tau = alpha+gamma+mu-beta-nu and ``den > 0``; no square root is taken.

    Every alpha must satisfy alpha >= closed_form_min_alpha(beta, gamma, mu,
    nu) componentwise (hankel_product_apply has no restriction).  With
    ``w(k) = (n+k)...(n-1+k+m)`` and a, g, u, v the components of alpha,
    gamma, mu, nu, the routes T_{conj(f) g} and T_{conj(f)} T_g give

        num/den = (P1 w(|a+g+u|) w(|a+u-v|) - P2 w(|a+u|) w(|a+g+u-v|))
                  * alpha!/tau! / (w(|a+u-v|) w(|tau|)),
        P1 = prod_j (a_j+1)...(a_j+g_j+u_j),
        P2 = prod_j (a_j+1)...(a_j+u_j) * (a_j+u_j-v_j+1)...(a_j+u_j-v_j+g_j).

    Each component's factors (``alpha!/tau!`` as one run per component) and
    each order's weight runs are computed once, for the first alpha that
    has them.  ``memo``, when given, keeps them for later calls too (the
    closed-form sweep passes one dict per block): a component's factors
    under ``(beta_j, gamma_j, mu_j, nu_j)`` and then alpha_j, and an order's
    weight runs under ``(n, m)`` with the shifts below and then |alpha|.
    Each key determines its value, and a component's least alpha_j follows
    from its key, so a memo hit is only possible for an alpha_j that passed
    the validity check before.
    """
    n, m = sp.n, sp.m
    if not (len(beta) == len(gamma) == len(mu) == len(nu) == n):
        check_same_dimension(n, len(beta), len(gamma), len(mu), len(nu))
    if memo is None:
        memo = {}
    step = tuple(g_ + u - b - w for b, g_, u, w in zip(beta, gamma, mu, nu))
    # per component: (gamma_j + mu_j, gamma_j, mu_j, nu_j, step_j, least
    # alpha_j, {alpha_j: factors}); perm(a + c, c) is rising_product(a, c),
    # called directly in this loop
    columns = []
    for b, g_, u, w, s, k in zip(beta, gamma, mu, nu, step, closed_form_min_alpha(beta, gamma, mu, nu)):
        seen = memo.get((b, g_, u, w))
        if seen is None:
            seen = memo[(b, g_, u, w)] = {}
        columns.append((g_ + u, g_, u, w, s, k, seen))
    # |alpha| + these is the order of alpha+gamma+mu, alpha+mu, alpha+mu-nu,
    # alpha+gamma+mu-nu and tau
    order_g, order_m, order_n = sum(gamma), sum(mu), sum(nu)
    shifts = (order_g + order_m, order_m, order_m - order_n, order_g + order_m - order_n, sum(step))
    weights = memo.get((n, m, *shifts))
    if weights is None:
        weights = memo[(n, m, *shifts)] = {}
    out = []
    for alpha in alphas:
        if len(alpha) != n:
            check_same_dimension(n, len(alpha))
        p1 = p2 = d = 1
        for a, (gu, g_, u, w, s, k, seen) in zip(alpha, columns):
            factors = seen.get(a)
            if factors is None:
                if a < k:
                    raise InputError(
                        "alpha outside the closed form's validity range; "
                        "use the composition path"
                    )
                t1 = perm(a + gu, gu)
                t2 = perm(a + u, u) * perm(a + gu - w, g_)
                if s < 0:  # alpha_j!/tau_j! = (tau_j+1)...(alpha_j)
                    r = perm(a, -s)
                    factors = seen[a] = (t1 * r, t2 * r, 1)
                else:
                    factors = seen[a] = (t1, t2, perm(a + s, s))
            p1 *= factors[0]
            p2 *= factors[1]
            d *= factors[2]
        tau = _new_index(MultiIndex, map(add, alpha, step))
        if m:
            order = sum(alpha)
            runs = weights.get(order)
            if runs is None:
                gm, am, amn, agmn, t = (n - 1 + order + x + m for x in shifts)
                w_amn = perm(amn, m)
                runs = weights[order] = (
                    perm(gm, m) * w_amn,
                    perm(am, m) * perm(agmn, m),
                    w_amn * perm(t, m),
                )
            out.append((tau, p1 * runs[0] - p2 * runs[1], d * runs[2]))
        else:
            out.append((tau, p1 - p2, d))
    return out


# ---------------------------------------------------------------------------
# operator expressions


class OperatorExpr:
    """Abstract operator expression; evaluated by apply_operator."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ToeplitzOp(OperatorExpr):
    symbol: SymbolPolynomial

    @property
    def dimension(self) -> int:
        return self.symbol.dimension


@dataclass(frozen=True)
class HankelProductOp(OperatorExpr):
    """H*_left H_right for two polynomial symbols.

    ``H_h = 0`` for a holomorphic h, so the product depends only on the
    symbols' non-holomorphic parts, the terms with a ``conj`` (see
    ``SymbolPolynomial.holomorphic_split``): with f and g those parts of
    ``left`` and ``right``, ``H*_left H_right = T_{conj(f) g} - T_{conj(f)} T_g``.
    ``left_conj`` = conj(f), ``left_conj_right`` = conj(f) * g and
    ``right_nh`` = g are built once, here, for every vector
    ``apply_operator`` applies the operator to.  ``left`` and ``right``
    stay whole: the validity base reads them, and the closed-form sweep
    runs ``hankel_product_apply`` on whole symbols.
    """

    left: SymbolPolynomial
    right: SymbolPolynomial
    left_conj: SymbolPolynomial = field(init=False, repr=False, compare=False)
    left_conj_right: SymbolPolynomial = field(init=False, repr=False, compare=False)
    right_nh: SymbolPolynomial = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_same_dimension(self.left.dimension, self.right.dimension)
        fbar = self.left.holomorphic_split()[1].conjugate()
        g = self.right.holomorphic_split()[1]
        object.__setattr__(self, "left_conj", fbar)
        object.__setattr__(self, "left_conj_right", fbar * g)
        object.__setattr__(self, "right_nh", g)

    @property
    def dimension(self) -> int:
        return self.left.dimension


@dataclass(frozen=True)
class Composition(OperatorExpr):
    """Composition outer o inner: applies ``inner`` first."""

    outer: OperatorExpr
    inner: OperatorExpr

    def __post_init__(self):
        check_same_dimension(self.outer.dimension, self.inner.dimension)

    @property
    def dimension(self) -> int:
        return self.outer.dimension


def apply_operator(expr: OperatorExpr, v: BasisExpansion) -> BasisExpansion:
    if isinstance(expr, ToeplitzOp):
        return toeplitz_apply(expr.symbol, v)
    if isinstance(expr, HankelProductOp):
        return hankel_product_apply(
            expr.left, expr.right_nh, v, f_conj=expr.left_conj, f_conj_g=expr.left_conj_right
        )
    if isinstance(expr, Composition):
        return apply_operator(expr.outer, apply_operator(expr.inner, v))
    raise InputError(f"unknown operator expression: {expr!r}")


# ---------------------------------------------------------------------------
# operator productions of the grammar in symbols.py: T(<symbol>),
# HP(<symbol>; <symbol>), '*' composition


# Bound on the factors of one '*' composition, checked at the '*' that would
# add one more.  The composition nests one ``Composition`` per factor:
# ``Composition.dimension``, ``apply_operator`` and ``analysis.default_base``
# recurse one frame per level, and pickling it for a ``--jobs`` fan-out
# about three.  The longest composition allowed runs, fan-out included,
# under half of Python's default limit of 1000 frames inside a test runner.
MAX_OPERATOR_FACTORS = 100


class _OperatorParser(_Parser):
    def parse(self) -> OperatorExpr:
        expr = self.parse_atom()
        factors = 1
        while self.peek().kind != _T_END:
            star = self.expect_op("*")
            if factors == MAX_OPERATOR_FACTORS:
                message = f"more than MAX_OPERATOR_FACTORS = {MAX_OPERATOR_FACTORS} composed factors"
                raise SymbolSyntaxError(message, self.text, star.pos)
            expr = Composition(expr, self.parse_atom())
            factors += 1
        return expr

    def parse_atom(self) -> OperatorExpr:
        tok = self.next()
        if tok.kind != _T_OPERATOR:
            raise SymbolSyntaxError("expected T(...) or HP(...; ...)", self.text, tok.pos)
        self.expect_op("(")
        left = self.parse_expr()
        if tok.value == "HP":
            semicolon = self.expect_op(";")
            right = self.parse_expr()
            self.check_product(len(left.terms), len(right.terms), semicolon)  # HP(f; g) applies T_{conj(f) g}
            self.expect_op(")")
            return HankelProductOp(left, right)
        self.expect_op(")")
        return ToeplitzOp(left)


def parse_operator(text: str, dimension: int) -> OperatorExpr:
    """Parse an operator expression; '*' composes, the right factor applies first."""
    return _OperatorParser(text, dimension).parse()
