"""Monomials, binomials and degrevlex-style orderings in X1..X4.

Monomials are fixed-length tuples of nonnegative integer exponents, one entry
per variable.  A `Polynomial` is zero, a signed monomial ±x^a, or a binomial
±(x^lead - x^tail) with integer coefficients ±1: the only shapes a toric
standard-basis computation produces, since the s-polynomial and the
reduction step of two such polynomials are again one of them.  So a
polynomial is stored as those parts, with the ordering that decided which
monomial leads.  Hashing, equality and `render_poly` read `coeff`, `lead` and
`tail` directly; `terms`, leading term first, is a view built only when a
caller asks for it.

`Polynomial(terms, order)` validates outside input: parsed text, `monomial`
and `binomial`.  The engine's own results (`spoly`, `reduce_step`, negation
and so `normalize`, `with_order`) are ±(x^a - x^b) by construction: their
two monomials can only cancel, never need collecting, so they are built by
`_pair` straight from the operands' parts.  The constructor ends in `_pair`
too, whose one `MonomialOrder.greater` call decides the lead.

Each fact the engine uses has one function: `MonomialOrder.greater`
compares two monomials (`sort_key` is the same order as a sort key),
`weighted_degree` grades a monomial, `support` is the set of variables a
monomial contains, and `Polynomial.is_homogeneous` tests a polynomial
against a grading.  A polynomial's `coeff`, `lead` and `tail` are read as
fields.  A polynomial carries no ecart; only the order of the engine's
reducer list uses one (see `stdbasis`).

The engine's exponent arithmetic is written out four entries wide: total
degree is ``a[0] + a[1] + a[2] + a[3]``, divisibility is four ``<=``
comparisons, and the lcm, shift and clamped difference of `spoly`,
`reduce_step` and `hilbert.monomial_colon` build their four entries one by
one.  Two monomials are coprime exactly when their `support` masks share
no bit.

Two ordering kinds are provided:

* global degrevlex: higher total degree wins, so 1 is the smallest monomial;
* local degrevlex: lower total degree wins, so 1 is the largest monomial.
  This is the ordering tangent-cone computations run under.

Degree ties are broken reverse-lexicographically against a variable
precedence list, X1 > X2 > X3 > X4 by default.

Every monomial has exactly four exponents: `MonomialOrder` takes only a
permutation of the four variables as its precedence, and the validating
constructor and `minimalize_monomials` reject any other exponent length, so
the engine, which builds its results from its operands' parts, never has to
check a length again, and no scan has a branch for another length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, NamedTuple, Sequence

Exponent = tuple[int, ...]

VAR_NAMES = ("X1", "X2", "X3", "X4")
N_VARS = len(VAR_NAMES)
STANDARD_GRADING = (1,) * N_VARS


class DimensionError(ValueError):
    """An exponent tuple does not have four entries."""


@dataclass(frozen=True)
class MonomialOrder:
    """Degree-reverse-lexicographic comparator, global or local.

    `precedence` lists the four variable indices from most to least
    significant, each once; anything else raises `ValueError`, since a
    repeated or missing index leaves some pairs of monomials unordered.
    The comparator is total and multiplicative: a > b implies a+q > b+q.
    """

    local: bool
    precedence: tuple[int, ...] = (0, 1, 2, 3)
    # The precedence from least to most significant, the order ties are scanned in.
    _least_first: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.precedence) != list(range(N_VARS)):
            raise ValueError(
                f"precedence must be a permutation of 0..{N_VARS - 1}, got {self.precedence!r}"
            )
        object.__setattr__(self, "_least_first", self.precedence[::-1])

    def sort_key(self, m: Exponent):
        deg = m[0] + m[1] + m[2] + m[3]
        # Reverse-lex: at the least significant differing variable, the
        # smaller exponent wins; encode as negated exponents scanned from
        # least to most significant.
        tail = tuple(-m[i] for i in self._least_first)
        return (-deg if self.local else deg, *tail)

    def greater(self, a: Exponent, b: Exponent) -> bool:
        """True iff x^a > x^b.

        The same rule as `sort_key`, decided by one total-degree comparison
        and, on a tie, a scan from the least significant variable.
        """
        deg_a = a[0] + a[1] + a[2] + a[3]
        deg_b = b[0] + b[1] + b[2] + b[3]
        if deg_a != deg_b:
            return deg_a < deg_b if self.local else deg_a > deg_b
        for i in self._least_first:
            if a[i] != b[i]:
                return a[i] < b[i]
        return False


LOCAL = MonomialOrder(local=True)
GLOBAL = MonomialOrder(local=False)


def weighted_degree(m: Exponent, weights: Sequence[int]) -> int:
    """Degree of x^m under the grading Xi -> weights[i]."""
    return sum(map(mul, m, weights))


def support(m: Exponent) -> int:
    """The variables of x^m as a 4-bit mask: bit i is set iff X(i+1) divides x^m."""
    return (m[0] > 0) | (m[1] > 0) << 1 | (m[2] > 0) << 2 | (m[3] > 0) << 3


def minimalize_monomials(monos: Iterable[Exponent]) -> list[Exponent]:
    """Minimal generating set of the monomial ideal spanned by `monos`.

    Drops duplicates and any monomial divisible by another generator.  The
    result is sorted by (total degree, exponent tuple) for determinism.  An
    exponent tuple whose length is not four raises `DimensionError`; checked
    once, that lets the scan compare the four exponents with no length check.
    """
    pool = set(monos)
    lengths = set(map(len, pool)) - {N_VARS}
    if lengths:
        raise DimensionError(f"exponent lengths {sorted(lengths)}, not {N_VARS}")
    kept: list[Exponent] = []
    for m in sorted(pool, key=lambda m: (m[0] + m[1] + m[2] + m[3], m)):
        m0, m1, m2, m3 = m
        for g in kept:
            if g[0] <= m0 and g[1] <= m1 and g[2] <= m2 and g[3] <= m3:
                break
        else:
            kept.append(m)
    return kept


class Term(NamedTuple):
    coeff: int
    mono: Exponent


class Polynomial:
    """coeff * (x^lead - x^tail) with coeff ±1; `lead` is None for zero, `tail` for a monomial.

    The constructor is the validating entry for outside input.  An exponent
    tuple whose length is not four raises `DimensionError`.  Like terms
    are collected first; anything else that remains (three or more terms, a
    coefficient other than ±1, two terms of the same sign) raises
    `ValueError`; what passes takes its fields from `_pair`.  The engine's
    own results (`spoly`, `reduce_step`, negation, `with_order`) skip the
    checks and come straight from `_pair`.  Equality and
    hashing look only at the signed term set, read from the parts, so two
    polynomials with the same terms compare equal, and hash alike, even if
    tagged with different orderings.
    """

    __slots__ = ("coeff", "lead", "tail", "order")

    def __init__(self, terms: Iterable[tuple], order: MonomialOrder):
        acc: dict[Exponent, int] = {}
        for coeff, mono in terms:
            if len(mono) != N_VARS:
                raise DimensionError(f"exponent length {len(mono)}, not {N_VARS}: {mono}")
            acc[mono] = acc.get(mono, 0) + coeff
        kept = [(c, m) for m, c in acc.items() if c]
        # At most one term of each sign survives here, and only as ±1.
        signed = {c: m for c, m in kept if c in (1, -1)}
        if len(signed) != len(kept):
            raise ValueError(f"not zero, a monomial or a ±1 binomial: {kept}")
        f = _pair(1, signed.get(1), signed.get(-1), order)
        self.coeff, self.lead, self.tail, self.order = f.coeff, f.lead, f.tail, order

    @property
    def terms(self) -> tuple[Term, ...]:
        """The nonzero terms, leading term first."""
        if self.lead is None:
            return ()
        if self.tail is None:
            return (Term(self.coeff, self.lead),)
        return (Term(self.coeff, self.lead), Term(-self.coeff, self.tail))

    @property
    def is_zero(self) -> bool:
        return self.lead is None

    @property
    def lm(self) -> Exponent:
        """The leading monomial, fixed at construction."""
        if self.lead is None:
            raise ValueError("zero polynomial has no leading monomial")
        return self.lead

    def is_homogeneous(self, weights: Sequence[int] = STANDARD_GRADING) -> bool:
        """True for zero, a monomial, and a binomial whose two terms have one degree under `weights`."""
        return self.tail is None or weighted_degree(self.lead, weights) == weighted_degree(self.tail, weights)

    def __neg__(self) -> "Polynomial":
        return _pair(-self.coeff, self.lead, self.tail, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        # One term set: the same parts, or lead and tail swapped by another ordering.
        parts, o = (self.coeff, self.lead, self.tail), other
        return parts == (o.coeff, o.lead, o.tail) or parts == (-o.coeff, o.tail, o.lead)

    def __hash__(self) -> int:
        # The parts read with the larger exponent tuple first, so that the two
        # spellings `__eq__` accepts, (c, a, b) and (-c, b, a), hash alike.
        tail = self.tail
        if tail is not None and tail > self.lead:
            return hash((-self.coeff, tail, self.lead))
        return hash((self.coeff, self.lead, tail))

    def __repr__(self) -> str:
        return render_poly(self)


def zero(order: MonomialOrder = LOCAL) -> Polynomial:
    return Polynomial([], order)


def monomial(m: Exponent, order: MonomialOrder = LOCAL) -> Polynomial:
    return Polynomial([(1, m)], order)


def binomial(plus: Exponent, minus: Exponent, order: MonomialOrder = LOCAL) -> Polynomial:
    """The difference of two monomials, plus - minus."""
    return Polynomial([(1, plus), (-1, minus)], order)


def with_order(f: Polynomial, order: MonomialOrder) -> Polynomial:
    """Same polynomial with its two monomials compared under a different ordering."""
    return _pair(f.coeff, f.lead, f.tail, order)


def normalize(f: Polynomial) -> Polynomial:
    """Flip the overall sign so the leading coefficient is +1."""
    if f.is_zero or f.coeff > 0:
        return f
    return -f


def _pair(coeff: int, plus: Exponent | None, minus: Exponent | None,
          order: MonomialOrder) -> Polynomial:
    """coeff * (x^plus - x^minus) without the constructor's checks; None is an absent term.

    coeff is ±1, and equal monomials cancel to zero.  One `greater` call
    decides the lead.
    """
    f = object.__new__(Polynomial)
    f.order = order
    if plus == minus:
        f.coeff, f.lead, f.tail = 1, None, None
    elif minus is None:
        f.coeff, f.lead, f.tail = coeff, plus, None
    elif plus is None:
        f.coeff, f.lead, f.tail = -coeff, minus, None
    elif order.greater(minus, plus):
        f.coeff, f.lead, f.tail = -coeff, minus, plus
    else:
        f.coeff, f.lead, f.tail = coeff, plus, minus
    return f


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm-cancellation of the leading terms of f and g.

    For f = lc(f)*(x^a - x^b), g = lc(g)*(x^c - x^d) and L = lcm(a, c) this
    is x^(d+L-c) - x^(b+L-a), less the tail term of a monomial operand.
    """
    a, b, c, d = f.lead, f.tail, g.lead, g.tail
    if a is None or c is None:
        raise ValueError("spoly of the zero polynomial is undefined")
    if f.order is not g.order and f.order != g.order:
        raise ValueError("operands use different monomial orderings")
    a0, a1, a2, a3 = a
    c0, c1, c2, c3 = c
    l0, l1, l2, l3 = (a0 if a0 > c0 else c0, a1 if a1 > c1 else c1,
                      a2 if a2 > c2 else c2, a3 if a3 > c3 else c3)
    return _pair(
        1,
        None if d is None else (d[0] + l0 - c0, d[1] + l1 - c1, d[2] + l2 - c2, d[3] + l3 - c3),
        None if b is None else (b[0] + l0 - a0, b[1] + l1 - a1, b[2] + l2 - a2, b[3] + l3 - a3),
        f.order,
    )


def reduce_step(h: Polynomial, g: Polynomial) -> Polynomial:
    """One cancellation of the leading term of h by a multiple of g.

    For h = lc(h)*(x^a - x^b) and the tail x^d of g, what is left is
    lc(h)*(x^(d + a - LM(g)) - x^b); a term is absent where h or g is a
    monomial.
    """
    a, lead = h.lm, g.lm
    s0, s1, s2, s3 = a[0] - lead[0], a[1] - lead[1], a[2] - lead[2], a[3] - lead[3]
    if s0 < 0 or s1 < 0 or s2 < 0 or s3 < 0:
        raise ValueError(f"{lead} does not divide {a}")
    d = g.tail
    return _pair(h.coeff, None if d is None else (d[0] + s0, d[1] + s1, d[2] + s2, d[3] + s3),
                 h.tail, h.order)


def _render_mono(m: Exponent) -> str:
    """x^m as ``X1^16*X3``; ``1`` for the unit monomial."""
    e0, e1, e2, e3 = m
    factors = []
    if e0:
        factors.append("X1" if e0 == 1 else f"X1^{e0}")
    if e1:
        factors.append("X2" if e1 == 1 else f"X2^{e1}")
    if e2:
        factors.append("X3" if e2 == 1 else f"X3^{e2}")
    if e3:
        factors.append("X4" if e3 == 1 else f"X4^{e3}")
    return "*".join(factors) or "1"


def render_poly(f: Polynomial) -> str:
    """Plain-text form like ``X1^16-X3*X4`` (terms in the polynomial's order)."""
    if f.lead is None:
        return "0"
    lead = _render_mono(f.lead)
    if f.tail is None:
        return lead if f.coeff > 0 else "-" + lead
    tail = _render_mono(f.tail)
    return f"{lead}-{tail}" if f.coeff > 0 else f"-{lead}+{tail}"


_INT_RE = re.compile(r"-?\d+$")


def scan_terms(text: str, names: Sequence[str]) -> list[tuple[int, Exponent]]:
    """The signed terms of text like ``2*X1^3+X2-5``, as (coefficient, exponents).

    A term is a product of integers and variables from `names`, each variable
    with an optional ``^`` exponent; like terms are not collected.  The text
    must be signed terms and nothing else: a doubled or trailing sign, or a
    caret without an exponent, raises `ValueError`.
    """
    s = text.replace(" ", "")
    index = {name: i for i, name in enumerate(names)}
    terms: list[tuple[int, Exponent]] = []
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"stray sign in {text!r}")
    for chunk in chunks:
        coeff = -1 if chunk.startswith("-") else 1
        expo = [0] * len(names)
        for factor in chunk.lstrip("+-").split("*"):
            if _INT_RE.match(factor):
                coeff *= int(factor)
                continue
            name, caret, power = factor.partition("^")
            if name not in index or (caret and not _INT_RE.match(power)):
                raise ValueError(f"unknown factor {factor!r} in {text!r}")
            expo[index[name]] += int(power) if caret else 1
        terms.append((coeff, tuple(expo)))
    return terms


def parse_poly(text: str, order: MonomialOrder = LOCAL) -> Polynomial:
    """Parse the plain-text form produced by `render_poly` (see `scan_terms`).

    Text that is not zero, a monomial or a ±1 binomial raises `ValueError`.
    """
    return Polynomial(scan_terms(text, VAR_NAMES), order)
