"""Monomials, binomials and local degrevlex orderings in X1..X4.

Monomials are fixed-length tuples of nonnegative integer exponents, one entry
per variable.  A `Polynomial` is zero, a monomial x^a, or a binomial
x^lead - x^tail: up to sign, the only shapes a toric standard-basis
computation produces, since the s-polynomial and the reduction step of two
such polynomials are again one of them.  No decision of the engine reads a
sign (an ideal, a lead and a zero test are the same for f and -f), so none
is stored: a polynomial is its two parts, `lead` and `tail`, read with
leading coefficient +1.  Hashing, equality and `render_poly` read the two
parts directly.

Which monomial leads is the choice of an ordering, and a polynomial does
not keep one.  `Polynomial(terms, order)`, `parse_poly` and `binomial`
decide the lead under the order they are given; the engine takes one order
per computation, re-decides each input's lead under it (see `stdbasis`),
and passes its `MonomialOrder.greater` down to `spoly` and `reduce_step`.

`Polynomial(terms, order)` validates outside input: parsed text, `monomial`
and `binomial`.  The engine's own results (`spoly`, the normal forms of
`stdbasis.nf_mora`, the tangent cones of `stdbasis` and `cm`) and the
curve's binomials (`toric.toric_generators`) are ±(x^a - x^b) by
construction: their two monomials can only cancel, never need collecting,
so they are built by `_pair` straight from parts that `_lead_first` has
put in order.  The constructor uses `_lead_first` too, whose one
`MonomialOrder.greater` call decides the lead.

`reduce_step` is the one reduction step.  It takes and returns the parts
of the remainder, its lead and tail, so `stdbasis.nf_mora` takes every
step through it and builds one polynomial per normal form.

Each fact the engine uses has one function: `MonomialOrder.greater`
compares two monomials (a sort by the order wraps it in
`functools.cmp_to_key`, see `stdbasis.minimalize`), `weighted_degree`
grades a monomial, `support` is the set of variables a monomial contains,
and `Polynomial.is_homogeneous` tests a polynomial against a grading.  A
polynomial carries no ecart; only the order of the engine's reducer list
uses one (see `stdbasis`).

The engine's exponent arithmetic is written out four entries wide: total
degree is ``a[0] + a[1] + a[2] + a[3]``, divisibility is four ``<=``
comparisons, and the lcm, shift and clamped difference of `spoly`,
`reduce_step` and `hilbert.monomial_colon` build their four entries one by
one.  Two monomials are coprime exactly when their `support` masks share no
bit.

Every ordering is local degrevlex: lower total degree wins, so 1 is the
largest monomial.  This is the ordering tangent-cone computations run
under.  Degree ties are broken reverse-lexicographically against a variable
precedence list, X1 > X2 > X3 > X4 by default.  On two monomials of one
total degree, as in a homogeneous ideal like the tangent cone `cm` works
on, only the tie-break decides, so a local ordering compares them as the
global one with the same precedence would.

Every monomial has exactly four exponents: `MonomialOrder` takes only a
permutation of the four variables as its precedence, and the validating
constructor and `minimalize_monomials` reject any other exponent length, so
the engine, which builds its results from its operands' parts, never has to
check a length again, and no scan has a branch for another length.
"""

from __future__ import annotations

import re
from operator import mul
from typing import Iterable, Sequence

from .errors import Record

Exponent = tuple[int, ...]

VAR_NAMES = ("X1", "X2", "X3", "X4")
N_VARS = len(VAR_NAMES)
STANDARD_GRADING = (1,) * N_VARS


class DimensionError(ValueError):
    """An exponent tuple does not have four entries."""


class MonomialOrder(Record):
    """Local degree-reverse-lexicographic comparator.

    `precedence` lists the four variable indices from most to least
    significant, each once; anything else raises `ValueError`, since a
    repeated or missing index leaves some pairs of monomials unordered.
    The comparator is total and multiplicative: a > b implies a+q > b+q.
    """

    _fields = ("precedence",)
    # `_least_first` is derived from `precedence`, so eq, hash and repr skip it.
    __slots__ = ("precedence", "_least_first")

    def __init__(self, precedence: tuple[int, ...] = (0, 1, 2, 3)):
        if sorted(precedence) != list(range(N_VARS)):
            raise ValueError(
                f"precedence must be a permutation of 0..{N_VARS - 1}, got {precedence!r}"
            )
        object.__setattr__(self, "precedence", precedence)
        # The precedence from least to most significant, the order ties are scanned in.
        object.__setattr__(self, "_least_first", precedence[::-1])

    def greater(self, a: Exponent, b: Exponent) -> bool:
        """True iff x^a > x^b.

        Decided by one total-degree comparison, where the lower degree wins,
        and, on a tie, a scan from the least significant variable: at the
        first one where a and b differ, the smaller exponent wins.
        """
        deg_a = a[0] + a[1] + a[2] + a[3]
        deg_b = b[0] + b[1] + b[2] + b[3]
        if deg_a != deg_b:
            return deg_a < deg_b
        for i in self._least_first:
            if a[i] != b[i]:
                return a[i] < b[i]
        return False


LOCAL = MonomialOrder()


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


class Polynomial:
    """x^lead - x^tail, leading term first; `lead` is None for zero, `tail` for a monomial.

    The constructor is the validating entry for outside input.  An exponent
    tuple whose length is not four raises `DimensionError`.  Like terms
    are collected first; anything else that remains (three or more terms, a
    coefficient other than ±1, two terms of the same sign) raises
    `ValueError`.  What passes is stored with its lead, decided under
    `order`, first, and so with leading coefficient +1 whatever its sign
    was.  The engine's own results (`spoly`, normal forms, lowest forms and
    the curve's binomials) skip the checks and come straight from `_pair`.
    Equality and hashing look only at the two parts, so two polynomials are
    equal exactly when they have the same two terms.
    """

    __slots__ = ("lead", "tail")

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
        self.lead, self.tail = _lead_first(signed.get(1), signed.get(-1), order.greater)

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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.lead == other.lead and self.tail == other.tail

    def __hash__(self) -> int:
        return hash((self.lead, self.tail))

    def __repr__(self) -> str:
        return render_poly(self)


def zero() -> Polynomial:
    return Polynomial([], LOCAL)


def monomial(m: Exponent) -> Polynomial:
    return Polynomial([(1, m)], LOCAL)


def binomial(plus: Exponent, minus: Exponent, order: MonomialOrder = LOCAL) -> Polynomial:
    """The difference of two monomials, plus - minus, stored with its lead under `order` first."""
    return Polynomial([(1, plus), (-1, minus)], order)


def _lead_first(a: Exponent | None, b: Exponent | None, greater) -> tuple[Exponent | None, Exponent | None]:
    """The parts (lead, tail) of ±(x^a - x^b); None is an absent term.

    Equal monomials cancel to zero, (None, None).  One `greater` call, the
    order's comparison, decides the lead of a binomial.
    """
    if a == b:
        return None, None
    if a is None or (b is not None and greater(b, a)):
        return b, a
    return a, b


def _pair(lead: Exponent | None, tail: Exponent | None) -> Polynomial:
    """x^lead - x^tail from parts already in order, without the constructor's checks."""
    f = object.__new__(Polynomial)
    f.lead, f.tail = lead, tail
    return f


def spoly(f: Polynomial, g: Polynomial, greater) -> Polynomial:
    """lcm-cancellation of the leading terms of f and g, its lead decided by `greater`.

    For f = x^a - x^b, g = x^c - x^d and L = lcm(a, c) this is
    ±(x^(d+L-c) - x^(b+L-a)), less the tail term of a monomial operand.
    f and g must lead under the order of `greater`.
    """
    a, b, c, d = f.lead, f.tail, g.lead, g.tail
    if a is None or c is None:
        raise ValueError("spoly of the zero polynomial is undefined")
    a0, a1, a2, a3 = a
    c0, c1, c2, c3 = c
    l0, l1, l2, l3 = (a0 if a0 > c0 else c0, a1 if a1 > c1 else c1,
                      a2 if a2 > c2 else c2, a3 if a3 > c3 else c3)
    return _pair(*_lead_first(
        None if d is None else (d[0] + l0 - c0, d[1] + l1 - c1, d[2] + l2 - c2, d[3] + l3 - c3),
        None if b is None else (b[0] + l0 - a0, b[1] + l1 - a1, b[2] + l2 - a2, b[3] + l3 - a3),
        greater,
    ))


def reduce_step(lead: Exponent | None, tail: Exponent | None, g: Polynomial,
                greater) -> tuple[Exponent | None, Exponent | None]:
    """One cancellation of the leading term of h = x^lead - x^tail by a multiple of g.

    Works on parts and returns parts: for the tail x^d of g, what is left
    is ±(x^(d + lead - LM(g)) - x^tail), with `greater`, the order's
    comparison, deciding its lead; a term is absent where h or g is a
    monomial, and a `lead` of None is zero.  `_pair` builds the parts into a
    polynomial.  A zero h or g, or an LM(g) that does not divide x^lead,
    raises `ValueError`.
    """
    b = g.lead
    if lead is None or b is None:
        raise ValueError("reduce_step of the zero polynomial is undefined")
    s0, s1, s2, s3 = lead[0] - b[0], lead[1] - b[1], lead[2] - b[2], lead[3] - b[3]
    if s0 < 0 or s1 < 0 or s2 < 0 or s3 < 0:
        raise ValueError(f"{b} does not divide {lead}")
    d = g.tail
    if d is None:
        return tail, None
    plus = (d[0] + s0, d[1] + s1, d[2] + s2, d[3] + s3)
    if plus == tail:
        return None, None
    if tail is not None and greater(tail, plus):
        return tail, plus
    return plus, tail


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
    """Plain-text form like ``X1^16-X3*X4``, the leading term first."""
    if f.lead is None:
        return "0"
    lead = _render_mono(f.lead)
    return lead if f.tail is None else f"{lead}-{_render_mono(f.tail)}"


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
    Either sign is accepted: ``X3*X4-X1^16`` and ``X1^16-X3*X4`` parse to
    one polynomial, stored with its lead under `order` first.
    """
    return Polynomial(scan_terms(text, VAR_NAMES), order)
