"""Monomials, binomials and degrevlex-style orderings in X1..X4.

Monomials are fixed-length tuples of nonnegative integer exponents, one entry
per variable.  A `Polynomial` is zero, a signed monomial ±x^a, or a binomial
±(x^lead - x^tail) with integer coefficients ±1: the only shapes a toric
standard-basis computation produces, since the s-polynomial and the
reduction step of two such polynomials are again one of them.  A polynomial
carries the ordering its terms are sorted under (leading term first).

`Polynomial(terms, order)` validates outside input: parsed text, `monomial`,
`binomial` and `lowest_form`.  The engine's own results (`spoly`,
`reduce_step`, negation and so `normalize`, `with_order`) are ±(x^a - x^b)
by construction: their two monomials can only cancel, never need
collecting, so they are built by `_pair`, which decides the lead with one
`MonomialOrder.greater` call, the comparison `__init__` also uses.

Two ordering kinds are provided:

* global degrevlex: higher total degree wins, so 1 is the smallest monomial;
* local degrevlex: lower total degree wins, so 1 is the largest monomial.
  This is the ordering tangent-cone computations run under.

Degree ties are broken reverse-lexicographically against a variable
precedence list, X1 > X2 > X3 > X4 by default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, le, mul, sub
from typing import Iterable, NamedTuple, Sequence

Exponent = tuple[int, ...]

VAR_NAMES = ("X1", "X2", "X3", "X4")

LESS, EQUAL, GREATER = -1, 0, 1


class DimensionError(ValueError):
    """Exponent tuples of different lengths were mixed."""


@dataclass(frozen=True)
class MonomialOrder:
    """Degree-reverse-lexicographic comparator, global or local.

    `precedence` lists variable indices from most to least significant.
    The comparator is total and multiplicative: a > b implies a+q > b+q.
    """

    local: bool
    precedence: tuple[int, ...] = (0, 1, 2, 3)

    def sort_key(self, m: Exponent):
        deg = sum(m)
        # Reverse-lex: at the least significant differing variable, the
        # smaller exponent wins; encode as negated exponents scanned from
        # least to most significant.
        tail = tuple(-m[i] for i in reversed(self.precedence))
        return (-deg if self.local else deg, *tail)

    def greater(self, a: Exponent, b: Exponent, deg_a: int, deg_b: int) -> bool:
        """True iff x^a > x^b, given their total degrees deg_a and deg_b.

        The same rule as `sort_key`, decided by one degree comparison and, on
        a tie, a scan from the least significant variable.
        """
        if deg_a != deg_b:
            return deg_a < deg_b if self.local else deg_a > deg_b
        for i in reversed(self.precedence):
            if a[i] != b[i]:
                return a[i] < b[i]
        return False

    def compare(self, a: Exponent, b: Exponent) -> int:
        if len(a) != len(b):
            raise DimensionError(f"exponent length mismatch: {len(a)} vs {len(b)}")
        if len(a) != len(self.precedence):
            raise DimensionError(
                f"exponent length {len(a)} does not match ordering on {len(self.precedence)} variables"
            )
        if a == b:
            return EQUAL
        return GREATER if self.greater(a, b, sum(a), sum(b)) else LESS


LOCAL = MonomialOrder(local=True)
GLOBAL = MonomialOrder(local=False)


def total_deg(m: Exponent) -> int:
    return sum(m)


def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def divides(a: Exponent, b: Exponent) -> bool:
    """True iff the monomial with exponents a divides the one with exponents b."""
    if len(a) != len(b):
        raise DimensionError(f"exponent length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def coprime(a: Exponent, b: Exponent) -> bool:
    return not any(map(mul, a, b))


def check_lengths(monos: Iterable[Exponent]) -> None:
    """Raise `DimensionError` unless all exponent tuples have one length.

    Checking once lets a loop over them compare exponents without `divides`.
    """
    lengths = set(map(len, monos))
    if len(lengths) > 1:
        raise DimensionError(f"exponent length mismatch: {sorted(lengths)}")


def minimalize_monomials(monos: Iterable[Exponent]) -> list[Exponent]:
    """Minimal generating set of the monomial ideal spanned by `monos`.

    Drops duplicates and any monomial divisible by another generator.  The
    result is sorted by (total degree, exponent tuple) for determinism.
    """
    pool = set(monos)
    check_lengths(pool)
    kept: list[Exponent] = []
    for m in sorted(pool, key=lambda m: (total_deg(m), m)):
        for g in kept:
            if all(map(le, g, m)):
                break
        else:
            kept.append(m)
    return kept


class Term(NamedTuple):
    coeff: int
    mono: Exponent


class Polynomial:
    """Zero, a monomial ±x^a or a binomial ±(x^lead - x^tail); leading term first.

    The constructor is the validating entry for outside input.  Like terms
    are collected first; anything else that remains (three or more terms, a
    coefficient other than ±1, two terms of the same sign) raises
    `ValueError`.  The engine's own results (`spoly`, `reduce_step`,
    negation, `with_order`) skip it and go through `_pair`.  Equality and
    hashing look only at the signed term set, so two polynomials with the
    same terms compare equal even if tagged with different orderings.
    """

    __slots__ = ("terms", "order", "_lm", "_ecart")

    def __init__(self, terms: Iterable[tuple], order: MonomialOrder):
        acc: dict[Exponent, int] = {}
        for coeff, mono in terms:
            acc[mono] = acc.get(mono, 0) + coeff
        kept = [(c, m) for m, c in acc.items() if c]
        if not kept:
            self.terms: tuple[Term, ...] = ()
            self._lm = self._ecart = None
        elif len(kept) == 1:
            (c, m), = kept
            if c not in (1, -1):
                raise ValueError(f"not zero, a monomial or a ±1 binomial: {kept}")
            self.terms = (Term(int(c), m),)
            self._lm, self._ecart = m, 0
        elif len(kept) == 2:
            (c, m), (d, n) = kept
            if c not in (1, -1) or c + d:
                raise ValueError(f"not zero, a monomial or a ±1 binomial: {kept}")
            dm, dn = sum(m), sum(n)
            if order.greater(n, m, dn, dm):
                c, m, d, n, dm, dn = d, n, c, m, dn, dm
            self.terms = (Term(int(c), m), Term(int(d), n))
            self._lm, self._ecart = m, max(dn - dm, 0)
        else:
            raise ValueError(f"not zero, a monomial or a ±1 binomial: {kept}")
        self.order = order

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading_term(self) -> Term:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    @property
    def lm(self) -> Exponent:
        """The leading monomial, fixed at construction."""
        if self._lm is None:
            raise ValueError("zero polynomial has no leading monomial")
        return self._lm

    @property
    def lc(self) -> int:
        return self.leading_term.coeff

    @property
    def degree(self) -> int:
        """Total degree (maximum over terms)."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(total_deg(t.mono) for t in self.terms)

    @property
    def min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(total_deg(t.mono) for t in self.terms)

    def is_homogeneous(self) -> bool:
        return self.is_zero or self.degree == self.min_degree

    def mul_term(self, m: Exponent) -> "Polynomial":
        """The product with the monomial x^m."""
        return Polynomial([(c, mono_mul(t, m)) for c, t in self.terms], self.order)

    def __neg__(self) -> "Polynomial":
        c, lead, tail = _parts(self)
        return _pair(-c, lead, tail, self.order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return frozenset(self.terms) == frozenset(other.terms)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms))

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
    return _pair(*_parts(f), order)


def leading_term(f: Polynomial) -> Term:
    return f.leading_term


def ecart(f: Polynomial) -> int:
    """Total degree of f minus total degree of its leading monomial.

    Nonnegative under a local ordering, where the leading monomial sits in
    the lowest-degree part.
    """
    if f._ecart is None:
        raise ValueError("zero polynomial has no ecart")
    return f._ecart


def normalize(f: Polynomial) -> Polynomial:
    """Flip the overall sign so the leading coefficient is +1."""
    if f.is_zero or f.lc > 0:
        return f
    return -f


def _pair(coeff: int, plus: Exponent | None, minus: Exponent | None,
          order: MonomialOrder) -> Polynomial:
    """coeff * (x^plus - x^minus) without the constructor's checks; None is an absent term.

    For the engine's own results: coeff is ±1 and the two monomials have one
    length, so there are no like terms to collect and the only collision is
    cancellation (plus == minus), which gives zero.  One `greater` call
    decides the lead, and the ecart comes from the degrees it was given.
    """
    f = object.__new__(Polynomial)
    f.order = order
    if plus == minus:
        f.terms, f._lm, f._ecart = (), None, None
    elif minus is None:
        f.terms, f._lm, f._ecart = (Term(coeff, plus),), plus, 0
    elif plus is None:
        f.terms, f._lm, f._ecart = (Term(-coeff, minus),), minus, 0
    else:
        d_plus, d_minus = sum(plus), sum(minus)
        if order.greater(minus, plus, d_minus, d_plus):
            coeff, plus, minus, d_plus, d_minus = -coeff, minus, plus, d_minus, d_plus
        f.terms = (Term(coeff, plus), Term(-coeff, minus))
        f._lm, f._ecart = plus, max(d_minus - d_plus, 0)
    return f


def _parts(f: Polynomial) -> tuple[int, Exponent | None, Exponent | None]:
    """(lc, lead, tail) with f = lc * (x^lead - x^tail); None for an absent term."""
    terms = f.terms
    if not terms:
        return 1, None, None
    c, lead = terms[0]
    return c, lead, terms[1].mono if len(terms) == 2 else None


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm-cancellation of the leading terms of f and g.

    For f = lc(f)*(x^a - x^b), g = lc(g)*(x^c - x^d) and L = lcm(a, c) this
    is x^(d+L-c) - x^(b+L-a), less the tail term of a monomial operand.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("spoly of the zero polynomial is undefined")
    if f.order != g.order:
        raise ValueError("operands use different monomial orderings")
    _, a, b = _parts(f)
    _, c, d = _parts(g)
    lcm = mono_lcm(a, c)
    return _pair(
        1,
        None if d is None else tuple(map(sub, map(add, d, lcm), c)),
        None if b is None else tuple(map(sub, map(add, b, lcm), a)),
        f.order,
    )


def reduce_step(h: Polynomial, g: Polynomial) -> Polynomial:
    """One cancellation of the leading term of h by a multiple of g.

    For h = lc(h)*(x^a - x^b) and the tail x^d of g, what is left is
    lc(h)*(x^(d + a - LM(g)) - x^b); a term is absent where h or g is a
    monomial.
    """
    a, lead = h.lm, g.lm
    shift = tuple(map(sub, a, lead))
    if min(shift, default=0) < 0:
        raise ValueError(f"{lead} does not divide {a}")
    c, _, b = _parts(h)
    d = _parts(g)[2]
    return _pair(c, None if d is None else tuple(map(add, d, shift)), b, h.order)


def render_poly(f: Polynomial, names: Sequence[str] = VAR_NAMES) -> str:
    """Plain-text form like ``X1^16-X3*X4`` (terms in the polynomial's order)."""
    if f.is_zero:
        return "0"
    chunks: list[str] = []
    for coeff, mono in f.terms:
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, mono) if e)
        chunks.append(("-" if coeff < 0 else "+") + (body or "1"))
    text = "".join(chunks)
    return text[1:] if text.startswith("+") else text


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
