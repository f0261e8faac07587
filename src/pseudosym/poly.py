"""Exact sparse polynomial arithmetic in X1..X4 with degrevlex-style orderings.

Monomials are fixed-length tuples of nonnegative integer exponents, one entry
per variable.  Coefficients are `fractions.Fraction`, so every computation in
this package is exact.  A polynomial carries the ordering its term list is
sorted under (leading term first); the zero polynomial has no terms.

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
from fractions import Fraction
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

    def compare(self, a: Exponent, b: Exponent) -> int:
        if len(a) != len(b):
            raise DimensionError(f"exponent length mismatch: {len(a)} vs {len(b)}")
        if len(a) != len(self.precedence):
            raise DimensionError(
                f"exponent length {len(a)} does not match ordering on {len(self.precedence)} variables"
            )
        ka, kb = self.sort_key(a), self.sort_key(b)
        if ka > kb:
            return GREATER
        if ka < kb:
            return LESS
        return EQUAL


LOCAL = MonomialOrder(local=True)
GLOBAL = MonomialOrder(local=False)


def total_deg(m: Exponent) -> int:
    return sum(m)


def mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Exponent, b: Exponent) -> Exponent:
    """Exact quotient a / b; caller must know that b divides a."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError(f"{b} does not divide {a}")
    return q


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def divides(a: Exponent, b: Exponent) -> bool:
    """True iff the monomial with exponents a divides the one with exponents b."""
    if len(a) != len(b):
        raise DimensionError(f"exponent length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def coprime(a: Exponent, b: Exponent) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def minimalize_monomials(monos: Iterable[Exponent]) -> list[Exponent]:
    """Minimal generating set of the monomial ideal spanned by `monos`.

    Drops duplicates and any monomial divisible by another generator.  The
    result is sorted by (total degree, exponent tuple) for determinism.
    """
    pool = sorted(set(monos), key=lambda m: (total_deg(m), m))
    kept: list[Exponent] = []
    for m in pool:
        if not any(divides(g, m) for g in kept):
            kept.append(m)
    return kept


class Term(NamedTuple):
    coeff: Fraction
    mono: Exponent


class Polynomial:
    """Immutable sparse polynomial; terms strictly descending, leading first.

    Equality and hashing look only at the term set, so two polynomials with
    the same terms compare equal even if tagged with different orderings.
    """

    __slots__ = ("terms", "order")

    def __init__(self, terms: Iterable[tuple], order: MonomialOrder):
        acc: dict[Exponent, Fraction] = {}
        for coeff, mono in terms:
            c = Fraction(coeff)
            if c:
                acc[mono] = acc.get(mono, Fraction(0)) + c
        cleaned = [Term(c, m) for m, c in acc.items() if c]
        cleaned.sort(key=lambda t: order.sort_key(t.mono), reverse=True)
        self.terms: tuple[Term, ...] = tuple(cleaned)
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
        return self.leading_term.mono

    @property
    def lc(self) -> Fraction:
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

    def mul_term(self, t: Term) -> "Polynomial":
        return Polynomial(
            [(c * t.coeff, mono_mul(m, t.mono)) for c, m in self.terms], self.order
        )

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial([(tc * c, m) for tc, m in self.terms], self.order)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(list(self.terms) + list(other.terms), self.order)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(
            list(self.terms) + [(-c, m) for c, m in other.terms], self.order
        )

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: list[tuple] = []
        for c1, m1 in self.terms:
            for c2, m2 in other.terms:
                out.append((c1 * c2, mono_mul(m1, m2)))
        return Polynomial(out, self.order)

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


def monomial(m: Exponent, order: MonomialOrder = LOCAL, coeff=1) -> Polynomial:
    return Polynomial([(coeff, m)], order)


def binomial(plus: Exponent, minus: Exponent, order: MonomialOrder = LOCAL) -> Polynomial:
    """The difference of two monomials, plus - minus."""
    return Polynomial([(1, plus), (-1, minus)], order)


def with_order(f: Polynomial, order: MonomialOrder) -> Polynomial:
    """Same polynomial re-sorted under a different ordering."""
    return Polynomial(f.terms, order)


def leading_term(f: Polynomial) -> Term:
    return f.leading_term


def ecart(f: Polynomial) -> int:
    """Total degree of f minus total degree of its leading monomial.

    Nonnegative under a local ordering, where the leading monomial sits in
    the lowest-degree part.
    """
    return f.degree - total_deg(f.lm)


def normalize(f: Polynomial) -> Polynomial:
    """Flip the overall sign so the leading coefficient is positive."""
    if f.is_zero or f.lc > 0:
        return f
    return -f


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm-cancellation of the leading terms of f and g."""
    if f.is_zero or g.is_zero:
        raise ValueError("spoly of the zero polynomial is undefined")
    if f.order != g.order:
        raise ValueError("operands use different monomial orderings")
    lcm = mono_lcm(f.lm, g.lm)
    left = f.mul_term(Term(Fraction(1, 1) / f.lc, mono_div(lcm, f.lm)))
    right = g.mul_term(Term(Fraction(1, 1) / g.lc, mono_div(lcm, g.lm)))
    return left - right


def reduce_step(h: Polynomial, g: Polynomial) -> Polynomial:
    """One cancellation of the leading term of h by a multiple of g."""
    shift = mono_div(h.lm, g.lm)
    return h - g.mul_term(Term(h.lc / g.lc, shift))


def render_poly(f: Polynomial, names: Sequence[str] = VAR_NAMES) -> str:
    """Plain-text form like ``X1^16-X3*X4`` (terms in the polynomial's order)."""
    if f.is_zero:
        return "0"
    chunks: list[str] = []
    for coeff, mono in f.terms:
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, mono)
            if e
        ]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        sign = "-" if coeff < 0 else "+"
        chunks.append(sign + body)
    text = "".join(chunks)
    return text[1:] if text.startswith("+") else text


_INT_RE = re.compile(r"-?\d+$")


def parse_poly(text: str, order: MonomialOrder = LOCAL,
               names: Sequence[str] = VAR_NAMES) -> Polynomial:
    """Parse the plain-text polynomial format produced by `render_poly`.

    The text must be signed terms and nothing else: a doubled or trailing
    sign, or a caret without an exponent, raises `ValueError`.
    """
    s = text.replace(" ", "")
    if not s or s == "0":
        return Polynomial([], order)
    index = {name: i for i, name in enumerate(names)}
    terms: list[tuple] = []
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"stray sign in {text!r}")
    for chunk in chunks:
        coeff = Fraction(-1 if chunk.startswith("-") else 1)
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
    return Polynomial(terms, order)
