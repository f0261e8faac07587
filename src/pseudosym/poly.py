"""Monomials, binomials and degrevlex-style orderings in X1..X4.

Monomials are fixed-length tuples of nonnegative integer exponents, one entry
per variable.  A `Polynomial` is zero, a signed monomial ±x^a, or a binomial
±(x^lead - x^tail) with integer coefficients ±1: the only shapes a toric
standard-basis computation produces, since the s-polynomial and the
reduction step of two such polynomials are again one of them.  So a
polynomial is stored as those parts, with the ordering that decided which
monomial leads; its `terms`, leading term first, are computed from them.

`Polynomial(terms, order)` validates outside input: parsed text, `monomial`
and `binomial`.  The engine's own results (`spoly`, `reduce_step`, negation
and so `normalize`, `with_order`) are ±(x^a - x^b) by construction: their
two monomials can only cancel, never need collecting, so they are built by
`_pair` straight from the operands' parts.  Both routes end in `_fill`,
whose one `MonomialOrder.greater` call decides the lead.

Each fact the engine uses has one function: `MonomialOrder.greater`
compares two monomials (`sort_key` is the same order as a sort key),
`weighted_degree` grades a monomial, and `Polynomial.is_homogeneous` tests
a polynomial against a grading.  A polynomial's `coeff`, `lead` and `tail`
are read as fields; total degree is `sum`, and divisibility is
`all(map(le, a, b))`.  A polynomial carries no ecart; only the order of the
engine's reducer list uses one (see `stdbasis`).

Two ordering kinds are provided:

* global degrevlex: higher total degree wins, so 1 is the smallest monomial;
* local degrevlex: lower total degree wins, so 1 is the largest monomial.
  This is the ordering tangent-cone computations run under.

Degree ties are broken reverse-lexicographically against a variable
precedence list, X1 > X2 > X3 > X4 by default.

Every monomial has exactly four exponents: `MonomialOrder` takes only a
permutation of the four variables as its precedence, and the validating
constructor rejects any other exponent length, so the engine, which builds
its results from its operands' parts, never has to check a length again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, le, mul, sub
from typing import Iterable, NamedTuple, Sequence

Exponent = tuple[int, ...]

VAR_NAMES = ("X1", "X2", "X3", "X4")
N_VARS = len(VAR_NAMES)
STANDARD_GRADING = (1,) * N_VARS


class DimensionError(ValueError):
    """Exponent tuples of different lengths were mixed."""


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

    def __post_init__(self):
        if sorted(self.precedence) != list(range(N_VARS)):
            raise ValueError(
                f"precedence must be a permutation of 0..{N_VARS - 1}, got {self.precedence!r}"
            )

    def sort_key(self, m: Exponent):
        deg = sum(m)
        # Reverse-lex: at the least significant differing variable, the
        # smaller exponent wins; encode as negated exponents scanned from
        # least to most significant.
        tail = tuple(-m[i] for i in reversed(self.precedence))
        return (-deg if self.local else deg, *tail)

    def greater(self, a: Exponent, b: Exponent) -> bool:
        """True iff x^a > x^b.

        The same rule as `sort_key`, decided by one total-degree comparison
        and, on a tie, a scan from the least significant variable.
        """
        deg_a, deg_b = sum(a), sum(b)
        if deg_a != deg_b:
            return deg_a < deg_b if self.local else deg_a > deg_b
        for i in reversed(self.precedence):
            if a[i] != b[i]:
                return a[i] < b[i]
        return False


LOCAL = MonomialOrder(local=True)
GLOBAL = MonomialOrder(local=False)


def weighted_degree(m: Exponent, weights: Sequence[int]) -> int:
    """Degree of x^m under the grading Xi -> weights[i]."""
    return sum(map(mul, m, weights))


def mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def coprime(a: Exponent, b: Exponent) -> bool:
    return not any(map(mul, a, b))


def minimalize_monomials(monos: Iterable[Exponent]) -> list[Exponent]:
    """Minimal generating set of the monomial ideal spanned by `monos`.

    Drops duplicates and any monomial divisible by another generator.  The
    result is sorted by (total degree, exponent tuple) for determinism.
    Mixed exponent lengths raise `DimensionError`; checked once, they let
    the scan compare exponents with no per-pair length check.
    """
    pool = set(monos)
    lengths = set(map(len, pool))
    if len(lengths) > 1:
        raise DimensionError(f"exponent length mismatch: {sorted(lengths)}")
    kept: list[Exponent] = []
    for m in sorted(pool, key=lambda m: (sum(m), m)):
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
    """coeff * (x^lead - x^tail) with coeff ±1; `lead` is None for zero, `tail` for a monomial.

    The constructor is the validating entry for outside input.  An exponent
    tuple whose length is not four raises `DimensionError`.  Like terms
    are collected first; anything else that remains (three or more terms, a
    coefficient other than ±1, two terms of the same sign) raises
    `ValueError`; what passes sets the fields through `_fill`.  The engine's
    own results (`spoly`, `reduce_step`, negation, `with_order`) skip the
    checks and go through `_pair`, which calls `_fill` too.  Equality and
    hashing look only at the signed term set, so two polynomials with the
    same terms compare equal even if tagged with different orderings.
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
        _fill(self, 1, signed.get(1), signed.get(-1), order)

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
    return _pair(f.coeff, f.lead, f.tail, order)


def normalize(f: Polynomial) -> Polynomial:
    """Flip the overall sign so the leading coefficient is +1."""
    if f.is_zero or f.coeff > 0:
        return f
    return -f


def _fill(f: Polynomial, coeff: int, plus: Exponent | None, minus: Exponent | None,
          order: MonomialOrder) -> Polynomial:
    """Set the fields of f to coeff * (x^plus - x^minus); None is an absent term.

    coeff is ±1, and equal monomials cancel to zero.  One `greater` call
    decides the lead.
    """
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


def _pair(coeff: int, plus: Exponent | None, minus: Exponent | None,
          order: MonomialOrder) -> Polynomial:
    """coeff * (x^plus - x^minus) without the constructor's checks, for the engine's results."""
    return _fill(object.__new__(Polynomial), coeff, plus, minus, order)


def spoly(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm-cancellation of the leading terms of f and g.

    For f = lc(f)*(x^a - x^b), g = lc(g)*(x^c - x^d) and L = lcm(a, c) this
    is x^(d+L-c) - x^(b+L-a), less the tail term of a monomial operand.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("spoly of the zero polynomial is undefined")
    if f.order != g.order:
        raise ValueError("operands use different monomial orderings")
    a, b, c, d = f.lead, f.tail, g.lead, g.tail
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
    d = g.tail
    return _pair(h.coeff, None if d is None else tuple(map(add, d, shift)), h.tail, h.order)


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
