"""Hilbert series of monomial quotients and the closed-form numerator for alpha4 = 2.

A polynomial in t is a list of integer coefficients by exponent,
``[1, 0, -3]`` for 1 - 3t^2.  Every list this module returns has no
trailing zero, so ``[]`` is the zero polynomial and ``len(p) - 1`` the
degree of a nonzero p.  No function mutates a list it is given, so a caller
may pass one list twice, as `_product` does to `add_shifted`, and keep
using the lists it passed.

The numerator P(t) of the Hilbert series of A/M (A the 4-variable polynomial
ring, M a monomial ideal) is computed by the pivot recursion

    P(<J, w>) = P(J) - t^deg(w) * P(J : w)

with one base case, the complete intersection.  The pivot w is the last
generator of the minimal set, which `poly.minimalize_monomials` sorts by
(degree, exponents), so w has the largest degree, and J, the set without
it, is still minimal and sorted, so it recurses as it stands.  The result
does not depend on the pivot; the tests compare it with the
inclusion-exclusion sum of `tests/reference.py`, which shares no code with
the recursion.  `add_shifted` (p + c*t^d*q) is the only arithmetic the
recursion and the closed-form numerator need.  Every monomial has four
exponents (see `poly`): the colon clamps its four differences one by one,
and a generating set is a complete intersection when its generators'
`poly.support` masks are pairwise disjoint, which one pass that ORs the
masks together decides.

The second series Q(t) = P(t) / (1-t)^3 exists because every semigroup here
has Krull dimension one in four variables; dividing by (1-t) is a prefix sum
whose last entry, the remainder P(1), must vanish.  H(n) is the prefix sum of
Q's coefficients, so H is non-decreasing exactly when Q has no negative
coefficient, and H stabilizes at Q(1) = sum(Q).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable

from .errors import InconsistencyError, ParameterError
from .poly import Exponent, minimalize_monomials, scan_terms, support
from .semigroup import PseudoSymmetricParams, check_level
from .toric import check_closed_form_regime


def add_shifted(p: list[int], c: int, d: int, q: list[int]) -> list[int]:
    """p + c*t^d*q as a new list with no trailing zero; p and q are left as they are."""
    out = p + [0] * (d + len(q) - len(p))
    for i, v in enumerate(q, d):
        out[i] += c * v
    while out and not out[-1]:
        out.pop()
    return out


def _product(degrees: Iterable[int]) -> list[int]:
    """The product of (1 - t^d) over `degrees`."""
    out = [1]
    for d in degrees:
        out = add_shifted(out, -1, d, out)
    return out


def parse_numerator(text: str) -> list[list[int]]:
    """The ``[exponent, coefficient]`` pairs of text like ``1-3*t^2+3*t^3-t^4``.

    Pairs come in ascending exponent order with zero sums dropped, as a
    report prints ``"P"``; a large exponent costs one pair, not a dense list.
    The grammar is `poly.scan_terms`'s.
    """
    coeffs: dict[int, int] = {}
    for c, (e,) in scan_terms(text, ("t",)):
        coeffs[e] = coeffs.get(e, 0) + c
    return [[e, c] for e, c in sorted(coeffs.items()) if c]


# ---------------------------------------------------------------------------
# Pivot recursion for monomial ideals
# ---------------------------------------------------------------------------

def monomial_colon(gens: Iterable[Exponent], w: Exponent) -> list[Exponent]:
    """Minimal generators of (M : w) for a monomial ideal M: each m becomes max(m - w, 0).

    Every exponent tuple must have four entries; unpacking raises `ValueError` on any other.
    """
    w0, w1, w2, w3 = w
    return minimalize_monomials(
        (m0 - w0 if m0 > w0 else 0, m1 - w1 if m1 > w1 else 0,
         m2 - w2 if m2 > w2 else 0, m3 - w3 if m3 > w3 else 0)
        for m0, m1, m2, m3 in gens
    )


def _pairwise_coprime(gens: Iterable[Exponent]) -> bool:
    """True iff no variable divides two of `gens`: each support misses the union of those before it."""
    seen = 0
    for m in gens:
        mask = support(m)
        if seen & mask:
            return False
        seen |= mask
    return True


def hilbert_numerator(gens: Iterable[Exponent]) -> list[int]:
    """Numerator of the Hilbert series of the quotient by a monomial ideal.

    Pairwise-coprime generators form a complete intersection and give the
    product of (1 - t^deg): 1 for the empty ideal, and 1 - t^0 = 0 for the
    unit ideal, whose minimal set is the unit alone.  Otherwise the last
    generator w of the minimal set J + {w} is split off and the recursion
    above applies.
    """

    def run(ideal: list[Exponent]) -> list[int]:
        if _pairwise_coprime(ideal):
            return _product(map(sum, ideal))
        w, rest = ideal[-1], ideal[:-1]
        return add_shifted(run(rest), -1, sum(w), run(monomial_colon(rest, w)))

    return run(minimalize_monomials(gens))


# ---------------------------------------------------------------------------
# Closed-form numerator for the alpha4 = 2 family
# ---------------------------------------------------------------------------

def closed_form_numerator(params: PseudoSymmetricParams, k: int) -> list[int]:
    """First-series numerator predicted for the alpha4 = 2 family.

    The sum of the terms c * t^e * prod(1 - t^d) listed below as (c, e, ds).
    Outside `toric.check_closed_form_regime` it raises `ParameterError`.
    """
    check_closed_form_regime(params)
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    terms = [
        (1, 0, ()), (-3, 2, ()), (3, 3, ()), (-1, 4, ()),
        (-1, a21 + 1, (1, 1, 1)),
        (-1, a3, (1,)),
        (-1, a2 + 1, (1, a3 - 1)),
        (-1, k * a2 + 1, (1, 1)),
    ]
    for j in range(2, k + 1):
        e = (k - j) * a1 + (k - j + 2) * a21 + a3 + j - k
        terms.append((-1, e, (1, 1, a2)))
    P: list[int] = []
    for c, e, degrees in terms:
        P = add_shifted(P, c, e, _product(degrees))
    return P


def divide_by_one_minus_t(P: list[int]) -> list[int]:
    """Exact quotient P / (1-t); raises if the remainder P(1) is nonzero.

    The quotient is the prefix sums of P without the last one, which is
    the remainder; it ends in -P[-1], so it has no trailing zero either.
    """
    if not P:
        return []
    *Q, remainder = accumulate(P)
    if remainder:
        raise InconsistencyError(f"not divisible by (1-t): remainder {remainder}")
    return Q


def second_series(P: list[int]) -> list[int]:
    """Q = P / (1-t)^3, checked exact at every stage."""
    Q = P
    for _ in range(3):
        Q = divide_by_one_minus_t(Q)
    return Q


def hilbert_function(Q: list[int], up_to_level: int | None = None) -> list[int]:
    """H(0..L), the prefix sums of Q.

    H(n) stabilizes at Q(1) from deg(Q) on; the default level L adds a
    margin of 5 so the plateau is visible in reports.
    """
    if not Q:
        raise ParameterError("second series must be nonzero")
    if up_to_level is not None:
        check_level(up_to_level)
    level = len(Q) - 1 + 5 if up_to_level is None else up_to_level
    H = list(accumulate(Q[:level + 1]))
    return H + [H[-1]] * (level + 1 - len(H))
