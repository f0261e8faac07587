"""Hilbert series of monomial quotients and the closed forms for alpha4 = 2.

A polynomial in t is a list of integer coefficients by exponent,
``[1, 0, -3]`` for 1 - 3t^2.  Every list this module returns has no
trailing zero, so ``[]`` is the zero polynomial and ``len(p) - 1`` the
degree of a nonzero p.  No function mutates a list it is given: the pivot
recursion's memo hands one result to several callers.

The numerator P(t) of the Hilbert series of A/M (A the 4-variable polynomial
ring, M a monomial ideal) is computed by the pivot recursion

    P(<J, w>) = P(J) - t^deg(w) * P(J : w)

with complete-intersection base cases.  The result is independent of the
pivot choice; three strategies are provided so that invariance can be tested
rather than assumed.  `add_shifted` (p + c*t^d*q) is the only arithmetic the
recursion and the closed-form numerator need.

The second series Q(t) = P(t) / (1-t)^3 exists because every semigroup here
has Krull dimension one in four variables; dividing by (1-t) is a prefix sum
whose last entry, the remainder P(1), must vanish.  H(n) is the prefix sum of
Q's coefficients, so H is non-decreasing exactly when Q has no negative
coefficient, and H stabilizes at Q(1) = sum(Q).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from .errors import InconsistencyError, ParameterError
from .poly import Exponent, coprime, minimalize_monomials, scan_terms, total_deg
from .semigroup import PseudoSymmetricParams


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
    """Minimal generators of (M : w) for a monomial ideal M."""
    quotients = [tuple(max(g - x, 0) for g, x in zip(m, w)) for m in gens]
    return minimalize_monomials(quotients)


def _pick_pivot(gens: Sequence[Exponent], pivot: str, rng) -> Exponent:
    if pivot == "first":
        return gens[0]
    if pivot == "maxdeg":
        return max(gens, key=lambda m: (total_deg(m), [-e for e in m]))
    if pivot == "random":
        return rng.choice(gens)
    raise ValueError(f"unknown pivot strategy {pivot!r}")


def hilbert_numerator(gens: Iterable[Exponent], pivot: str = "maxdeg",
                      seed: int = 0) -> list[int]:
    """Numerator of the Hilbert series of the quotient by a monomial ideal.

    The empty ideal gives 1; pairwise-coprime generators form a complete
    intersection and give the product of (1 - t^deg).  Otherwise one
    generator w is split off the minimalized generating set J + {w} and the
    recursion above applies.  Results are memoized per call.
    """
    rng = random.Random(seed)
    memo: dict[tuple[Exponent, ...], list[int]] = {}

    def run(ideal: tuple[Exponent, ...]) -> list[int]:
        if not ideal:
            return [1]
        if any(total_deg(m) == 0 for m in ideal):
            return []  # unit ideal, empty quotient
        cached = memo.get(ideal)
        if cached is not None:
            return cached
        if all(coprime(a, b) for a, b in combinations(ideal, 2)):
            result = _product(total_deg(m) for m in ideal)
        else:
            w = _pick_pivot(ideal, pivot, rng)
            rest = tuple(m for m in ideal if m != w)
            colon = tuple(monomial_colon(rest, w))
            result = add_shifted(run(rest), -1, total_deg(w), run(colon))
        memo[ideal] = result
        return result

    return run(tuple(minimalize_monomials(gens)))


# ---------------------------------------------------------------------------
# Closed forms for the alpha4 = 2 family
# ---------------------------------------------------------------------------

def closed_form_numerator(params: PseudoSymmetricParams, k: int) -> list[int]:
    """First-series numerator predicted for the alpha4 = 2 family.

    The sum of the terms c * t^e * prod(1 - t^d) listed below as (c, e, ds).
    """
    if params.alpha4 != 2:
        raise ParameterError(f"alpha4 = 2 violated (alpha4={params.alpha4})")
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


def closed_form_second_series(params: PseudoSymmetricParams, k: int) -> list[int]:
    """Second series predicted for the family, as a sum of geometric blocks.

    Q = 1 + t + t*(1 + ... + t^(k*a2-1)) + t*(1 + ... + t^(a2-1))*(1 + ... + t^(a3-2))
    - t^(a21+1), minus the tail blocks t^e * (1 + ... + t^(a2-1)): they come
    from -r2(t) divided by (1-t).
    """
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    block = [1] * a2
    Q = add_shifted([1, 1], 1, 1, [1] * (k * a2))
    for i in range(a3 - 1):
        Q = add_shifted(Q, 1, 1 + i, block)
    Q = add_shifted(Q, -1, a21 + 1, [1])
    for j in range(2, k + 1):
        e = (k - j) * a1 + (k - j + 2) * a21 + a3 + j - k
        Q = add_shifted(Q, -1, e, block)
    return Q


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


@dataclass(frozen=True)
class HilbertReport:
    hilbert_function: tuple[int, ...]
    regularity_index: int
    multiplicity: int
    non_decreasing: bool
    first_decrease_level: int | None


def hilbert_function(Q: list[int], up_to_level: int | None = None) -> HilbertReport:
    """Prefix sums of Q plus the summary facts about them.

    H(n) stabilizes at Q(1) from deg(Q) on; the default level adds a margin
    of 5 so the plateau is visible in reports.
    """
    if not Q:
        raise ParameterError("second series must be nonzero")
    if up_to_level is not None and up_to_level < 0:
        raise ParameterError(f"max level >= 0 violated ({up_to_level})")
    deg = len(Q) - 1
    level = deg + 5 if up_to_level is None else up_to_level
    H = list(accumulate(Q[:level + 1]))
    H += [H[-1]] * (level + 1 - len(H))
    first_negative = next((e for e, v in enumerate(Q) if v < 0), None)
    return HilbertReport(
        hilbert_function=tuple(H),
        regularity_index=deg,
        multiplicity=sum(Q),
        non_decreasing=first_negative is None,
        first_decrease_level=first_negative,
    )
