"""Hilbert series of monomial quotients and the closed forms for alpha4 = 2.

The numerator P(t) of the Hilbert series of A/M (A the 4-variable polynomial
ring, M a monomial ideal) is computed by the pivot recursion

    P(<J, w>) = P(J) - t^deg(w) * P(J : w)

with complete-intersection base cases.  The result is independent of the
pivot choice; three strategies are provided so that invariance can be tested
rather than assumed.

The second series Q(t) = P(t) / (1-t)^3 exists because every semigroup here
has Krull dimension one in four variables; division is exact synthetic
division with a remainder check.  H(n) is the prefix sum of Q's
coefficients, so H is non-decreasing exactly when Q has no negative
coefficient.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InconsistencyError, ParameterError
from .poly import Exponent, divides, minimalize_monomials, scan_terms, total_deg
from .semigroup import PseudoSymmetricParams


class UniPoly:
    """Integer-coefficient polynomial in one variable t, stored sparsely."""

    __slots__ = ("c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        self.c = {e: v for e, v in (coeffs or {}).items() if v}

    @property
    def is_zero(self) -> bool:
        return not self.c

    @property
    def degree(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no degree")
        return max(self.c)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.c.items())

    def coeff(self, e: int) -> int:
        return self.c.get(e, 0)

    def __call__(self, x: int) -> int:
        return sum(v * x**e for e, v in self.c.items())

    def __add__(self, other):
        other = _coerce(other)
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return UniPoly({e: -v for e, v in self.c.items()})

    def __mul__(self, other):
        other = _coerce(other)
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + v1 * v2
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = UniPoly({0: 1})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = UniPoly({0: other})
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __repr__(self):
        return render_unipoly(self)


def _coerce(x) -> UniPoly:
    if isinstance(x, UniPoly):
        return x
    if isinstance(x, int):
        return UniPoly({0: x})
    raise TypeError(f"cannot combine UniPoly with {type(x).__name__}")


def tpow(e: int, coeff: int = 1) -> UniPoly:
    return UniPoly({e: coeff})


def geom(m: int) -> UniPoly:
    """1 + t + ... + t^(m-1); zero when m = 0."""
    return UniPoly({i: 1 for i in range(m)})


def render_unipoly(p: UniPoly) -> str:
    """Ascending plain-text form like ``1-3*t^2+3*t^3-t^4``."""
    if p.is_zero:
        return "0"
    chunks = []
    for e, v in p.items():
        mag = abs(v)
        if e == 0:
            body = str(mag)
        else:
            t = "t" if e == 1 else f"t^{e}"
            body = t if mag == 1 else f"{mag}*{t}"
        chunks.append(("-" if v < 0 else "+") + body)
    text = "".join(chunks)
    return text[1:] if text.startswith("+") else text


def parse_unipoly(text: str) -> UniPoly:
    """Parse the ascending form produced by `render_unipoly` (see `poly.scan_terms`)."""
    out: dict[int, int] = {}
    for coeff, (e,) in scan_terms(text, ("t",)):
        out[e] = out.get(e, 0) + coeff
    return UniPoly(out)


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
                      seed: int = 0) -> UniPoly:
    """Numerator of the Hilbert series of the quotient by a monomial ideal.

    The empty ideal gives 1; pairwise-coprime generators form a complete
    intersection and give the product of (1 - t^deg).  Otherwise one
    generator w is split off the minimalized generating set J + {w} and the
    recursion above applies.  Results are memoized per call.
    """
    rng = random.Random(seed)
    memo: dict[tuple[Exponent, ...], UniPoly] = {}

    def run(ideal: tuple[Exponent, ...]) -> UniPoly:
        if not ideal:
            return UniPoly({0: 1})
        if any(total_deg(m) == 0 for m in ideal):
            return UniPoly()  # unit ideal, empty quotient
        cached = memo.get(ideal)
        if cached is not None:
            return cached
        if _pairwise_coprime(ideal):
            result = UniPoly({0: 1})
            for m in ideal:
                result = result * (1 - tpow(total_deg(m)))
        else:
            w = _pick_pivot(ideal, pivot, rng)
            rest = tuple(m for m in ideal if m != w)
            colon = tuple(monomial_colon(rest, w))
            result = run(rest) - tpow(total_deg(w)) * run(colon)
        memo[ideal] = result
        return result

    return run(tuple(minimalize_monomials(gens)))


def _pairwise_coprime(gens: Sequence[Exponent]) -> bool:
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if any(a and b for a, b in zip(gens[i], gens[j])):
                return False
    return True


def count_standard_monomials(gens: Sequence[Exponent], n: int, nvars: int = 4) -> int:
    """Brute-force count of degree-n monomials outside the ideal.

    Direct enumeration, independent of the pivot recursion; used as the
    ground-truth oracle for it.
    """
    gens = list(gens)

    def walk(prefix: list[int], remaining: int, pos: int) -> int:
        if pos == nvars - 1:
            mono = tuple(prefix + [remaining])
            return 0 if any(divides(g, mono) for g in gens) else 1
        return sum(walk(prefix + [e], remaining - e, pos + 1) for e in range(remaining + 1))

    return walk([], n, 0)


def quotient_hilbert_coeffs(P: UniPoly, nvars: int, up_to: int) -> list[int]:
    """Coefficients of P(t) / (1-t)^nvars up to degree `up_to`."""
    out = []
    for n in range(up_to + 1):
        total = 0
        for e, v in P.c.items():
            if e <= n:
                total += v * math.comb(n - e + nvars - 1, nvars - 1)
        out.append(total)
    return out


# ---------------------------------------------------------------------------
# Closed forms for the alpha4 = 2 family
# ---------------------------------------------------------------------------

def closed_form_numerator(params: PseudoSymmetricParams, k: int) -> UniPoly:
    """First-series numerator predicted for the alpha4 = 2 family."""
    if params.alpha4 != 2:
        raise ParameterError(f"alpha4 = 2 violated (alpha4={params.alpha4})")
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    omt = UniPoly({0: 1, 1: -1})
    P = (
        UniPoly({0: 1, 2: -3, 3: 3, 4: -1})
        - tpow(a21 + 1) * omt**3
        - tpow(a3) * omt
        - tpow(a2 + 1) * omt * (1 - tpow(a3 - 1))
        - tpow(k * a2 + 1) * omt**2
    )
    for j in range(2, k + 1):
        e = (k - j) * a1 + (k - j + 2) * a21 + a3 + j - k
        P = P - tpow(e) * omt**2 * (1 - tpow(a2))
    return P


def closed_form_second_series(params: PseudoSymmetricParams, k: int) -> UniPoly:
    """Second series predicted for the family, as a sum of geometric blocks.

    The tail blocks enter with a minus sign: they come from -r2(t) divided by
    (1-t), so each contributes -t^e * (1 + ... + t^(a2-1)).
    """
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    Q = 1 + tpow(1) + tpow(1) * geom(k * a2) + tpow(1) * geom(a2) * geom(a3 - 1) - tpow(a21 + 1)
    for j in range(2, k + 1):
        e = (k - j) * a1 + (k - j + 2) * a21 + a3 + j - k
        Q = Q - tpow(e) * geom(a2)
    return Q


def regrouped_second_series(params: PseudoSymmetricParams, k: int) -> UniPoly:
    """Equivalent regrouping of the second series.

    Q = 1 + t - t^(a21+1) + (1+...+t^(a2-1)) * [ t*(2+t+...+t^(a3-2)) + sum S_j ]
    with S_j = t^(j*a2+1) - t^((j-1)*a1+(j+1)*a21+a3+1-j) for j = 1..k-1.
    Each S_j has its positive exponent no smaller than its negative one, so
    the bracket stays coefficientwise meaningful; equality with
    `closed_form_second_series` is asserted in the tests.
    """
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    bracket = tpow(1) + tpow(1) * geom(a3 - 1)
    for j in range(1, k):
        bracket = bracket + tpow(j * a2 + 1) - tpow((j - 1) * a1 + (j + 1) * a21 + a3 + 1 - j)
    return 1 + tpow(1) - tpow(a21 + 1) + geom(a2) * bracket


def divide_by_one_minus_t(P: UniPoly) -> UniPoly:
    """Exact quotient P / (1-t); raises if the remainder P(1) is nonzero."""
    if P.is_zero:
        return UniPoly()
    if P(1) != 0:
        raise InconsistencyError(f"not divisible by (1-t): remainder {P(1)}")
    out: dict[int, int] = {}
    running = 0
    for e in range(P.degree):
        running += P.coeff(e)
        if running:
            out[e] = running
    return UniPoly(out)


def second_series(P: UniPoly) -> UniPoly:
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


def hilbert_function(Q: UniPoly, up_to_level: int | None = None) -> HilbertReport:
    """Prefix sums of Q plus the summary facts about them.

    H(n) stabilizes at Q(1) from deg(Q) on; the default level adds a margin
    of 5 so the plateau is visible in reports.
    """
    if Q.is_zero:
        raise ParameterError("second series must be nonzero")
    if up_to_level is not None and up_to_level < 0:
        raise ParameterError(f"max level >= 0 violated ({up_to_level})")
    deg = Q.degree
    level = deg + 5 if up_to_level is None else up_to_level
    H = []
    running = 0
    for n in range(level + 1):
        running += Q.coeff(n)
        H.append(running)
    negatives = [e for e, v in Q.items() if v < 0]
    return HilbertReport(
        hilbert_function=tuple(H),
        regularity_index=deg,
        multiplicity=Q(1),
        non_decreasing=not negatives,
        first_decrease_level=min(negatives) if negatives else None,
    )
