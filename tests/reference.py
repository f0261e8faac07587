"""Reference routes the tests compare the package against.

Nothing here imports from `pseudosym`, so a shared defect cannot make both
sides agree.  A polynomial in t is a dict from exponent to nonzero integer
coefficient; `from_list` and `to_list` convert from and to the package's
dense coefficient lists.
"""

from __future__ import annotations

import math
from itertools import combinations


def clean(p: dict[int, int]) -> dict[int, int]:
    return {e: v for e, v in p.items() if v}


def from_list(coeffs) -> dict[int, int]:
    return clean(dict(enumerate(coeffs)))


def to_list(p: dict[int, int]) -> list[int]:
    p = clean(p)
    return [p.get(e, 0) for e in range(max(p) + 1)] if p else []


def tpow(e: int, coeff: int = 1) -> dict[int, int]:
    return clean({e: coeff})


def geom(m: int) -> dict[int, int]:
    """1 + t + ... + t^(m-1); zero when m = 0."""
    return {i: 1 for i in range(m)}


def add(*polys: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in polys:
        for e, v in p.items():
            out[e] = out.get(e, 0) + v
    return clean(out)


def neg(p: dict[int, int]) -> dict[int, int]:
    return {e: -v for e, v in p.items()}


def mul(*polys: dict[int, int]) -> dict[int, int]:
    out = {0: 1}
    for p in polys:
        prod: dict[int, int] = {}
        for e1, v1 in out.items():
            for e2, v2 in p.items():
                prod[e1 + e2] = prod.get(e1 + e2, 0) + v1 * v2
        out = clean(prod)
    return out


def evaluate(p: dict[int, int], x: int) -> int:
    return sum(v * x**e for e, v in p.items())


ONE_MINUS_T = {0: 1, 1: -1}


def quotient_hilbert_coeffs(P: dict[int, int], nvars: int, up_to: int) -> list[int]:
    """Coefficients of P(t) / (1-t)^nvars up to degree `up_to`, by binomial sums."""
    return [
        sum(v * math.comb(n - e + nvars - 1, nvars - 1) for e, v in P.items() if e <= n)
        for n in range(up_to + 1)
    ]


def second_series(P: dict[int, int]) -> dict[int, int] | None:
    """P / (1-t)^3 when (1-t)^3 divides P, else None.

    The candidate is the power series P / (1-t)^3 cut at deg P - 3, and it is
    accepted only when multiplying back by (1-t)^3 gives P.
    """
    if not P:
        return {}
    Q = from_list(quotient_hilbert_coeffs(P, 3, max(P) - 3))
    return Q if mul(Q, ONE_MINUS_T, ONE_MINUS_T, ONE_MINUS_T) == P else None


def count_standard_monomials(gens, n: int, nvars: int = 4) -> int:
    """Brute-force count of degree-n monomials outside the monomial ideal.

    Direct enumeration, independent of the pivot recursion; used as the
    ground-truth oracle for it.
    """
    gens = list(gens)

    def walk(prefix: list[int], remaining: int, pos: int) -> int:
        if pos == nvars - 1:
            mono = prefix + [remaining]
            return 0 if any(all(a <= b for a, b in zip(g, mono)) for g in gens) else 1
        return sum(walk(prefix + [e], remaining - e, pos + 1) for e in range(remaining + 1))

    return walk([], n, 0)


def taylor_numerator(gens) -> dict[int, int]:
    """Hilbert numerator of A/M as the inclusion-exclusion sum over subsets.

    P = sum over subsets S of the generators of (-1)^|S| * t^deg(lcm(S)),
    read off the Taylor resolution; any generating set gives the same P.
    """
    gens = list(gens)
    out: dict[int, int] = {}
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            deg = sum(map(max, zip(*subset))) if subset else 0
            out[deg] = out.get(deg, 0) + (-1) ** size
    return clean(out)


def regrouped_second_series(params, k: int) -> dict[int, int]:
    """Equivalent regrouping of the family's second series.

    Q = 1 + t - t^(a21+1) + (1+...+t^(a2-1)) * [ t*(2+t+...+t^(a3-2)) + sum S_j ]
    with S_j = t^(j*a2+1) - t^((j-1)*a1+(j+1)*a21+a3+1-j) for j = 1..k-1.
    Each S_j has its positive exponent no smaller than its negative one, so
    the bracket stays coefficientwise meaningful.  `params` needs only the
    attributes alpha1, alpha2, alpha3 and alpha21.
    """
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    bracket = add(tpow(1), mul(tpow(1), geom(a3 - 1)))
    for j in range(1, k):
        bracket = add(bracket, tpow(j * a2 + 1), tpow((j - 1) * a1 + (j + 1) * a21 + a3 + 1 - j, -1))
    return add({0: 1}, tpow(1), tpow(a21 + 1, -1), mul(geom(a2), bracket))
