"""Reference routes the tests compare the package against.

Nothing here imports from `pseudosym`, so a shared defect cannot make both
sides agree.  A polynomial in t is a dict from exponent to nonzero integer
coefficient; `from_list` and `to_list` convert from and to the package's
dense coefficient lists.  A monomial is a tuple of exponents.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations, islice, repeat


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


def minimal_monomials(gens) -> set[tuple[int, ...]]:
    """Minimal generators of the monomial ideal spanned by `gens`, by pairwise division."""
    gens = set(gens)
    return {m for m in gens
            if not any(g != m and all(a <= b for a, b in zip(g, m)) for g in gens)}


def colon_stability(gens, var: int) -> bool:
    """True iff (M : X_var) = M, i.e. X_var is a nonzerodivisor mod M.

    (M : X_var) is generated by the generators of M with the exponent of
    X_var lowered by one where it is positive.
    """
    quotients = [tuple(max(e - (i == var), 0) for i, e in enumerate(m)) for m in gens]
    return minimal_monomials(quotients) == minimal_monomials(gens)


def apery_set(gens) -> list[int]:
    """Ap(S, m) for the smallest generator m, by residue, from a membership sieve.

    Every element of Ap(S, m) is at most (m - 1) * max(gens), so the sieve
    stops there.  `gens` must have gcd 1.
    """
    m = min(gens)
    bound = (m - 1) * max(gens)
    member = [True] + [False] * bound
    for x in range(1, bound + 1):
        member[x] = any(x >= g and member[x - g] for g in gens)
    ap: list[int | None] = [None] * m
    for x in range(bound + 1):
        if member[x] and ap[x % m] is None:
            ap[x % m] = x
    return ap


def pseudo_symmetric_by_apery_maxima(gens) -> bool:
    """S is pseudo-symmetric iff F is even and the maximal elements of Ap(S, m)
    under a <=_S b (b - a in S) are exactly F + m and F/2 + m."""
    ap = apery_set(gens)
    m = len(ap)
    frobenius = max(ap) - m
    maximal = {a for a in ap
               if not any(b != a and b >= a and b - a >= ap[(b - a) % m] for b in ap)}
    return frobenius % 2 == 0 and maximal == {frobenius + m, frobenius // 2 + m}


def hilbert_levels(gens):
    """H(0), H(1), ... of the semigroup generated by `gens`, without end.

    This is the per-level sweep the package's order-counting oracle first
    ran.  After dividing the generators by their gcd, level n holds min_n[r],
    the least element of order >= n in each residue class r mod the smallest
    generator m.  Level 0 is Ap(S, m), the fixpoint of
    a[r] <- min(a[r], a[(r - g) mod m] + g) from [0, inf, ...]; each next
    level is min_g(min_n[(r - g) mod m] + g), and
    H(n) = sum_r (min_{n+1}[r] - min_n[r]) / m.  Every level costs m times
    the number of generators, plateau or not.
    """
    d = math.gcd(*gens)
    gens = [g // d for g in gens]
    m = min(gens)
    shifts = [(m - g % m, g) for g in gens]

    def step(level):
        # level[cut:] + level[:cut] puts level[(r - g) mod m] at index r.
        return list(map(min, zip(*(map(operator.add, level[cut:] + level[:cut], repeat(g))
                                   for cut, g in shifts))))

    level = [0] + [math.inf] * (m - 1)
    while (relaxed := list(map(min, level, step(level)))) != level:
        level = relaxed
    total = sum(level)
    while True:
        level = step(level)
        nxt = sum(level)
        yield (nxt - total) // m
        total = nxt


def hilbert_by_level_sweep(gens, up_to_level: int) -> list[int]:
    """H(0..up_to_level) from `hilbert_levels`."""
    return list(islice(hilbert_levels(gens), up_to_level + 1))
