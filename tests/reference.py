"""Reference routes the tests compare the package against.

Nothing here imports from `pseudosym`, so a shared defect cannot make both
sides agree.  A polynomial in t is a dict from exponent to nonzero integer
coefficient; `from_list` and `to_list` convert from and to the package's
dense coefficient lists.  A monomial is a tuple of exponents, and a term a
(coefficient, exponents) pair; `terms` reads a package polynomial's terms
off its parts `lead` and `tail`, and `with_order` rebuilds a package
polynomial from them under another order.

The five record types at the end are the package's records as frozen
dataclasses, with their fields, defaults and checks; a failed check raises
`ValueError`, the base of the package's `ParameterError`, with the
package's message.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from itertools import islice, repeat


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
    The subsets are summed grouped by their lcm: adding a generator g to
    every subset counted so far sends the signed count of an lcm L to
    lcm(L, g) with its sign flipped, so the cost follows the number of
    distinct lcms, not 2^len(gens).
    """
    gens = list(gens)
    one = tuple(0 for _ in gens[0]) if gens else ()
    signed = {one: 1}  # the empty subset, whose lcm is 1
    for g in gens:
        for lcm, count in list(signed.items()):
            key = tuple(map(max, lcm, g))
            signed[key] = signed.get(key, 0) - count
    out: dict[int, int] = {}
    for lcm, count in signed.items():
        out[sum(lcm)] = out.get(sum(lcm), 0) + count
    return clean(out)


def closed_form_second_series(params, k: int) -> dict[int, int]:
    """The family's second series as the README proposition writes it, in blocks.

    Q = 1 + t + t*[k*a2] + sum_{i=0..a3-2} t^(1+i)*[a2] - t^(a21+1) - sum_{j=2..k} t^(e_j)*[a2]
    with [L] = 1 + ... + t^(L-1) and e_j = (k-j)*a1 + (k-j+2)*a21 + a3 + j - k:
    the tail blocks come from -r2(t) divided by (1-t).  There is no regime
    check.  `params` needs only the attributes alpha1, alpha2, alpha3 and
    alpha21.
    """
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    block = geom(a2)
    Q = add({0: 1}, tpow(1), mul(tpow(1), geom(k * a2)), tpow(a21 + 1, -1))
    for i in range(a3 - 1):
        Q = add(Q, mul(tpow(1 + i), block))
    for j in range(2, k + 1):
        e = (k - j) * a1 + (k - j + 2) * a21 + a3 + j - k
        Q = add(Q, mul(tpow(e, -1), block))
    return Q


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


def tail_length(params, strict: bool = False) -> int | None:
    """The smallest k in 1..a3 with k*(a2+1) <= (k-1)*a1 + (k+1)*a21 + a3, or None.

    Strict mode uses <.  This is the closed form's defining inequality with
    no regime check: any tuple gets an answer, and the bound a3 keeps the
    tail's X3 exponent a3 - k nonnegative.  `params` needs only the
    attributes alpha1, alpha2, alpha3 and alpha21.
    """
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    for k in range(1, a3 + 1):
        lhs, rhs = k * (a2 + 1), (k - 1) * a1 + (k + 1) * a21 + a3
        if (lhs < rhs) if strict else (lhs <= rhs):
            return k
    return None


def order_key(order, m: tuple[int, ...]) -> tuple[int, ...]:
    """A sort key of x^m under the local degrevlex order with field `precedence`.

    Larger keys are larger monomials: total degree first, negated, as the
    lower degree wins, then the exponents negated and read from the least
    significant variable, where the smaller exponent wins.
    """
    return (-sum(m), *(-m[i] for i in reversed(order.precedence)))


def minimal_monomials(gens) -> set[tuple[int, ...]]:
    """Minimal generators of the monomial ideal spanned by `gens`, by pairwise division."""
    gens = set(gens)
    return {m for m in gens
            if not any(g != m and all(a <= b for a, b in zip(g, m)) for g in gens)}


VAR_NAMES = ("X1", "X2", "X3", "X4")


def render_terms(terms) -> str:
    """Signed terms, leading first, as text like ``X1^16-X3*X4``; "0" for none.

    A term is a (coefficient, exponents) pair; each is written as its sign
    and its factors, and a leading "+" is dropped.
    """
    if not terms:
        return "0"
    chunks: list[str] = []
    for coeff, mono in terms:
        body = "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(VAR_NAMES, mono) if e)
        chunks.append(("-" if coeff < 0 else "+") + (body or "1"))
    text = "".join(chunks)
    return text[1:] if text.startswith("+") else text


def terms(f) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The nonzero (coefficient, exponents) terms of a package polynomial, leading first.

    Read off its parts: x^lead - x^tail, where `lead` is None for zero and
    `tail` is None for a monomial.
    """
    if f.lead is None:
        return ()
    if f.tail is None:
        return ((1, f.lead),)
    return ((1, f.lead), (-1, f.tail))


def with_order(f, order):
    """f rebuilt by its class's validating constructor, its lead decided under `order`.

    A binomial whose lead `order` puts the other way comes back as its
    negative, x^tail - x^lead.
    """
    return type(f)(terms(f), order)


def basis_term_sets(bases) -> frozenset:
    """The basis as a set of signed term sets, each flipped to a positive leading term.

    `bases` holds each element's (coefficient, exponents) terms, leading
    first; zero has none.
    """
    return frozenset(
        frozenset((-c, m) for c, m in terms) if terms and terms[0][0] < 0 else frozenset(terms)
        for terms in bases
    )


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


def apery_dijkstra(gens) -> tuple[int, ...]:
    """Ap(S, m) for the smallest generator m, by residue, by Dijkstra.

    A shortest-path search over the m residues, with an edge
    r -> (r + g) mod m of weight g for every generator g; it shares no step
    with the package's round-robin recurrence.  `gens` must have gcd 1.
    """
    m = min(gens)
    ap = [0] + [math.inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > ap[r]:
            continue
        for g in gens:
            e = d + g
            t = e % m
            if e < ap[t]:
                ap[t] = e
                heapq.heappush(heap, (e, t))
    return tuple(ap)


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


# -- the records as frozen dataclasses -----------------------------------------

@dataclass(frozen=True)
class PseudoSymmetricParams:
    alpha1: int
    alpha2: int
    alpha3: int
    alpha4: int
    alpha21: int

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3", "alpha4"):
            if getattr(self, name) <= 1:
                raise ValueError(f"{name} > 1 violated ({name}={getattr(self, name)})")
        if self.alpha21 <= 0:
            raise ValueError(f"alpha21 > 0 violated (alpha21={self.alpha21})")
        if self.alpha21 >= self.alpha1 - 1:
            raise ValueError(
                f"alpha21 < alpha1 - 1 violated (alpha21={self.alpha21}, alpha1={self.alpha1})"
            )


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]

    def __post_init__(self):
        if not self.generators or min(self.generators) < 1:
            raise ValueError(f"generators must be positive integers (got {self.generators!r})")


@dataclass(frozen=True)
class MonomialOrder:
    precedence: tuple[int, ...] = (0, 1, 2, 3)
    _least_first: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.precedence) != list(range(4)):
            raise ValueError(f"precedence must be a permutation of 0..3, got {self.precedence!r}")
        object.__setattr__(self, "_least_first", self.precedence[::-1])


@dataclass(frozen=True)
class ClosedFormBasis:
    k: int
    elements: tuple


@dataclass(frozen=True)
class SweepConfig:
    alpha1: tuple[int, int] = (2, 8)
    alpha2: tuple[int, int] = (2, 8)
    alpha3: tuple[int, int] = (2, 8)
    alpha4: tuple[int, int] = (2, 2)
    alpha21: tuple[int, int] = (1, 7)
    require_sorted: bool = True
    require_c4: bool = True
    k_filter: int | None = None
    jobs: int = 1
    max_level: int | None = None

    def __post_init__(self):
        for key in ("alpha1", "alpha2", "alpha3", "alpha4", "alpha21"):
            lo, hi = getattr(self, key)
            if lo > hi:
                raise ValueError(f"empty range for {key}: {lo}..{hi}")
        if self.alpha1[0] < 2 or self.alpha2[0] < 2 or self.alpha3[0] < 2 or self.alpha4[0] < 2:
            raise ValueError("alpha ranges must start at 2 or above")
        if self.alpha21[0] < 1:
            raise ValueError("alpha21 range must start at 1 or above")
        if self.jobs < 1:
            raise ValueError(f"jobs >= 1 violated (jobs={self.jobs})")
        if self.max_level is not None and self.max_level < 0:
            raise ValueError(f"max level >= 0 violated ({self.max_level})")
        if self.max_level is not None and self.max_level > 100_000:
            raise ValueError(f"max level <= 100000 violated ({self.max_level})")
        if self.k_filter is not None and self.k_filter < 1:
            raise ValueError(f"k >= 1 violated (k={self.k_filter})")
