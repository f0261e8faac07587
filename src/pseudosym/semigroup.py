"""Numerical semigroups from the five-parameter family, plus brute-force oracles.

The constructor realizes the 4-generator parametrization of pseudo-symmetric
semigroups from the parameters (alpha1..alpha4, alpha21).  Everything else in
this module is deliberately independent of the polynomial machinery, so it
can arbitrate results produced by the algebraic route.  One kernel answers
every semigroup question: the Apery set Ap(S, m) of the smallest generator m
gives the Frobenius number, the gaps, the genus, the pseudo-symmetry test
(a count, 2 * genus = F + 2) and the order-counting Hilbert oracle.  The
oracle starts from Ap(S, m) as the least elements of order >= 0 per residue
and follows only the residues whose least element does not advance by m to
the next level, until none is left: from that plateau on H = m.  The
maximal-order table `membership_table` is kept as the brute-force
dynamic-programming reference that the kernel is tested against.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .errors import ParameterError


@dataclass(frozen=True)
class PseudoSymmetricParams:
    """The five integers driving the whole construction.

    Requires alpha_i > 1 for i = 1..4 and 0 < alpha21 < alpha1 - 1.
    """

    alpha1: int
    alpha2: int
    alpha3: int
    alpha4: int
    alpha21: int

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alpha3", "alpha4"):
            if getattr(self, name) <= 1:
                raise ParameterError(f"{name} > 1 violated ({name}={getattr(self, name)})")
        if self.alpha21 <= 0:
            raise ParameterError(f"alpha21 > 0 violated (alpha21={self.alpha21})")
        if self.alpha21 >= self.alpha1 - 1:
            raise ParameterError(
                f"alpha21 < alpha1 - 1 violated (alpha21={self.alpha21}, alpha1={self.alpha1})"
            )

    def as_dict(self) -> dict:
        return {
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "alpha3": self.alpha3,
            "alpha4": self.alpha4,
            "alpha21": self.alpha21,
        }


@dataclass(frozen=True)
class NumericalSemigroup:
    """The semigroup generated by positive integers.

    An empty tuple or a generator below 1 raises `ParameterError`: the
    Apery set needs a positive smallest generator as its modulus, and its
    Dijkstra search needs edges of nonnegative weight.
    """

    generators: tuple[int, ...]

    def __post_init__(self):
        if not self.generators or min(self.generators) < 1:
            raise ParameterError(f"generators must be positive integers (got {self.generators!r})")

    def gcd(self) -> int:
        return math.gcd(*self.generators)


def construct_generators(params: PseudoSymmetricParams) -> NumericalSemigroup:
    """The four generators, in formula order (not sorted)."""
    a1, a2, a3, a4, a21 = (
        params.alpha1,
        params.alpha2,
        params.alpha3,
        params.alpha4,
        params.alpha21,
    )
    n1 = a2 * a3 * (a4 - 1) + 1
    n2 = a21 * a3 * a4 + (a1 - a21 - 1) * (a3 - 1) + a3
    n3 = a1 * a4 + (a1 - a21 - 1) * (a2 - 1) * (a4 - 1) - a4 + 1
    n4 = a1 * a2 * (a3 - 1) + a21 * (a2 - 1) + a2
    return NumericalSemigroup((n1, n2, n3, n4))


def check_conditions(params: PseudoSymmetricParams) -> dict[str, bool]:
    """The six generator inequalities, sortedness, and coprimality.

    Non-coprime generators can come out of the formulas (e.g. alpha values
    (5,4,2,2) with alpha21 = 2 give (9,12,15,30)); those tuples do not define
    a numerical semigroup and every downstream result is out of scope for
    them, so the flag is surfaced here and filtered on in the sweep.
    """
    a1, a2, a3, a4, a21 = (
        params.alpha1,
        params.alpha2,
        params.alpha3,
        params.alpha4,
        params.alpha21,
    )
    S = construct_generators(params)
    n = S.generators
    return {
        "c1": a1 > a4,
        "c2": a3 < a1 - a21,
        "c3": a4 < a2 + a3 - 1,
        "c4": a2 > a21 + 1,
        "c5": a21 + a3 > a4,
        "c6": a1 + a21 + 1 >= a2 + a4,
        "sorted": n[0] < n[1] < n[2] < n[3],
        "coprime": S.gcd() == 1,
    }


def membership_table(S: NumericalSemigroup, bound: int) -> list[int]:
    """The maximal-order table of 0..bound, by dynamic programming.

    order[s] is the largest number of generators (with repetition) summing
    to s, or -1 when s is not in the semigroup, so s is in S iff
    order[s] >= 0.  order[0] = 0.
    """
    if bound < 0:
        raise ParameterError(f"bound >= 0 violated (bound={bound})")
    order = [-1] * (bound + 1)
    order[0] = 0
    gens = S.generators
    for s in range(1, bound + 1):
        order[s] = max((order[s - g] + 1 for g in gens if g <= s and order[s - g] >= 0), default=-1)
    return order


def apery_set(S: NumericalSemigroup) -> list[int]:
    """Ap(S, m) for the smallest generator m, indexed by residue.

    Entry r is the least element of S congruent to r mod m.  It is found by
    Dijkstra over the m residues, with an edge r -> (r + g) mod m of weight g
    for every generator g.
    """
    if S.gcd() != 1:
        raise ParameterError(f"gcd of generators must be 1 (got {S.gcd()})")
    m = min(S.generators)
    ap = [0] + [math.inf] * (m - 1)
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > ap[r]:
            continue
        for g in S.generators:
            e = d + g
            t = e % m
            if e < ap[t]:
                ap[t] = e
                heapq.heappush(heap, (e, t))
    return ap


def _gaps(ap: list[int]) -> Iterator[int]:
    """The gaps, residue class by residue class: x is a gap iff x < Ap[x mod m]."""
    m = len(ap)
    return chain.from_iterable(range(r, a, m) for r, a in enumerate(ap))


def frobenius_and_gaps(S: NumericalSemigroup) -> tuple[int, list[int]]:
    """Largest non-member (max Ap - m) and the full sorted gap list.

    For ⟨1⟩-like inputs with no gaps the Frobenius number is reported as -1.
    """
    ap = apery_set(S)
    return max(ap) - len(ap), sorted(_gaps(ap))


def _genus(ap: list[int]) -> int:
    """Number of gaps, by Selmer's formula sum(Ap) / m - (m - 1) / 2."""
    m = len(ap)
    return (sum(ap) - m * (m - 1) // 2) // m


def genus(S: NumericalSemigroup) -> int:
    """Number of gaps, by Selmer's formula on Ap(S, m)."""
    return _genus(apery_set(S))


def is_pseudo_symmetric(S: NumericalSemigroup) -> bool:
    """Counting test on Ap(S, m): F even and 2 * genus = F + 2.

    s -> F - s maps the F + 1 - genus members of [0, F] one-to-one into the
    gaps, since F - s in S would put F in S.  When F is even it misses F/2,
    a gap because 2 * (F/2) = F is not in S.  So F + 1 - genus <= genus - 1,
    that is 2 * genus >= F + 2, with equality exactly when the image is every
    gap but F/2: when every gap x != F/2 has F - x in S, which is
    pseudo-symmetry.  The genus comes from Selmer's formula, so no gap is
    listed.  ⟨1⟩ has F = -1, which is odd.
    """
    ap = apery_set(S)
    frobenius = max(ap) - len(ap)
    return frobenius % 2 == 0 and 2 * _genus(ap) == frobenius + 2


def hilbert_oracle(S: NumericalSemigroup, up_to_level: int) -> list[int]:
    """H(0..L) counted combinatorially: H(n) = #{s in S : order(s) = n}.

    The elements of order >= n form nM (M = S minus 0), which is closed under
    adding m, so per residue r it is an arithmetic progression from
    min_n[r], the least element of nM in class r mod m, and
    H(n) = sum_r (min_{n+1}[r] - min_n[r]) / m with min_0 = Ap(S, m).  Each
    difference is 0 or m: (n+1)M lies in nM, and min_n[r] + m lies in
    (n+1)M.  Call r stuck at n when its difference is 0, so
    H(n) = m - #stuck_n.

    r is stuck at n + 1 exactly when min_{n+1}[r] = min_{n+1}[r - g] + g for
    a generator g != m, and then r - g is stuck at n: were it not, that sum
    would be min_n[r - g] + g + m, above min_n[r - g] + g, which lies in
    (n+1)M and in class r.  So only stuck residues are touched.  b[r] holds
    min_n[r] - n*m: it drops by m where r is stuck, and the residues stuck
    at n + 1 are the (r + g) mod m, r stuck at n, with
    b[r] + g = b[(r + g) mod m].  Every residue but 0 is stuck at 0, since
    0 is the only element of order 0, so H(0) = 1.  Once no residue
    is stuck none ever is again, and H = m from that plateau on.  The work
    is sum_n (m - H(n)) tests per generator and the memory O(m), whatever L
    is.

    With gcd d > 1 only the residues that are multiples of d are reached.
    S is then d times the semigroup of the generators divided by d, with the
    same orders, so the counts are taken there.
    """
    if up_to_level < 0:
        raise ParameterError(f"up_to_level >= 0 violated ({up_to_level})")
    d = S.gcd()
    gens = [g // d for g in S.generators]
    b = apery_set(NumericalSemigroup(tuple(gens)))
    m = len(b)
    steps = {g for g in gens if g % m}
    stuck = range(1, m)
    counts = []
    while stuck and len(counts) <= up_to_level:
        counts.append(m - len(stuck))
        for r in stuck:
            b[r] -= m
        stuck = {t for r in stuck for g in steps if b[r] + g == b[t := (r + g) % m]}
    return counts + [m] * (up_to_level + 1 - len(counts))
