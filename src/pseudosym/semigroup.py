"""Numerical semigroups from the five-parameter family, plus brute-force oracles.

The constructor realizes the 4-generator parametrization of pseudo-symmetric
semigroups from the parameters (alpha1..alpha4, alpha21).  Everything else in
this module is deliberately independent of the polynomial machinery, so it
can arbitrate results produced by the algebraic route.  One kernel answers
every semigroup question: the Apery set Ap(S, m) of the smallest generator m
gives the Frobenius number, the gaps, the genus, the pseudo-symmetry test and,
through per-level residue minima, the order-counting Hilbert oracle.  The
membership/order table is kept as the brute-force dynamic-programming
reference that the kernel is tested against.
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
    generators: tuple[int, ...]

    def gcd(self) -> int:
        return math.gcd(*self.generators)


@dataclass(frozen=True)
class SemigroupTable:
    """Membership and maximal-order tables for 0..bound.

    order[s] is the largest number of generators (with repetition) summing to
    s, or -1 when s is not in the semigroup.  order[0] = 0.
    """

    bound: int
    member: list[bool]
    order: list[int]


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


def membership_table(S: NumericalSemigroup, bound: int) -> SemigroupTable:
    if bound < 0:
        raise ParameterError(f"bound >= 0 violated (bound={bound})")
    member = [False] * (bound + 1)
    order = [-1] * (bound + 1)
    member[0] = True
    order[0] = 0
    gens = S.generators
    for s in range(1, bound + 1):
        best = -1
        for g in gens:
            if g <= s and member[s - g]:
                prev = order[s - g]
                if prev + 1 > best:
                    best = prev + 1
        if best >= 0:
            member[s] = True
            order[s] = best
    return SemigroupTable(bound, member, order)


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


def genus(S: NumericalSemigroup) -> int:
    """Number of gaps, by Selmer's formula sum(Ap) / m - (m - 1) / 2."""
    ap = apery_set(S)
    m = len(ap)
    return (sum(ap) - m * (m - 1) // 2) // m


def is_pseudo_symmetric(S: NumericalSemigroup) -> bool:
    """Gap-set test: F even and every gap x != F/2 has F - x in S."""
    ap = apery_set(S)
    m = len(ap)
    frobenius = max(ap) - m
    if frobenius < 0 or frobenius % 2 != 0:
        return False
    half = frobenius // 2
    return all(x == half or frobenius - x >= ap[(frobenius - x) % m] for x in _gaps(ap))


def hilbert_oracle(S: NumericalSemigroup, up_to_level: int) -> list[int]:
    """H(0..L) counted combinatorially: H(n) = #{s in S : order(s) = n}.

    The elements of order >= n form nM (M = S minus 0), which is closed under
    adding m, so per residue r it is an arithmetic progression from
    min_n[r].  Hence H(n) = sum_r (min_{n+1}[r] - min_n[r]) / m, with
    min_0 = Ap(S, m) and min_{n+1}[r] = min_g(min_n[(r - g) mod m] + g)
    because (n+1)M = nM + {generators}.  Memory is O(m) whatever L is.

    With gcd d > 1 only the residues that are multiples of d are reached.
    S is then d times the semigroup of the generators divided by d, with the
    same orders, so the counts are taken there.
    """
    if up_to_level < 0:
        raise ParameterError(f"up_to_level >= 0 violated ({up_to_level})")
    d = S.gcd()
    gens = [g // d for g in S.generators]
    level = apery_set(NumericalSemigroup(tuple(gens)))
    m = len(level)
    shifts = [(m - g % m, g) for g in gens]
    total = sum(level)
    counts = []
    for _ in range(up_to_level + 1):
        # level[cut:] + level[:cut] puts min_n[(r - g) mod m] at index r.
        level = list(map(min, *(map(g.__add__, level[cut:] + level[:cut]) for cut, g in shifts)))
        nxt = sum(level)
        counts.append((nxt - total) // m)
        total = nxt
    return counts
