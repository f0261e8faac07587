"""Numerical semigroups from the five-parameter family, plus brute-force oracles.

The constructor realizes the 4-generator parametrization of pseudo-symmetric
semigroups from the parameters (alpha1..alpha4, alpha21); each
`PseudoSymmetricParams` derives its semigroup and its condition flags once,
on the first read, and keeps them beside its fields.  Everything else in
this module is deliberately independent of the polynomial machinery, so it
can arbitrate results produced by the algebraic route.  The Apery set
Ap(S, m) of the smallest generator m, derived once per `NumericalSemigroup`
as `S.apery`, gives the Frobenius number, the gaps, the genus and the
pseudo-symmetry test (a count, 2 * genus = F + 2).  The order-counting
Hilbert oracle does not read it, so it and those facts share no code.  The
oracle keeps the elements of order >= n, shifted down by n * m, as one
big-int bitmap over 0..F + m, a window it reads off its own bitmap of S;
the next level is one shift-or per generator, and H(n) is m minus the
growth of one bit count.  It stops at the plateau H = m.  The maximal-order
table `membership_table` is kept as the brute-force dynamic-programming
reference that the kernel is tested against.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import ParameterError, Record


class PseudoSymmetricParams(Record):
    """The five integers driving the whole construction.

    Requires alpha_i > 1 for i = 1..4 and 0 < alpha21 < alpha1 - 1.  Each
    value must be an `int` (a `bool` is not one).  Equality, the hash, the
    repr and pickling read the five fields alone, not the derived
    `semigroup` and `conditions`.
    """

    _fields = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha21")
    # `__dict__` holds `semigroup` and `conditions` once they are read.
    __slots__ = (*_fields, "__dict__")

    def __init__(self, alpha1: int, alpha2: int, alpha3: int, alpha4: int, alpha21: int):
        # One chained test each on the common path; the loops only name the field.
        if not (type(alpha1) is type(alpha2) is type(alpha3) is type(alpha4) is type(alpha21) is int):
            for name, value in zip(self._fields, (alpha1, alpha2, alpha3, alpha4, alpha21)):
                if type(value) is not int:
                    raise ParameterError(f"{name} must be an int (got {value!r})")
        if alpha1 <= 1 or alpha2 <= 1 or alpha3 <= 1 or alpha4 <= 1:
            for name, value in zip(self._fields, (alpha1, alpha2, alpha3, alpha4)):
                if value <= 1:
                    raise ParameterError(f"{name} > 1 violated ({name}={value})")
        if alpha21 <= 0:
            raise ParameterError(f"alpha21 > 0 violated (alpha21={alpha21})")
        if alpha21 >= alpha1 - 1:
            raise ParameterError(
                f"alpha21 < alpha1 - 1 violated (alpha21={alpha21}, alpha1={alpha1})"
            )
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "alpha3", alpha3)
        object.__setattr__(self, "alpha4", alpha4)
        object.__setattr__(self, "alpha21", alpha21)

    def as_dict(self) -> dict:
        return {
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "alpha3": self.alpha3,
            "alpha4": self.alpha4,
            "alpha21": self.alpha21,
        }

    @cached_property
    def semigroup(self) -> NumericalSemigroup:
        """The four generators, in formula order (not sorted); derived on the first read, then kept."""
        a1, a2, a3, a4, a21 = self.alpha1, self.alpha2, self.alpha3, self.alpha4, self.alpha21
        n1 = a2 * a3 * (a4 - 1) + 1
        n2 = a21 * a3 * a4 + (a1 - a21 - 1) * (a3 - 1) + a3
        n3 = a1 * a4 + (a1 - a21 - 1) * (a2 - 1) * (a4 - 1) - a4 + 1
        n4 = a1 * a2 * (a3 - 1) + a21 * (a2 - 1) + a2
        return NumericalSemigroup((n1, n2, n3, n4))

    @cached_property
    def conditions(self) -> Mapping[str, bool]:
        """The flags `check_conditions` reports, read-only; derived on the first read, then kept."""
        a1, a2, a3, a4, a21 = self.alpha1, self.alpha2, self.alpha3, self.alpha4, self.alpha21
        S = self.semigroup
        n = S.generators
        return MappingProxyType({
            "c1": a1 > a4,
            "c2": a3 < a1 - a21,
            "c3": a4 < a2 + a3 - 1,
            "c4": a2 > a21 + 1,
            "c5": a21 + a3 > a4,
            "c6": a1 + a21 + 1 >= a2 + a4,
            "sorted": n[0] < n[1] < n[2] < n[3],
            "coprime": S.gcd() == 1,
        })


class NumericalSemigroup(Record):
    """The semigroup generated by positive integers.

    An empty tuple or a generator that is not an `int` (a `bool` is not one)
    or is below 1 raises `ParameterError`: the Apery set needs a positive
    smallest generator as its modulus.
    """

    _fields = ("generators",)
    # `__dict__` holds the `apery` property once it is read.
    __slots__ = ("generators", "__dict__")

    def __init__(self, generators: tuple[int, ...]):
        if not generators:
            raise ParameterError(f"generators must be positive integers (got {generators!r})")
        for g in generators:
            if type(g) is not int or g < 1:
                raise ParameterError(f"generators must be positive integers (got {generators!r})")
        object.__setattr__(self, "generators", generators)

    def gcd(self) -> int:
        return math.gcd(*self.generators)

    @cached_property
    def apery(self) -> tuple[int, ...]:
        """Ap(S, m) for the smallest generator m, indexed by residue.

        Entry r is the least element of S congruent to r mod m.  It is built
        by Böcker and Lipták's round-robin recurrence (A fast and simple
        algorithm for the money changing problem, Algorithmica 48, 2007) on
        the first read, and then kept.  Start from Ap(<m>) = [0, inf, ...]
        and add one generator g at a time.  With d = gcd(m, g), the step
        r -> (r + g) mod m walks each residue class p mod d as one cycle of
        m/d residues.  The least entry of a class is already final, so one
        walk round the cycle from it, taking ap[r] = min(ap[r], previous + g)
        at each step, adds g to the class.  A class whose entries are all
        still inf is skipped, and a multiple of m adds nothing.  That is
        O(k * m) time for k generators and O(m) memory.
        """
        if self.gcd() != 1:
            raise ParameterError(f"gcd of generators must be 1 (got {self.gcd()})")
        m = min(self.generators)
        ap = [0] + [math.inf] * (m - 1)
        for g in self.generators:
            d = math.gcd(m, g)
            if d == m:
                continue
            for p in range(d):
                cur = min(ap[p::d])
                if cur == math.inf:
                    continue
                for _ in range(m // d - 1):
                    cur += g
                    r = cur % m
                    if ap[r] < cur:
                        cur = ap[r]
                    else:
                        ap[r] = cur
        return tuple(ap)


def check_conditions(params: PseudoSymmetricParams) -> dict[str, bool]:
    """The six generator inequalities, sortedness, and coprimality, as a fresh dict.

    Non-coprime generators can come out of the formulas (e.g. alpha values
    (5,4,2,2) with alpha21 = 2 give (9,12,15,30)); those tuples do not define
    a numerical semigroup and every downstream result is out of scope for
    them, so the flag is surfaced here and filtered on in the sweep.  The
    flags are derived once per `params`, as `params.conditions`.
    """
    return dict(params.conditions)


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


def _gaps(ap: tuple[int, ...]) -> Iterator[int]:
    """The gaps, residue class by residue class: x is a gap iff x < Ap[x mod m]."""
    m = len(ap)
    return chain.from_iterable(range(r, a, m) for r, a in enumerate(ap))


def frobenius(S: NumericalSemigroup) -> int:
    """The largest non-member, max Ap(S, m) - m; -1 for ⟨1⟩-like inputs with no gaps."""
    ap = S.apery
    return max(ap) - len(ap)


def frobenius_and_gaps(S: NumericalSemigroup) -> tuple[int, list[int]]:
    """The Frobenius number and the full sorted gap list.

    Listing and sorting the gaps costs O(genus log genus); `frobenius` and
    `genus` read the Apery set alone.
    """
    return frobenius(S), sorted(_gaps(S.apery))


def genus(S: NumericalSemigroup) -> int:
    """Number of gaps, by Selmer's formula sum(Ap) / m - (m - 1) / 2, with no gap listed."""
    ap = S.apery
    m = len(ap)
    return (sum(ap) - m * (m - 1) // 2) // m


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
    f = frobenius(S)
    return f % 2 == 0 and 2 * genus(S) == f + 2


# The largest level a caller may ask H up to.  The lists of H that
# `hilbert_oracle` and `hilbert.hilbert_function` return have one entry per
# level, so an unchecked level sizes them; H is constant from its plateau on.
MAX_LEVEL = 100_000


def check_level(level: int) -> None:
    """Raise `ParameterError` unless 0 <= level <= `MAX_LEVEL`."""
    if level < 0:
        raise ParameterError(f"max level >= 0 violated ({level})")
    if level > MAX_LEVEL:
        raise ParameterError(f"max level <= {MAX_LEVEL} violated ({level})")


def hilbert_oracle(S: NumericalSemigroup, up_to_level: int) -> list[int]:
    """H(0..L) counted combinatorially: H(n) = #{s in S : order(s) = n}.

    The elements of order >= n form nM (M = S minus 0, 0M = S), so
    H(n) = #(nM minus (n+1)M).  Take T_n = nM - n*m, shifted down by n*m for
    the smallest generator m, as a bitmap: x is in T_n when x + n*m is in
    nM.  As (n+1)M = nM + G for the generator set G,
    T_{n+1} = union over g in G of (T_n + g - m), one shift-or per generator.

    Only the bits 0..F + m are kept, and they are exact.  Every shift
    g - m is >= 0, so a bit of T_{n+1} depends only on bits of T_n at or below
    it.  In class r mod m an element of order n can only be min_n[r], the least
    element of nM there, and min_n[r] - n*m <= min_0[r] <= F + m: from one
    level to the next min_n[r] stays or grows by m (min_n[r] + m is in
    (n+1)M), and every class has a member in F + 1..F + m.  So every counted
    bit lies in the window.  The int holds the window reversed, bit i
    standing for F + m - i: adding g - m moves bits down, and those that
    leave the window at the top fall off, so no mask is needed.

    The window is read from the bitmap itself.  T_0 = S within 0..B, bit i
    standing for B - i, is built by doubling each generator's multiples; a
    generator above B drops out.  Once the top m elements of 0..B are all
    members, so is everything above B (add m), F is the highest non-member
    and the window is F + m; a right shift drops the B - F - m bits above
    it.  Otherwise B doubles, from 2 * max(G).  It never exceeds
    (m - 1) * g, for the least generator g at which the gcd of the
    generators up to it (sorted) is 1, and that B always passes, so a large
    redundant generator cannot size the window.  Proof (Schur's bound):
    let S' be generated by the generators up to g, and w the least element
    of S' in some class mod m.  As w - m is not in S', w is a sum of t
    generators of S' other than m, each at most g.  Each partial sum p is
    the least of S' in its class, since p - m in S' would put w - m in S';
    so the t + 1 partial sums lie in distinct classes, t <= m - 1 and
    w <= (m - 1) * g.  S contains S', so its least element in each class is
    at most (m - 1) * g, and the largest of those is F + m.  For m = 1 that
    is B = 0 and F = -1: <1, g> is all of N.

    Per class, T_n within the window is the progression from
    min_n[r] - n*m up to F + m in steps of m.  At the next level its start
    moves down by m, one element more, when min_n[r] has order >= n + 1, and
    stays when min_n[r] has order n.  So T_{n+1} contains T_n and
    H(n) = m - (#T_{n+1} - #T_n), one bit count per level.  H(0) = 1.
    H(n) = m exactly when T_{n+1} = T_n; T_{n+1} depends on T_n alone, so
    H stays m from that plateau on, and the remaining levels are filled
    with m.  The memory is O(F + m) bits, whatever L is.

    The same bitmaps give Garcia's Cohen-Macaulay test of the associated
    graded ring: it is CM iff s + m in (n+1)M implies s in nM for every s in
    S, that is iff T_{n+1} & (S - n*m) is a subset of T_n for every n.  A
    witness x = s - n*m of a failure lies in the window: x >= 0 as
    s + m >= (n+1)*m, and x < min_n[r] - n*m <= F + m as s is not in nM.

    With gcd d > 1 only the multiples of d are reached.  S is then d times
    the semigroup of the generators divided by d, with the same orders, so
    the counts are taken there.  The Apery set `S.apery` is not read.
    """
    check_level(up_to_level)
    gens = S.generators
    d = math.gcd(*gens)
    if d > 1:
        gens = [g // d for g in gens]
    m = min(gens)
    p = m
    for g in sorted(gens):
        p = math.gcd(p, g)
        if p == 1:
            break
    cap = (m - 1) * g
    full = (1 << m) - 1
    bound = min(2 * max(gens), cap)
    while True:
        T = 1 << bound  # bit i stands for bound - i
        for g in gens:
            k = g
            while k <= bound:
                T |= T >> k
                k *= 2
        if T & full == full:
            break
        bound = min(2 * bound, cap)
    low = (~T & (T + 1)).bit_length() - 1  # the lowest zero bit stands for F
    T >>= low - m  # now bit i stands for F + m - i
    shifts = [g - m for g in gens if g > m]
    counts = []
    size = T.bit_count()
    h = 0
    while h < m and len(counts) <= up_to_level:
        nxt = T
        for s in shifts:
            nxt |= T >> s
        grown = nxt.bit_count()
        h = m - (grown - size)
        counts.append(h)
        T, size = nxt, grown
    return counts + [m] * (up_to_level + 1 - len(counts))
