"""Generator construction, condition checks, and the brute-force oracles."""

import math
import random
import tracemalloc

import pytest

from pseudosym.errors import ParameterError
from pseudosym.semigroup import (
    NumericalSemigroup,
    PseudoSymmetricParams,
    apery_set,
    check_conditions,
    construct_generators,
    frobenius_and_gaps,
    genus,
    hilbert_oracle,
    is_pseudo_symmetric,
    membership_table,
)

from conftest import ALL_FIXTURE_TUPLES, TUPLE_41, TUPLE_42


def test_generators_first_example():
    assert construct_generators(TUPLE_41).generators == (141, 161, 164, 2092)


def test_generators_second_example_n1():
    assert construct_generators(TUPLE_42).generators[0] == 13 * 5 * 1 + 1 == 66


def test_invalid_alpha21_rejected():
    with pytest.raises(ParameterError, match=r"alpha21 < alpha1 - 1 violated"):
        PseudoSymmetricParams(16, 20, 7, 2, 15)
    with pytest.raises(ParameterError, match=r"alpha21 > 0 violated"):
        PseudoSymmetricParams(16, 20, 7, 2, 0)
    with pytest.raises(ParameterError, match=r"alpha3 > 1 violated"):
        PseudoSymmetricParams(16, 20, 1, 2, 8)


def test_conditions_on_first_example():
    conds = check_conditions(TUPLE_41)
    assert all(conds[c] for c in ("c1", "c2", "c3", "c4", "c5", "c6"))
    assert conds["sorted"] and conds["coprime"]


def test_condition_one_fails_when_alpha4_matches_alpha1():
    conds = check_conditions(PseudoSymmetricParams(5, 9, 2, 5, 2))
    assert not conds["c1"]


def test_sorted_plus_c4_imply_c5_and_c6():
    # Sorted generators plus condition (4) force (5) and (6) across a sample.
    rng = random.Random(7)
    seen = 0
    while seen < 300:
        a1 = rng.randrange(3, 15)
        p_values = (a1, rng.randrange(2, 15), rng.randrange(2, 15),
                    rng.randrange(2, 15), rng.randrange(1, a1 - 1))
        params = PseudoSymmetricParams(*p_values)
        conds = check_conditions(params)
        if not (conds["sorted"] and conds["c4"]):
            continue
        seen += 1
        assert conds["c5"], params
        assert conds["c6"], params


class TestMembershipTable:
    def test_order_of_generators_is_one(self):
        S = construct_generators(TUPLE_41)
        table = membership_table(S, 2500)
        assert table.order[0] == 0
        for n in S.generators[:3]:
            assert table.order[n] == 1
        assert table.member[1] is False

    def test_double_smallest_generator(self):
        S = construct_generators(TUPLE_41)
        table = membership_table(S, 300)
        assert table.order[282] == 2

    def test_order_superadditive(self):
        S = NumericalSemigroup((5, 6, 7, 8))
        table = membership_table(S, 200)
        members = [s for s in range(1, 80) if table.member[s]]
        rng = random.Random(0)
        for _ in range(200):
            a, b = rng.choice(members), rng.choice(members)
            assert table.order[a + b] >= table.order[a] + table.order[b]


class TestGapsAndPseudoSymmetry:
    def test_frobenius_sanity_fixture(self):
        frobenius, gaps = frobenius_and_gaps(NumericalSemigroup((5, 6, 7, 8)))
        assert frobenius == 9
        assert gaps == [1, 2, 3, 4, 9]

    def test_gaps_contain_one(self):
        _, gaps = frobenius_and_gaps(construct_generators(TUPLE_42))
        assert gaps[0] == 1

    def test_noncoprime_rejected(self):
        for query in (frobenius_and_gaps, genus, is_pseudo_symmetric, apery_set):
            with pytest.raises(ParameterError, match="gcd"):
                query(NumericalSemigroup((4, 6, 8, 10)))

    def test_classic_three_generator_case_is_pseudo_symmetric(self):
        # gaps of <3,5,7> are {1,2,4}: F=4 is even and 4-1, 4-4 are members
        assert is_pseudo_symmetric(NumericalSemigroup((3, 5, 7))) is True

    def test_symmetric_case_is_not(self):
        # <3,5> has odd Frobenius number 7
        assert is_pseudo_symmetric(NumericalSemigroup((3, 5))) is False

    def test_odd_frobenius_fails_fast(self):
        assert is_pseudo_symmetric(NumericalSemigroup((5, 6, 7, 8))) is False

    def test_constructed_semigroups_pass_the_oracle(self):
        rng = random.Random(3)
        checked = 0
        while checked < 25:
            a1 = rng.randrange(3, 9)
            params = PseudoSymmetricParams(
                a1, rng.randrange(2, 9), rng.randrange(2, 9),
                rng.randrange(2, 9), rng.randrange(1, a1 - 1))
            S = construct_generators(params)
            if S.gcd() != 1:
                continue
            checked += 1
            assert is_pseudo_symmetric(S), params

    def test_genus_identity(self):
        # pseudo-symmetric semigroups have exactly (F + 2) / 2 gaps
        for params in (TUPLE_41, TUPLE_42):
            S = construct_generators(params)
            frobenius, gaps = frobenius_and_gaps(S)
            assert frobenius % 2 == 0
            assert len(gaps) == (frobenius + 2) // 2
            assert genus(S) == len(gaps)


class TestHilbertOracle:
    def test_level_zero_and_one(self):
        S = construct_generators(TUPLE_41)
        H = hilbert_oracle(S, 3)
        assert H[0] == 1
        assert H[1] == 4

    def test_eventually_constant_at_multiplicity(self):
        S = construct_generators(PseudoSymmetricParams(5, 3, 2, 2, 1))
        H = hilbert_oracle(S, 20)
        assert H[-3:] == [min(S.generators)] * 3

    def test_negative_level_rejected(self):
        with pytest.raises(ParameterError):
            hilbert_oracle(construct_generators(TUPLE_41), -1)


def _random_coprime_semigroups(count, seed):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        gens = tuple(rng.randrange(2, 61) for _ in range(rng.choice((3, 4))))
        if math.gcd(*gens) == 1:
            found.append(NumericalSemigroup(gens))
    return found


KERNEL_CASES = _random_coprime_semigroups(40, seed=11) + [
    construct_generators(params) for params, _ in ALL_FIXTURE_TUPLES
]


class TestAperyKernelAgainstTable:
    """The Apery kernel against the membership/order DP, which shares no code with it."""

    @staticmethod
    def reference_table(S):
        """Table doubled until it holds a run of m members, which starts at the conductor."""
        m = min(S.generators)
        bound = 2 * max(S.generators)
        while True:
            table = membership_table(S, bound)
            run = 0
            for s in range(bound + 1):
                run = run + 1 if table.member[s] else 0
                if run == m:
                    return table, [x for x in range(s - m + 1) if not table.member[x]]
            bound *= 2

    @staticmethod
    def reference_counts(S, level):
        orders = membership_table(S, (level + 1) * max(S.generators)).order
        return [orders.count(n) for n in range(level + 1)]

    @pytest.mark.parametrize("S", KERNEL_CASES, ids=lambda S: str(S.generators))
    def test_matches_dp(self, S):
        table, gaps = self.reference_table(S)
        ap = apery_set(S)
        m = min(S.generators)
        for r in range(m):
            first = next(s for s in range(r, table.bound + 1, m) if table.member[s])
            assert ap[r] == first
        frobenius = gaps[-1] if gaps else -1
        assert frobenius_and_gaps(S) == (frobenius, gaps)
        assert genus(S) == len(gaps)
        assert 2 * sum(ap) - m * (m - 1) == 2 * m * len(gaps)  # Selmer's formula
        assert hilbert_oracle(S, 25) == self.reference_counts(S, 25)

    @pytest.mark.parametrize("S", KERNEL_CASES, ids=lambda S: str(S.generators))
    def test_gap_set_test_agrees_with_apery_maxima(self, S):
        # S is pseudo-symmetric iff the maximal elements of Ap(S, m) under
        # a <=_S b (b - a in S) are exactly {F + m, F/2 + m}.
        ap = apery_set(S)
        m = len(ap)
        frobenius = max(ap) - m
        table = membership_table(S, max(ap))
        maximal = {a for a in ap
                   if not any(b != a and b >= a and table.member[b - a] for b in ap)}
        criterion = frobenius % 2 == 0 and maximal == {frobenius + m, frobenius // 2 + m}
        assert is_pseudo_symmetric(S) == criterion


def test_oracle_handles_noncoprime_generators():
    S = NumericalSemigroup((4, 6, 8, 10))
    assert hilbert_oracle(S, 6) == [1, 2, 2, 2, 2, 2, 2]
    assert hilbert_oracle(S, 12) == TestAperyKernelAgainstTable.reference_counts(S, 12)


def test_oracle_memory_does_not_grow_with_level():
    S = construct_generators(PseudoSymmetricParams(30, 40, 12, 2, 14))
    tracemalloc.start()
    try:
        hilbert_oracle(S, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
