"""Generator construction, condition checks, and the brute-force oracles."""

import dataclasses
import math
import random
import tracemalloc

import pytest

from pseudosym.errors import ParameterError
from pseudosym.semigroup import (
    MAX_LEVEL,
    NumericalSemigroup,
    PseudoSymmetricParams,
    check_conditions,
    construct_generators,
    frobenius_and_gaps,
    genus,
    hilbert_oracle,
    is_pseudo_symmetric,
    membership_table,
)

import reference as ref
from conftest import ALL_FIXTURE_TUPLES, TUPLE_41, TUPLE_42, TUPLE_44, engine_box
from oracle_box import apery_fails, facts_fail, oracle_differs
from seed_engine import CLOSURE_BOX_RANGES


def test_generators_first_example():
    assert construct_generators(TUPLE_41).generators == (141, 161, 164, 2092)


def test_generators_second_example_n1():
    assert construct_generators(TUPLE_42).generators[0] == 13 * 5 * 1 + 1 == 66


class TestDerivedOncePerParams:
    """The semigroup and the condition flags are derived on the first read and kept."""

    def test_every_read_is_the_kept_semigroup(self):
        params = PseudoSymmetricParams(16, 20, 7, 2, 8)
        assert construct_generators(params) is construct_generators(params) is params.semigroup
        # an equal params derives its own
        assert construct_generators(PseudoSymmetricParams(16, 20, 7, 2, 8)) is not params.semigroup

    def test_check_conditions_hands_out_a_fresh_dict(self):
        params = PseudoSymmetricParams(16, 20, 7, 2, 8)
        handed = check_conditions(params)
        expected = dict(handed)
        handed["c1"] = not handed["c1"]
        handed["extra"] = True
        del handed["coprime"]
        assert check_conditions(params) == expected == dict(params.conditions)
        assert check_conditions(params) is not check_conditions(params)

    def test_kept_conditions_are_read_only(self):
        params = PseudoSymmetricParams(16, 20, 7, 2, 8)
        with pytest.raises(TypeError):
            params.conditions["c1"] = False
        assert params.conditions["c1"] is True


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


@pytest.mark.parametrize("gens", [(), (0, 1), (-2, 3)])
def test_numerical_semigroup_needs_positive_generators(gens):
    # (0, 1) made the Apery set divide by zero, and (-2, 3) kept its Dijkstra
    # search running forever on a negative edge; both now fail on construction
    with pytest.raises(ParameterError, match="positive"):
        NumericalSemigroup(gens)


@pytest.mark.parametrize("field, value", [
    ("alpha1", 13.0), ("alpha2", 14.0), ("alpha3", "6"), ("alpha4", True), ("alpha21", "3"),
    ("alpha21", None), ("alpha1", 13.5),
])
def test_params_refuse_values_that_are_not_ints(field, value):
    # 13.0 passed the checks and failed later in build_report on a float, "3"
    # raised TypeError from a comparison; a bool is not an int here either
    values = {**TUPLE_44.as_dict(), field: value}
    with pytest.raises(ParameterError, match=rf"^{field} must be an int \(got {value!r}\)$"):
        PseudoSymmetricParams(**values)


@pytest.mark.parametrize("gens", [(True, 3), (3, True), (3.0, 5), (3, "5"), (1.5, 2), (True,)])
def test_numerical_semigroup_refuses_generators_that_are_not_ints(gens):
    # (True, 3) was accepted as <1, 3>
    with pytest.raises(ParameterError, match=r"^generators must be positive integers"):
        NumericalSemigroup(gens)


class TestMembershipTable:
    def test_order_of_generators_is_one(self):
        S = construct_generators(TUPLE_41)
        order = membership_table(S, 2500)
        assert len(order) == 2501 and order[0] == 0
        for n in S.generators[:3]:
            assert order[n] == 1
        assert order[1] == -1

    def test_double_smallest_generator(self):
        S = construct_generators(TUPLE_41)
        order = membership_table(S, 300)
        assert order[282] == 2

    def test_order_superadditive(self):
        S = NumericalSemigroup((5, 6, 7, 8))
        order = membership_table(S, 200)
        members = [s for s in range(1, 80) if order[s] >= 0]
        rng = random.Random(0)
        for _ in range(200):
            a, b = rng.choice(members), rng.choice(members)
            assert order[a + b] >= order[a] + order[b]


class TestGapsAndPseudoSymmetry:
    def test_frobenius_sanity_fixture(self):
        frobenius, gaps = frobenius_and_gaps(NumericalSemigroup((5, 6, 7, 8)))
        assert frobenius == 9
        assert gaps == [1, 2, 3, 4, 9]

    def test_gaps_contain_one(self):
        _, gaps = frobenius_and_gaps(construct_generators(TUPLE_42))
        assert gaps[0] == 1

    def test_noncoprime_rejected(self):
        for query in (frobenius_and_gaps, genus, is_pseudo_symmetric, lambda S: S.apery):
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

    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, 10**20])
    def test_level_above_the_ceiling_rejected(self, level):
        with pytest.raises(ParameterError, match=f"max level <= {MAX_LEVEL} violated"):
            hilbert_oracle(construct_generators(TUPLE_41), level)

    @pytest.mark.parametrize("gens", [(1,), (7,), (2, 2)])
    def test_one_generator_up_to_gcd(self, gens):
        # <g> has one element of each order; the min-plus sweep raised
        # TypeError here, because min got a single iterable of ints
        assert hilbert_oracle(NumericalSemigroup(gens), 3) == [1, 1, 1, 1]
        assert ref.hilbert_by_level_sweep(gens, 3) == [1, 1, 1, 1]

    @pytest.mark.parametrize("gens", [
        (50, 51),  # window F + m = 2499: B doubles five times from 2 * 51, the last cut to 49 * 51
        (2, 3),
        (1, 4, 9),  # m = 1: the window is 0..0
        (12, 20, 30),  # gcd 2: counted on (6, 10, 15), where no generator is coprime to m
        (7, 7, 9, 11), (50, 50, 51),  # m listed twice
    ], ids=str)
    def test_window_edge_cases_match_the_sweep(self, gens):
        S = NumericalSemigroup(gens)
        for level in (0, 3, 60):
            assert hilbert_oracle(S, level) == ref.hilbert_by_level_sweep(gens, level), level
        assert "apery" not in vars(S)

    @pytest.mark.parametrize("gens", [(1, 10**9), (3, 4, 10**9)], ids=str)
    def test_redundant_large_generator_does_not_size_the_window(self, gens):
        # the window is capped by (m - 1) * 4 = 8 for (3, 4, ...) and 0 for
        # m = 1; a 10**9-bit window would take 125 MB
        S = NumericalSemigroup(gens)
        tracemalloc.start()
        try:
            H = hilbert_oracle(S, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10_000
        assert H == ref.hilbert_by_level_sweep(gens, 20)

    def test_plateau_fills_the_remaining_levels(self):
        S = construct_generators(PseudoSymmetricParams(30, 40, 12, 2, 14))
        m = min(S.generators)
        H = hilbert_oracle(S, 100_000)
        assert len(H) == 100_001
        plateau = H.index(m)
        assert H[:plateau + 6] == ref.hilbert_by_level_sweep(S.generators, plateau + 5)
        assert H[plateau:] == [m] * (100_001 - plateau)


def _differential_cases(count, seed):
    """Seeded generator sets: 1-5 generators up to 70, gcd > 1, duplicates and 1 included.

    Two fixed cases sit on the oracle's window edges: (3, 4, 100) has a
    redundant generator whose shift leaves the window, and (3, 6, 7) a
    non-minimal generator that is a multiple of m.
    """
    rng = random.Random(seed)
    cases = [(1,), (70,), (6, 6, 9), (1, 5, 5), (10, 4, 6, 8, 2), (69, 70), (3, 4, 100), (3, 6, 7)]
    while len(cases) < count:
        scale = rng.choice((1, 1, 1, 2, 3, 5))
        gens = [scale * rng.randrange(1, 70 // scale + 1) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.2:
            gens.append(rng.choice(gens))
        cases.append(tuple(gens))
    return cases


class TestAperySet:
    """`S.apery`, derived once per semigroup, against the reference sieve."""

    @pytest.mark.parametrize("gens", _differential_cases(62, seed=29), ids=str)
    def test_matches_reference_sieve(self, gens):
        S = NumericalSemigroup(gens)
        if math.gcd(*gens) > 1:
            with pytest.raises(ParameterError, match="gcd"):
                S.apery
        else:
            assert S.apery == tuple(ref.apery_set(gens))

    @pytest.mark.parametrize("gens", [
        (6, 9, 10), (4, 6, 9),  # gcd(m, g) > 1: the residues split into classes mod d
        (5, 7, 7, 9), (5, 5, 7),  # a repeated generator, and m listed twice
        (4, 8, 5, 12),  # multiples of m add nothing
        (1,), (1, 4, 9),  # m = 1: Ap = (0,)
        (11, 7, 9, 8), (9, 4, 6),  # unsorted: m is not the first generator
    ], ids=str)
    def test_round_robin_edge_cases(self, gens):
        assert NumericalSemigroup(gens).apery == tuple(ref.apery_set(gens))
        assert NumericalSemigroup(gens).apery == ref.apery_dijkstra(gens)

    @pytest.mark.parametrize("gens", [(4, 6), (6, 9, 12), (4, 4)], ids=str)
    def test_gcd_above_one_still_refused(self, gens):
        d = math.gcd(*gens)
        with pytest.raises(ParameterError, match=rf"^gcd of generators must be 1 \(got {d}\)$"):
            NumericalSemigroup(gens).apery

    def test_derived_once_as_a_read_only_tuple(self):
        S = construct_generators(TUPLE_41)
        ap = S.apery
        assert type(ap) is tuple and len(ap) == min(S.generators)
        assert S.apery is ap
        with pytest.raises(dataclasses.FrozenInstanceError):
            S.apery = ()
        assert S.apery is ap


class TestOracleAgainstLevelSweep:
    """The bitmap oracle against the per-level sweep and the order table."""

    @pytest.mark.parametrize("gens", _differential_cases(62, seed=29), ids=str)
    def test_matches_sweep_and_order_table(self, gens):
        S = NumericalSemigroup(gens)
        for level in (0, 1, 5, 40, 200):
            assert hilbert_oracle(S, level) == ref.hilbert_by_level_sweep(gens, level), level
        assert hilbert_oracle(S, 40) == TestAperyKernelAgainstTable.reference_counts(S, 40)

    def test_window_far_above_m(self):
        # m = 19 and max Ap = 957 >= 50 * m: the window is much wider than
        # the residue count.  oracle_differs compares with the sweep up to
        # the plateau + 5.
        params = PseudoSymmetricParams(5, 11, 11, 2, 3)
        # an equal params of its own: reading this semigroup's Apery set
        # leaves the one oracle_differs reads underived
        S = construct_generators(PseudoSymmetricParams(5, 11, 11, 2, 3))
        assert max(S.apery) >= 50 * min(S.generators)
        assert oracle_differs(params) == (11, False, False)
        assert hilbert_oracle(S, 16) == TestAperyKernelAgainstTable.reference_counts(S, 16)

    def test_sample_of_the_closure_box(self):
        # the whole 10,189-tuple box runs in CI: PYTHONPATH=src python tests/oracle_box.py
        sample = random.Random(41).sample(engine_box(CLOSURE_BOX_RANGES), 150)
        results = {p: oracle_differs(p) for p in sample}
        assert [p for p, (_, bad, _) in results.items() if bad] == []
        assert [p for p, (_, _, read) in results.items() if read] == []
        assert [p for p in sample if facts_fail(p)] == []
        assert [p for p in sample if apery_fails(p)] == []
        assert max(plateau for plateau, *_ in results.values()) > 20


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
            order = membership_table(S, bound)
            run = 0
            for s in range(bound + 1):
                run = run + 1 if order[s] >= 0 else 0
                if run == m:
                    return order, [x for x in range(s - m + 1) if order[x] < 0]
            bound *= 2

    @staticmethod
    def reference_counts(S, level):
        orders = membership_table(S, (level + 1) * max(S.generators))
        return [orders.count(n) for n in range(level + 1)]

    @pytest.mark.parametrize("S", KERNEL_CASES, ids=lambda S: str(S.generators))
    def test_matches_dp(self, S):
        order, gaps = self.reference_table(S)
        ap = S.apery
        m = min(S.generators)
        for r in range(m):
            first = next(s for s in range(r, len(order), m) if order[s] >= 0)
            assert ap[r] == first
        frobenius = gaps[-1] if gaps else -1
        assert frobenius_and_gaps(S) == (frobenius, gaps)
        assert genus(S) == len(gaps)
        assert 2 * sum(ap) - m * (m - 1) == 2 * m * len(gaps)  # Selmer's formula
        assert hilbert_oracle(S, 25) == self.reference_counts(S, 25)

    @pytest.mark.parametrize("S", KERNEL_CASES, ids=lambda S: str(S.generators))
    def test_counting_test_agrees_with_apery_maxima(self, S):
        # S is pseudo-symmetric iff the maximal elements of Ap(S, m) under
        # a <=_S b (b - a in S) are exactly {F + m, F/2 + m}.
        ap = S.apery
        m = len(ap)
        frobenius = max(ap) - m
        order = membership_table(S, max(ap))
        maximal = {a for a in ap
                   if not any(b != a and b >= a and order[b - a] >= 0 for b in ap)}
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
    assert "apery" not in vars(S)
