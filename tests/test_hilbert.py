"""Pivot recursion, closed-form series, division, and the function reports."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import reference as ref
from pseudosym import hilbert
from pseudosym.errors import InconsistencyError, ParameterError
from pseudosym.hilbert import (
    add_shifted,
    closed_form_numerator,
    divide_by_one_minus_t,
    hilbert_function,
    hilbert_numerator,
    monomial_colon,
    parse_numerator,
    second_series,
)
from pseudosym.pipeline import engine_basis, hilbert_section, load_fixture_numerator
from pseudosym.semigroup import PseudoSymmetricParams, check_conditions, hilbert_oracle
from pseudosym.stdbasis import leading_ideal
from pseudosym.toric import closed_form_basis, compute_k, toric_generators

from closed_form_box import check_tuple, regime_tuples
from conftest import (
    FAMILY_BOX_RANGES,
    FAMILY_TUPLES,
    TUPLE_41,
    TUPLE_42,
    engine_box,
    family_box,
    in_family,
    monomial_lists,
)


def random_ideal(rng, max_gens=5, max_deg=6):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        while True:
            m = tuple(rng.randrange(0, max_deg + 1) for _ in range(4))
            if 0 < sum(m) <= max_deg:
                gens.append(m)
                break
    return gens


# The large alpha4 = 2 family box of the benchmark.
LARGE_BOX_RANGES = (range(20, 33), range(15, 41), range(4, 13), (2,), range(1, 31))


def large_box_draw(seed: int, size: int) -> list[PseudoSymmetricParams]:
    """`size` distinct family tuples of the large box, drawn uniformly by rejection."""
    rng = random.Random(seed)
    drawn: dict[tuple[int, ...], None] = {}
    while len(drawn) < size:
        t = tuple(rng.choice(r) for r in LARGE_BOX_RANGES)
        if in_family(t):
            drawn[t] = None
    return [PseudoSymmetricParams(*t) for t in drawn]


def stored(params) -> list[int]:
    """The stored numerator fixture of `params` as a coefficient list."""
    return ref.to_list(dict(load_fixture_numerator(params)))


def pairs(p: list[int]) -> list[list[int]]:
    return [[e, v] for e, v in enumerate(p) if v]


class TestUniPoly:
    def test_parse_render_roundtrip(self):
        text = "1-3*t^2+3*t^3-t^4-t^7+t^8"
        assert parse_numerator(text) == [[0, 1], [2, -3], [3, 3], [4, -1], [7, -1], [8, 1]]
        # like terms are collected and a zero sum is dropped
        assert parse_numerator("1-t+2*t^3+t-3*t^3+t^3") == [[0, 1]]

    @pytest.mark.parametrize("text", ["1--t", "1-t-", "1+-t^2", "1-t^", "1-t^2^3"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_numerator(text)

    def test_geom_blocks(self):
        assert divide_by_one_minus_t([1, 0, 0, -1]) == [1, 1, 1]
        assert add_shifted([1], -1, 0, [1]) == []
        assert add_shifted([1] * 5, -1, 1, [1] * 5) == [1, 0, 0, 0, 0, -1]


class TestPivotRecursion:
    def test_empty_ideal(self):
        assert hilbert_numerator([]) == [1]

    def test_principal_ideal(self):
        assert hilbert_numerator([(1, 0, 0, 0)]) == [1, -1]

    def test_unit_ideal(self):
        # the unit alone is a complete intersection: 1 - t^0 = 0
        assert hilbert_numerator([(0, 0, 0, 0)]) == []
        assert hilbert_numerator([(0, 0, 0, 0), (1, 0, 0, 0)]) == []

    def test_complete_intersection(self):
        P = hilbert_numerator([(0, 0, 0, 1), (0, 2, 0, 0), (0, 0, 1, 0)])
        assert P == [1, -2, 0, 2, -1]
        assert P == ref.to_list(ref.mul(ref.ONE_MINUS_T, ref.ONE_MINUS_T, {0: 1, 2: -1}))

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_matches_stored_numerators(self, engine_bases, params):
        P = hilbert_numerator(leading_ideal(engine_bases[params]))
        assert pairs(P) == load_fixture_numerator(params)

    def test_thousand_generators_need_no_deep_recursion(self):
        # (X1, X2)^1200 once raised RecursionError: the split chain recursed
        # once per generator.  A power (X1, X2)^d in four variables has the
        # numerator 1 - (d+1) t^d + d t^(d+1).
        d = 1200
        P = hilbert_numerator([(i, d - i, 0, 0) for i in range(d + 1)])
        assert P == [1] + [0] * (d - 1) + [-(d + 1), d]

    def test_wide_ideal_matches_inclusion_exclusion(self):
        # the 91 monomials of degree 12 in X1..X3: a split chain 90 long
        gens = [(a, b, 12 - a - b, 0) for a in range(13) for b in range(13 - a)]
        assert hilbert_numerator(gens) == ref.to_list(ref.taylor_numerator(gens))

    def test_random_ideals_match_inclusion_exclusion(self):
        rng = random.Random(5)
        for _ in range(40):
            gens = random_ideal(rng)
            assert hilbert_numerator(gens) == ref.to_list(ref.taylor_numerator(gens)), gens

    def test_benchmark_box_ideals_match_inclusion_exclusion(self):
        # the leading ideals of every verify op of the family_sweep and engine_offfamily workloads
        box = family_box(FAMILY_BOX_RANGES) + engine_box()
        assert len(box) == 233 + 782
        for params in box:
            lead = leading_ideal(engine_basis(params, toric_generators(params)))
            assert hilbert_numerator(lead) == ref.to_list(ref.taylor_numerator(lead)), params

    def test_large_box_draw_matches_inclusion_exclusion(self):
        for params in large_box_draw(seed=25, size=100):
            lead = leading_ideal(engine_basis(params, toric_generators(params)))
            assert hilbert_numerator(lead) == ref.to_list(ref.taylor_numerator(lead)), params

    def test_counts_match_direct_enumeration(self):
        rng = random.Random(6)
        for _ in range(25):
            gens = random_ideal(rng)
            P = hilbert_numerator(gens)
            coeffs = ref.quotient_hilbert_coeffs(ref.from_list(P), 4, 8)
            brute = [ref.count_standard_monomials(gens, n) for n in range(9)]
            assert coeffs == brute, gens


class TestMonomialColon:
    def test_clamped_subtraction_gives_unit_ideal(self):
        got = monomial_colon([(0, 0, 1, 1), (0, 0, 0, 2)], (0, 0, 0, 2))
        assert got == [(0, 0, 0, 0)]

    def test_colon_by_one_is_identity(self):
        gens = [(0, 0, 1, 1), (0, 2, 0, 0)]
        assert monomial_colon(gens, (0, 0, 0, 0)) == sorted(gens, key=lambda m: (sum(m), m))

    @pytest.mark.parametrize("gens, w", [([(1, 0, 0)], (0, 0, 0, 0)), ([(1, 0, 0, 0, 5)], (0, 0, 0, 0)),
                                         ([(1, 0, 0, 0)], (0, 0, 0))])
    def test_other_exponent_lengths_rejected(self, gens, w):
        # the clamp is four wide: a fifth exponent must not be dropped silently
        with pytest.raises(ValueError):
            monomial_colon(gens, w)

    def test_proof_step_shape(self):
        # colon of the once-reduced ideal by the pure X2 power leaves <X3, X4>
        a2, a3, a21, k = 20, 7, 8, 1
        J1 = [
            (0, 0, 1, 1), (a21, 0, 0, 1), (0, 0, a3, 0), (0, 0, 0, 2),
            (0, 1, 0, 1), (0, a2, 1, 0),
        ]
        got = monomial_colon(J1, (0, k * a2 + 1, 0, 0))
        assert got == [(0, 0, 0, 1), (0, 0, 1, 0)]


class TestClosedForms:
    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_numerator_formula_matches_stored_text(self, params):
        P = closed_form_numerator(params, compute_k(params))
        assert pairs(P) == load_fixture_numerator(params)

    def test_rejects_other_alpha4(self):
        from conftest import TUPLE_A4_3

        with pytest.raises(ParameterError):
            closed_form_numerator(TUPLE_A4_3, 1)

    def test_rejects_alpha4_two_outside_the_regime(self):
        # every alpha4 = 2 tuple with alphas <= 8, coprime generators,
        # alpha2 > alpha21 + 1 and a k <= alpha3 (read off the inequality
        # with no regime check): the closed-form numerator answers exactly
        # where conditions (1)-(4) hold and the generators are sorted
        box = [PseudoSymmetricParams(a1, a2, a3, 2, a21)
               for a1, a2, a3 in itertools.product(range(2, 9), repeat=3)
               for a21 in range(1, a1 - 1)]
        refused = 0
        for params in box:
            conds = check_conditions(params)
            k = ref.tail_length(params)
            if k is None or not (conds["coprime"] and conds["c4"]):
                continue
            if all(conds[c] for c in ("c1", "c2", "c3", "sorted")):
                closed_form_numerator(params, k)
                continue
            refused += 1
            with pytest.raises(ParameterError, match="violated"):
                closed_form_numerator(params, k)
        assert refused == 358

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_second_series_formula_and_regrouping_agree(self, params):
        k = compute_k(params)
        by_division = second_series(closed_form_numerator(params, k))
        assert ref.to_list(ref.closed_form_second_series(params, k)) == by_division
        assert ref.to_list(ref.regrouped_second_series(params, k)) == by_division

    def test_low_exponent_block_absorbs_the_negative_term(self):
        # for k = 1 the t^(a21+1) coefficient stays nonnegative after expansion
        Q = ref.to_list(ref.closed_form_second_series(TUPLE_41, 1))
        assert Q[TUPLE_41.alpha21 + 1] >= 0


class TestDivision:
    def test_cube_divides_exactly(self):
        assert second_series([1, -3, 3, -1]) == [1]

    def test_remainder_detected(self):
        with pytest.raises(InconsistencyError):
            divide_by_one_minus_t([1, 1])

    def test_multiplicity_of_first_example(self):
        Q = second_series(stored(TUPLE_41))
        assert sum(Q) == 141

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_vanishing_order_exactly_three(self, params):
        P = stored(params)
        Q = second_series(P)
        assert sum(P) == 0
        assert sum(Q) == min(params.semigroup.generators) != 0


class TestHilbertFunction:
    def test_embedding_dimension_start(self):
        Q = second_series(stored(TUPLE_41))
        H = hilbert_function(Q)
        assert H[0] == 1
        assert H[1] == 4

    def test_first_example_non_decreasing(self):
        section = hilbert_section(stored(TUPLE_41), None)
        assert section["non_decreasing"]
        assert section["first_decrease_level"] is None

    def test_function_matches_oracle(self):
        Q = second_series(stored(TUPLE_41))
        H = hilbert_function(Q)
        S = TUPLE_41.semigroup
        assert H == hilbert_oracle(S, len(H) - 1)

    def test_plateau_and_regularity_index(self):
        section = hilbert_section(stored(TUPLE_42), None)
        H, idx = section["H"], section["regularity_index"]
        assert H[idx - 1] != section["multiplicity"]
        assert set(H[idx:]) == {section["multiplicity"]}


    def test_negative_level_rejected(self):
        Q = second_series(stored(TUPLE_41))
        with pytest.raises(ParameterError, match=r"\(-3\)"):
            hilbert_function(Q, -3)
        assert hilbert_function(Q, 0) == [1]


def no_trailing_zero(p: list[int]) -> bool:
    return not p or p[-1] != 0


small_polys = st.lists(st.integers(-3, 3), max_size=8).map(lambda c: ref.to_list(ref.from_list(c)))
monomials = st.tuples(*[st.integers(0, 4)] * 4).filter(lambda m: sum(m) <= 6)


@st.composite
def coprime_sets(draw):
    """Monomials with pairwise disjoint supports: each variable goes to at most one of four slots."""
    slots: dict[int, list[int]] = {}
    for var in range(4):
        owner = draw(st.integers(-1, 3))  # -1: the variable divides no generator
        if owner >= 0:
            slots.setdefault(owner, [0] * 4)[var] = draw(st.integers(1, 5))
    return [tuple(m) for m in slots.values()]


class TestFourWideScansAgainstReference:
    """The unrolled colon and complete-intersection test against tests/reference.py's formulas."""

    @given(monomial_lists(), st.tuples(*[st.integers(0, 3)] * 4))
    def test_colon_is_clamped_subtraction(self, gens, w):
        clamped = [tuple(max(a - b, 0) for a, b in zip(m, w)) for m in gens]
        expected = sorted(ref.minimal_monomials(clamped), key=lambda m: (sum(m), m))
        assert monomial_colon(gens, w) == expected

    @given(coprime_sets())
    def test_coprime_sets_are_complete_intersections(self, gens):
        assert hilbert_numerator(gens) == ref.to_list(ref.taylor_numerator(gens))

    def test_shared_variable_two_generators_apart(self):
        # in (degree, tuple) order X1^2 and X1*X3^2 are not neighbours, and
        # the X4^3 between them shares no variable with either
        gens = [(2, 0, 0, 0), (0, 0, 0, 3), (1, 0, 2, 0)]
        assert hilbert_numerator(gens) == ref.to_list(ref.taylor_numerator(gens))

    @given(monomial_lists(max_size=6))
    def test_pivot_taken_exactly_when_not_coprime(self, gens):
        minimal = ref.minimal_monomials(gens)
        base_case = (0, 0, 0, 0) in minimal or all(
            not any(x and y for x, y in zip(a, b)) for a, b in itertools.combinations(minimal, 2))
        calls = []
        original = hilbert.monomial_colon

        def counted(*args):
            calls.append(args)
            return original(*args)

        hilbert.monomial_colon = counted
        try:
            P = hilbert_numerator(gens)
        finally:
            hilbert.monomial_colon = original
        assert (not calls) == base_case
        assert P == ref.to_list(ref.taylor_numerator(minimal))


class TestListHelpersAgainstReference:
    """The coefficient-list helpers against the dict arithmetic of tests/reference.py."""

    @given(small_polys, st.integers(-3, 3), st.integers(0, 6), small_polys, st.booleans())
    def test_add_shifted(self, p, c, d, q, alias):
        if alias:
            q = p
        p_before, q_before = list(p), list(q)
        got = add_shifted(p, c, d, q)
        expected = ref.add(ref.from_list(p), ref.mul(ref.tpow(d, c), ref.from_list(q)))
        assert got == ref.to_list(expected) and no_trailing_zero(got)
        assert (p, q) == (p_before, q_before)

    @given(small_polys, st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
    def test_second_series(self, base, r0, r1, r2):
        # base * (1-t)^3 plus a remainder of degree < 3, which (1-t)^3 divides only when 0
        P = ref.to_list(ref.add(ref.mul(ref.from_list(base), *[ref.ONE_MINUS_T] * 3),
                                ref.from_list([r0, r1, r2])))
        before = list(P)
        expected = ref.second_series(ref.from_list(P))
        if expected is None:
            with pytest.raises(InconsistencyError):
                second_series(P)
        else:
            got = second_series(P)
            assert got == ref.to_list(expected) and no_trailing_zero(got)
        assert P == before
        assert (expected is None) == bool(r0 or r1 or r2)

    @given(small_polys.filter(bool), st.one_of(st.none(), st.integers(0, 12)))
    def test_hilbert_function(self, Q, level):
        before = list(Q)
        H = hilbert_function(Q, level)
        dense = ref.from_list(Q)
        deg = max(dense)
        up_to = deg + 5 if level is None else level
        negatives = [e for e, v in dense.items() if v < 0]
        assert H == ref.quotient_hilbert_coeffs(dense, 1, up_to)
        assert Q == before
        # the summary facts, read off P = Q * (1-t)^3
        section = hilbert_section(ref.to_list(ref.mul(dense, *[ref.ONE_MINUS_T] * 3)), level)
        assert section["H"] == H
        assert section["regularity_index"] == deg
        assert section["multiplicity"] == ref.evaluate(dense, 1)
        assert section["non_decreasing"] == (not negatives)
        assert section["first_decrease_level"] == (min(negatives) if negatives else None)

    @given(st.lists(monomials, max_size=5))
    def test_pivot_recursion(self, gens):
        before = list(gens)
        got = hilbert_numerator(gens)
        assert got == ref.to_list(ref.taylor_numerator(gens)) and no_trailing_zero(got)
        assert gens == before


def family_sample(seed: int = 30, draws: int = 20000, per_k: int = 6) -> list[PseudoSymmetricParams]:
    """A seeded draw of alpha4 = 2 family tuples with alphas <= 30, at most `per_k` for each k.

    Family tuples satisfy (1)-(4) and have sorted coprime generators, so
    both readings of k exist; a uniform draw finds mostly k = 1 and 2, so
    every k found is capped at `per_k` tuples, in draw order.
    """
    rng = random.Random(seed)
    strata: dict[int, list[PseudoSymmetricParams]] = {}
    for _ in range(draws):
        a1 = rng.randint(3, 30)
        params = PseudoSymmetricParams(a1, rng.randint(2, 30), rng.randint(2, 30), 2,
                                       rng.randint(1, a1 - 2))
        conds = check_conditions(params)
        if all(conds[c] for c in ("c1", "c2", "c3", "c4", "sorted", "coprime")):
            strata.setdefault(compute_k(params), []).append(params)
    return [params for k in sorted(strata) for params in strata[k][:per_k]]


WIDE_SAMPLE = family_sample()


def test_wide_sample_is_stratified():
    ks = [compute_k(params) for params in WIDE_SAMPLE]
    assert 40 <= len(WIDE_SAMPLE) <= 60
    assert max(ks) >= 6 and all(ks.count(k) == 6 for k in range(1, 7))
    assert max(max(p.as_dict().values()) for p in WIDE_SAMPLE) > 20


@pytest.mark.parametrize("params", WIDE_SAMPLE, ids=lambda p: "-".join(map(str, p.as_dict().values())))
def test_closed_forms_on_wide_sample(params):
    k = compute_k(params)
    generators = toric_generators(params)
    engine = engine_basis(params, generators)
    assert frozenset(closed_form_basis(params, generators).elements) == frozenset(engine)
    P = hilbert_numerator(leading_ideal(engine))
    assert closed_form_numerator(params, k) == P
    Q = second_series(P)
    assert ref.to_list(ref.closed_form_second_series(params, k)) == Q
    assert ref.to_list(ref.regrouped_second_series(params, k)) == Q


@pytest.mark.parametrize("params", WIDE_SAMPLE, ids=lambda p: "-".join(map(str, p.as_dict().values())))
def test_section_on_wide_sample_against_the_semigroup(params):
    # the summary read off Q, against H counted level by level in the semigroup
    P = hilbert_numerator(leading_ideal(engine_basis(params, toric_generators(params))))
    section = hilbert_section(P, None)
    H = section["H"]
    assert type(H) is list and H == ref.hilbert_by_level_sweep(params.semigroup.generators, len(H) - 1)
    drops = [n for n in range(1, len(H)) if H[n] < H[n - 1]]
    assert section["multiplicity"] == H[-1] == min(params.semigroup.generators)
    assert section["regularity_index"] == min(n for n in range(len(H)) if set(H[n:]) == {H[-1]})
    assert section["first_decrease_level"] == (drops[0] if drops else None)
    assert section["non_decreasing"] is (not drops)


def test_closed_form_monotone_for_every_k():
    """The argument that the closed-form Q has no negative coefficient, for every k.

    Q = 1 + t + t*[k*a2] + sum_{i < a3-1} t^(1+i)*[a2] - t^(a21+1) - sum_{j=2..k} t^(e_j)*[a2]
    with [L] = 1 + ... + t^(L-1) and e_j = (k-j)*a1 + (k-j+2)*a21 + a3 + j - k:
    (a) the negative blocks lie inside the long block t*[k*a2], (b) they are
    pairwise disjoint, and (c) t^(a21+1) lies below all of them, where the
    i = 0 block and the long block both cover it.  So every Q_n >= 0.
    """
    sample = family_sample(seed=4, per_k=40)
    assert len(sample) > 150 and max(map(compute_k, sample)) >= 8
    for params in sample:
        k = compute_k(params)
        conds = check_conditions(params)
        assert conds["c5"] and conds["c6"], params
        a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
        starts = [(k - j) * a1 + (k - j + 2) * a21 + a3 + j - k for j in range(2, k + 1)]
        # (a): e_2, the largest start, ends by k*a2 - 1
        assert all(e >= 1 for e in starts) and all(e + a2 - 1 <= k * a2 - 1 for e in starts), params
        # (b): consecutive starts are a1 + a21 - 1 >= a2 apart
        assert all(x - y == a1 + a21 - 1 >= a2 for x, y in zip(starts, starts[1:])), params
        # (c): a21 + 1 < e_k = 2*a21 + a3, and a21 + 1 <= a2 by c4
        assert a21 + 1 <= a2 and all(a21 + 1 < e for e in starts), params
        Q = ref.to_list(ref.closed_form_second_series(params, k))
        assert min(Q) >= 0, params
        assert Q == second_series(closed_form_numerator(params, k)), params


def test_regime_implies_c5_and_c6():
    """The README lemma: conditions (5) and (6) follow from the closed-form regime.

    c5 is a21 + a3 > 2 from a21 >= 1 and a3 >= 2.  c6 with alpha4 = 2 reads
    a2 < a1 + a21, and follows from n1 < n2 alone: with b = a1 - a21 - 1,
    a2*a3 + 1 < 2*a21*a3 + b*(a3 - 1) + a3 gives a2 < 2*a21 + b + 1.  Checked
    on every regime tuple with alphas <= 14, and on every alpha4 = 2 tuple
    with n1 < n2, a1 and a3 <= 14 and a2 <= 28.
    """
    regime = ordered = 0
    for a1, a2, a3 in itertools.product(range(3, 15), range(2, 29), range(2, 15)):
        for a21 in range(1, a1 - 1):
            params = PseudoSymmetricParams(a1, a2, a3, 2, a21)
            n1, n2 = params.semigroup.generators[:2]
            if n1 >= n2:
                continue
            ordered += 1
            conds = check_conditions(params)
            assert conds["c6"], params
            b = a1 - a21 - 1
            assert b > 0 and a2 * a3 < a3 * (2 * a21 + b + 1), params
            if a2 <= 14 and all(conds[c] for c in ("c1", "c2", "c3", "c4", "sorted", "coprime")):
                regime += 1
                assert conds["c5"], params
    # 1,092 is also the count of the alphas <= 14 family sweep
    assert (regime, ordered) == (1092, 12602)


def test_regime_lemma_i_to_iii():
    """The README lemma's (i)-(iii) on every regime tuple with alphas <= 14.

    (i) a1 + a21 >= a2 + 2; (ii) k = a3 satisfies the strict k inequality
    and `compute_k` returns both readings; (iii) the non-strict tail leads
    as the closed form presumes, and a strict tail breaks that pattern
    exactly when the readings differ.
    The alphas <= 40 box runs in CI: PYTHONPATH=src python tests/closed_form_box.py
    """
    box = regime_tuples(14)
    results = [check_tuple(params) for params in box]
    assert [(p, failed) for p, (failed, _) in zip(box, results) if failed] == []
    assert (len(box), sum(differ for _, differ in results)) == (1092, 283)
