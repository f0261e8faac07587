"""Pivot recursion, closed-form series, division, and the function reports."""

import random

import pytest
from hypothesis import given, strategies as st

import reference as ref
from pseudosym.errors import InconsistencyError, ParameterError, UnsupportedParametersError
from pseudosym.hilbert import (
    add_shifted,
    closed_form_numerator,
    closed_form_second_series,
    divide_by_one_minus_t,
    hilbert_function,
    hilbert_numerator,
    monomial_colon,
    parse_numerator,
    second_series,
)
from pseudosym.pipeline import basis_set, engine_basis, load_fixture_numerator
from pseudosym.semigroup import PseudoSymmetricParams, check_conditions, construct_generators, hilbert_oracle
from pseudosym.stdbasis import leading_ideal
from pseudosym.toric import closed_form_basis, compute_k

from conftest import FAMILY_TUPLES, TUPLE_41, TUPLE_42


def random_ideal(rng, max_gens=5, max_deg=6):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        while True:
            m = tuple(rng.randrange(0, max_deg + 1) for _ in range(4))
            if 0 < sum(m) <= max_deg:
                gens.append(m)
                break
    return gens


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
        assert hilbert_numerator([(0, 0, 0, 0)]) == []

    def test_complete_intersection(self):
        P = hilbert_numerator([(0, 0, 0, 1), (0, 2, 0, 0), (0, 0, 1, 0)])
        assert P == [1, -2, 0, 2, -1]
        assert P == ref.to_list(ref.mul(ref.ONE_MINUS_T, ref.ONE_MINUS_T, {0: 1, 2: -1}))

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_matches_stored_numerators(self, engine_bases, params):
        P = hilbert_numerator(leading_ideal(engine_bases[params]))
        assert pairs(P) == load_fixture_numerator(params)

    def test_pivot_invariance_on_random_ideals(self):
        rng = random.Random(5)
        for _ in range(40):
            gens = random_ideal(rng)
            results = {
                str(hilbert_numerator(gens, pivot=p, seed=9))
                for p in ("first", "maxdeg", "random")
            }
            assert len(results) == 1, gens

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

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_second_series_formula_and_regrouping_agree(self, params):
        k = compute_k(params)
        by_division = second_series(closed_form_numerator(params, k))
        assert closed_form_second_series(params, k) == by_division
        assert ref.to_list(ref.regrouped_second_series(params, k)) == by_division

    def test_low_exponent_block_absorbs_the_negative_term(self):
        # for k = 1 the t^(a21+1) coefficient stays nonnegative after expansion
        Q = closed_form_second_series(TUPLE_41, 1)
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
        assert sum(Q) == min(construct_generators(params).generators) != 0


class TestHilbertFunction:
    def test_embedding_dimension_start(self):
        Q = second_series(stored(TUPLE_41))
        rep = hilbert_function(Q)
        assert rep.hilbert_function[0] == 1
        assert rep.hilbert_function[1] == 4

    def test_first_example_non_decreasing(self):
        rep = hilbert_function(second_series(stored(TUPLE_41)))
        assert rep.non_decreasing
        assert rep.first_decrease_level is None

    def test_function_matches_oracle(self):
        Q = second_series(stored(TUPLE_41))
        rep = hilbert_function(Q)
        S = construct_generators(TUPLE_41)
        assert list(rep.hilbert_function) == hilbert_oracle(S, len(rep.hilbert_function) - 1)

    def test_plateau_and_regularity_index(self):
        Q = second_series(stored(TUPLE_42))
        rep = hilbert_function(Q)
        idx = rep.regularity_index
        assert rep.hilbert_function[idx - 1] != rep.multiplicity
        assert set(rep.hilbert_function[idx:]) == {rep.multiplicity}


    def test_negative_level_rejected(self):
        Q = second_series(stored(TUPLE_41))
        with pytest.raises(ParameterError, match=r"\(-3\)"):
            hilbert_function(Q, -3)
        assert hilbert_function(Q, 0).hilbert_function == (1,)


def no_trailing_zero(p: list[int]) -> bool:
    return not p or p[-1] != 0


small_polys = st.lists(st.integers(-3, 3), max_size=8).map(lambda c: ref.to_list(ref.from_list(c)))
monomials = st.tuples(*[st.integers(0, 4)] * 4).filter(lambda m: sum(m) <= 6)


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
        rep = hilbert_function(Q, level)
        dense = ref.from_list(Q)
        deg = max(dense)
        up_to = deg + 5 if level is None else level
        negatives = [e for e, v in dense.items() if v < 0]
        assert list(rep.hilbert_function) == ref.quotient_hilbert_coeffs(dense, 1, up_to)
        assert rep.regularity_index == deg
        assert rep.multiplicity == ref.evaluate(dense, 1)
        assert rep.non_decreasing == (not negatives)
        assert rep.first_decrease_level == (min(negatives) if negatives else None)
        assert Q == before

    @given(st.lists(monomials, max_size=5), st.sampled_from(["first", "maxdeg", "random"]),
           st.integers(0, 9))
    def test_pivot_recursion(self, gens, pivot, seed):
        before = list(gens)
        got = hilbert_numerator(gens, pivot=pivot, seed=seed)
        assert got == ref.to_list(ref.taylor_numerator(gens)) and no_trailing_zero(got)
        assert gens == before


def family_sample(seed: int = 30, draws: int = 20000, per_k: int = 6) -> list[PseudoSymmetricParams]:
    """A seeded draw of alpha4 = 2 family tuples with alphas <= 30, at most `per_k` for each k.

    Family tuples satisfy (1)-(4), have sorted coprime generators and a
    non-strict k; a uniform draw finds mostly k = 1 and 2, so every k found
    is capped at `per_k` tuples, in draw order.
    """
    rng = random.Random(seed)
    strata: dict[int, list[PseudoSymmetricParams]] = {}
    for _ in range(draws):
        a1 = rng.randint(3, 30)
        params = PseudoSymmetricParams(a1, rng.randint(2, 30), rng.randint(2, 30), 2,
                                       rng.randint(1, a1 - 2))
        conds = check_conditions(params)
        if not all(conds[c] for c in ("c1", "c2", "c3", "c4", "sorted", "coprime")):
            continue
        try:
            k = compute_k(params)
        except UnsupportedParametersError:
            continue
        strata.setdefault(k, []).append(params)
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
    engine = engine_basis(params)
    assert basis_set(closed_form_basis(params).elements) == basis_set(engine)
    P = hilbert_numerator(leading_ideal(engine))
    assert closed_form_numerator(params, k) == P
    Q = second_series(P)
    assert closed_form_second_series(params, k) == Q
    assert ref.to_list(ref.regrouped_second_series(params, k)) == Q
