"""Pivot recursion, closed-form series, division, and the function reports."""

import random

import pytest

from pseudosym.errors import InconsistencyError, ParameterError
from pseudosym.hilbert import (
    UniPoly,
    closed_form_numerator,
    closed_form_second_series,
    count_standard_monomials,
    divide_by_one_minus_t,
    geom,
    hilbert_function,
    hilbert_numerator,
    monomial_colon,
    parse_unipoly,
    quotient_hilbert_coeffs,
    regrouped_second_series,
    render_unipoly,
    second_series,
    tpow,
)
from pseudosym.pipeline import load_fixture_numerator
from pseudosym.semigroup import construct_generators, hilbert_oracle
from pseudosym.stdbasis import leading_ideal
from pseudosym.toric import compute_k

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


class TestUniPoly:
    def test_parse_render_roundtrip(self):
        text = "1-3*t^2+3*t^3-t^4-t^7+t^8"
        assert render_unipoly(parse_unipoly(text)) == text

    @pytest.mark.parametrize("text", ["1--t", "1-t-", "1+-t^2", "1-t^", "1-t^2^3"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            parse_unipoly(text)

    def test_geom_blocks(self):
        assert geom(3) == UniPoly({0: 1, 1: 1, 2: 1})
        assert geom(0).is_zero
        assert (1 - tpow(1)) * geom(5) == 1 - tpow(5)


class TestPivotRecursion:
    def test_empty_ideal(self):
        assert hilbert_numerator([]) == 1

    def test_principal_ideal(self):
        assert hilbert_numerator([(1, 0, 0, 0)]) == 1 - tpow(1)

    def test_unit_ideal(self):
        assert hilbert_numerator([(0, 0, 0, 0)]).is_zero

    def test_complete_intersection(self):
        P = hilbert_numerator([(0, 0, 0, 1), (0, 2, 0, 0), (0, 0, 1, 0)])
        assert P == (1 - tpow(1)) ** 2 * (1 - tpow(2))

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_matches_stored_numerators(self, engine_bases, params):
        P = hilbert_numerator(leading_ideal(engine_bases[params]))
        assert P == load_fixture_numerator(params)

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
            coeffs = quotient_hilbert_coeffs(P, 4, 8)
            brute = [count_standard_monomials(gens, n) for n in range(9)]
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
        assert P == load_fixture_numerator(params)

    def test_rejects_other_alpha4(self):
        from conftest import TUPLE_A4_3

        with pytest.raises(ParameterError):
            closed_form_numerator(TUPLE_A4_3, 1)

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_second_series_formula_and_regrouping_agree(self, params):
        k = compute_k(params)
        by_division = second_series(closed_form_numerator(params, k))
        assert closed_form_second_series(params, k) == by_division
        assert regrouped_second_series(params, k) == by_division

    def test_low_exponent_block_absorbs_the_negative_term(self):
        # for k = 1 the t^(a21+1) coefficient stays nonnegative after expansion
        Q = closed_form_second_series(TUPLE_41, 1)
        assert Q.coeff(TUPLE_41.alpha21 + 1) >= 0


class TestDivision:
    def test_cube_divides_exactly(self):
        omt = UniPoly({0: 1, 1: -1})
        assert second_series(omt**3) == 1

    def test_remainder_detected(self):
        with pytest.raises(InconsistencyError):
            divide_by_one_minus_t(UniPoly({0: 1, 1: 1}))

    def test_multiplicity_of_first_example(self):
        Q = second_series(load_fixture_numerator(TUPLE_41))
        assert Q(1) == 141

    @pytest.mark.parametrize("params", FAMILY_TUPLES)
    def test_vanishing_order_exactly_three(self, params):
        P = load_fixture_numerator(params)
        Q = second_series(P)
        assert P(1) == 0
        assert Q(1) == min(construct_generators(params).generators) != 0


class TestHilbertFunction:
    def test_embedding_dimension_start(self):
        Q = second_series(load_fixture_numerator(TUPLE_41))
        rep = hilbert_function(Q)
        assert rep.hilbert_function[0] == 1
        assert rep.hilbert_function[1] == 4

    def test_first_example_non_decreasing(self):
        rep = hilbert_function(second_series(load_fixture_numerator(TUPLE_41)))
        assert rep.non_decreasing
        assert rep.first_decrease_level is None

    def test_function_matches_oracle(self):
        Q = second_series(load_fixture_numerator(TUPLE_41))
        rep = hilbert_function(Q)
        S = construct_generators(TUPLE_41)
        assert list(rep.hilbert_function) == hilbert_oracle(S, len(rep.hilbert_function) - 1)

    def test_plateau_and_regularity_index(self):
        Q = second_series(load_fixture_numerator(TUPLE_42))
        rep = hilbert_function(Q)
        idx = rep.regularity_index
        assert rep.hilbert_function[idx - 1] != rep.multiplicity
        assert set(rep.hilbert_function[idx:]) == {rep.multiplicity}


    def test_negative_level_rejected(self):
        Q = second_series(load_fixture_numerator(TUPLE_41))
        with pytest.raises(ParameterError, match=r"\(-3\)"):
            hilbert_function(Q, -3)
        assert hilbert_function(Q, 0).hilbert_function == (1,)
