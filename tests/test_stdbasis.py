"""The reduction engine: weak normal forms, basis computation, tangent cones."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from pseudosym import PseudoSymmetricParams, cm, stdbasis
from pseudosym.pipeline import basis_set, engine_basis, load_fixture_basis
from pseudosym.poly import (
    GLOBAL,
    LOCAL,
    DimensionError,
    Polynomial,
    divides,
    monomial,
    normalize,
    parse_poly,
    reduce_step,
    spoly,
    zero,
)
from pseudosym.semigroup import construct_generators
from pseudosym.stdbasis import (
    buchberger_homogeneous,
    leading_ideal,
    lowest_form,
    nf_global,
    nf_mora,
    standard_basis,
    tangent_cone_ideal,
)
from pseudosym.toric import sdegree, toric_generators

from conftest import ALL_FIXTURE_TUPLES, TUPLE_41, TUPLE_42, TUPLE_A4_3


def P(text, order=LOCAL):
    return parse_poly(text, order)


class TestNfMora:
    def test_spoly_of_first_pair_reduces_to_zero(self, engine_bases):
        G = engine_bases[TUPLE_41]
        f1, f2 = P("X1^16-X3*X4"), P("X2^20-X1^8*X4")
        assert nf_mora(spoly(f1, f2), G).is_zero

    def test_zero_input(self, engine_bases):
        assert nf_mora(zero(LOCAL), engine_bases[TUPLE_41]).is_zero

    def test_two_branch_reduction_case(self, engine_bases):
        # spoly(f5, f6) needs the ecart-guided choice between two reducers
        G = engine_bases[TUPLE_41]
        f5, f6 = P("X1^9*X3^6-X2*X4"), P("X1^24-X2^20*X3")
        assert nf_mora(spoly(f5, f6), G).is_zero

    def test_partial_reduction_stops_at_irreducible_lm(self, engine_bases):
        # one cancellation through f1, then X1^3*X2 leads and nothing divides it
        G = engine_bases[TUPLE_41]
        h = nf_mora(P("X1*X3*X4-X1^3*X2"), G)
        assert h == P("-X1^3*X2+X1^17")
        assert not any(divides(g.lm, h.lm) for g in G)


class TestStandardBasis:
    @pytest.mark.parametrize("params,size", ALL_FIXTURE_TUPLES)
    def test_reproduces_stored_bases(self, engine_bases, params, size):
        G = engine_bases[params]
        assert len(G) == size
        fixture = load_fixture_basis(params)
        assert fixture is not None
        assert basis_set(G) == basis_set(fixture)

    def test_single_monomial_is_its_own_basis(self):
        f = monomial((2, 0, 1, 0), LOCAL)
        assert standard_basis([f]) == [f]

    def test_certificate_every_pair_reduces(self, engine_bases):
        # definition-level check on every stored tuple, with no coprime skip
        for params, _ in ALL_FIXTURE_TUPLES:
            G = engine_bases[params]
            for i in range(len(G)):
                for j in range(i + 1, len(G)):
                    assert nf_mora(spoly(G[i], G[j]), G).is_zero, (params, i, j)

    def test_binomials_with_equal_sdegrees_throughout(self, engine_bases):
        for params, _ in ALL_FIXTURE_TUPLES:
            S = construct_generators(params)
            for g in engine_bases[params]:
                assert len(g.terms) == 2
                assert {abs(t.coeff) for t in g.terms} == {1}
                assert len({sdegree(t.mono, S) for t in g.terms}) == 1

    def test_membership_of_random_multiples(self, engine_bases):
        G = engine_bases[TUPLE_41]
        gens = toric_generators(TUPLE_41).generators
        rng = random.Random(11)
        for _ in range(25):
            f = rng.choice(gens)
            m = tuple(rng.randrange(0, 4) for _ in range(4))
            assert nf_mora(f.mul_term(m), G).is_zero

    def test_minimal_leading_monomials(self, engine_bases):
        for params, _ in ALL_FIXTURE_TUPLES:
            G = engine_bases[params]
            for i, g in enumerate(G):
                for j, h in enumerate(G):
                    if i != j:
                        assert not divides(g.lm, h.lm)


class TestLowestForm:
    def test_mixed_binomial(self):
        f2 = P("X2^20-X1^8*X4")
        assert lowest_form(f2) == P("-X1^8*X4")

    def test_homogeneous_is_unchanged(self):
        f = P("X1*X2-X3^2")
        assert lowest_form(f) == f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lowest_form(zero(LOCAL))

    def test_homogeneous_at_leading_degree(self, engine_bases):
        # under the local ordering the lowest form sits at deg(LM(f))
        from pseudosym.poly import total_deg

        for g in engine_bases[TUPLE_42]:
            low = lowest_form(g)
            assert low.is_homogeneous()
            assert low.degree == total_deg(g.lm)


class TestTangentCone:
    def test_first_example_is_monomial(self, engine_bases):
        tc = tangent_cone_ideal(engine_bases[TUPLE_41])
        assert tc.monomial_flag
        got = {g.lm for g in tc.generators}
        assert got == {
            (0, 0, 1, 1), (8, 0, 0, 1), (0, 0, 7, 0), (0, 0, 0, 2),
            (0, 1, 0, 1), (0, 20, 1, 0), (0, 21, 0, 0),
        }

    def test_homogeneous_input_passes_through(self):
        f = P("X1*X2-X3^2")
        tc = tangent_cone_ideal([f])
        assert tc.generators == (normalize(f),)
        assert not tc.monomial_flag

    def test_second_example_keeps_intermediate_tail_monomial(self, engine_bases):
        tc = tangent_cone_ideal(engine_bases[TUPLE_42])
        assert (9, 0, 4, 0) in {g.lm for g in tc.generators}


class TestLeadingIdeal:
    def test_monomial_minimalization(self):
        fs = [monomial((0, 0, 1, 1), LOCAL), monomial((0, 0, 2, 1), LOCAL)]
        assert leading_ideal(fs) == [(0, 0, 1, 1)]

    def test_first_example_nothing_removable(self, engine_bases):
        lead = leading_ideal(engine_bases[TUPLE_41])
        assert len(lead) == 7


class TestBuchbergerHomogeneous:
    def test_monomial_input_unchanged(self):
        fs = [monomial((1, 1, 0, 0), GLOBAL), monomial((0, 0, 3, 0), GLOBAL)]
        assert basis_set(buchberger_homogeneous(fs)) == basis_set(fs)

    def test_hand_traced_pair(self):
        # spoly(X1*X2 - X3^2, X3^3) = -X3^5 reduces to zero, so the input
        # is already a Groebner basis; X1*X2*X3 - X3^3 lies in the ideal.
        f = P("X1*X2-X3^2", GLOBAL)
        g = P("X3^3", GLOBAL)
        basis = buchberger_homogeneous([f, g])
        assert basis_set(basis) == basis_set([f, g])
        assert nf_global(P("X1*X2*X3-X3^3", GLOBAL), basis).is_zero

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError, match="non-homogeneous"):
            buchberger_homogeneous([P("X1^2-X2", GLOBAL)])

    def test_local_order_rejected(self):
        with pytest.raises(ValueError, match="global"):
            buchberger_homogeneous([P("X1*X2-X3^2", LOCAL)])

    def test_dispatch_rule_monomial_cones_skip_it(self, engine_bases):
        # the monomial tangent cone of the first example never needs it
        tc = tangent_cone_ideal(engine_bases[TUPLE_41])
        assert tc.monomial_flag


class TestAgainstClosedForm:
    def test_engine_matches_prediction_on_family_tuples(self, engine_bases):
        from pseudosym.toric import closed_form_basis

        for params, _ in ALL_FIXTURE_TUPLES:
            if params.alpha4 != 2:
                continue
            predicted = closed_form_basis(params)
            assert basis_set(predicted.elements) == basis_set(engine_bases[params])


# The reducer scan as it was before leads and ecarts were stored: every
# reducer is tested with `divides`, and leads and ecarts are read off the terms.

def seed_ecart(f):
    return max(sum(t.mono) for t in f.terms) - sum(f.terms[0].mono)


def seed_nf_mora(h, basis):
    reducers = list(basis)
    while not h.is_zero:
        lm = h.terms[0].mono
        chosen = None
        chosen_ecart = -1
        for g in reducers:
            if divides(g.terms[0].mono, lm):
                e = seed_ecart(g)
                if chosen is None or e < chosen_ecart:
                    chosen, chosen_ecart = g, e
        if chosen is None:
            break
        if chosen_ecart > seed_ecart(h):
            reducers.append(h)
        h = reduce_step(h, chosen)
    return h


def seed_nf_global(h, basis):
    while not h.is_zero:
        for g in basis:
            if divides(g.terms[0].mono, h.terms[0].mono):
                h = reduce_step(h, g)
                break
        else:
            return h
    return h


@st.composite
def shapes(draw, order, homogeneous, top=3):
    """A nonzero signed monomial or ±1 binomial; a homogeneous one permutes one monomial."""
    sign = draw(st.sampled_from([1, -1]))
    a = draw(st.tuples(*([st.integers(0, top)] * 4)))
    if draw(st.booleans()):
        return Polynomial([(sign, a)], order)
    if homogeneous:
        b = tuple(draw(st.permutations(a)))
    else:
        b = draw(st.tuples(*([st.integers(0, top)] * 4)))
    if b == a:
        return Polynomial([(sign, a)], order)
    return Polynomial([(sign, a), (-sign, b)], order)


@st.composite
def reduction_cases(draw, homogeneous_under_local):
    """(h, reducers) under LOCAL or GLOBAL.

    Plain leading-term reduction need not terminate under LOCAL, except on
    homogeneous input, which `homogeneous_under_local` asks for.
    """
    order = draw(st.sampled_from([LOCAL, GLOBAL]))
    homogeneous = homogeneous_under_local and order.local
    basis = draw(st.lists(shapes(order, homogeneous), min_size=1, max_size=6))
    return draw(shapes(order, homogeneous, top=6)), basis


class TestReducerScan:
    @given(reduction_cases(homogeneous_under_local=False))
    def test_nf_mora_matches_seed_scan(self, case):
        h, basis = case
        assert nf_mora(h, basis).terms == seed_nf_mora(h, basis).terms

    @given(reduction_cases(homogeneous_under_local=True))
    def test_nf_global_matches_seed_scan(self, case):
        h, basis = case
        assert nf_global(h, basis).terms == seed_nf_global(h, basis).terms

    @pytest.mark.parametrize("nf", [nf_mora, nf_global])
    def test_mixed_exponent_lengths_rejected(self, nf):
        h = monomial((2, 1, 0, 0), LOCAL)
        with pytest.raises(DimensionError):
            nf(h, [monomial((1, 0, 0, 0), LOCAL), monomial((1, 0, 0), LOCAL)])

    def test_minimalize_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            stdbasis.minimalize([monomial((1, 0, 0, 0), LOCAL), monomial((1, 0, 0), LOCAL)])

    @pytest.mark.parametrize("nf", [nf_mora, nf_global])
    def test_zero_input_ignores_the_basis(self, nf):
        assert nf(zero(LOCAL), [zero(LOCAL), monomial((1, 0, 0), LOCAL)]).is_zero


def count_engine_calls(monkeypatch):
    """Count each call of the engine's stages by (name, whether the result is zero)."""
    counts = Counter()
    for name in ("nf_mora", "nf_global", "reduce_step", "spoly"):
        def wrapper(*args, _fn=getattr(stdbasis, name), _name=name):
            result = _fn(*args)
            counts[_name, result.is_zero] += 1
            return result

        monkeypatch.setattr(stdbasis, name, wrapper)
    return counts


class TestEngineWork:
    """Which pairs are reduced and which reducer is picked, as call counts.

    The figures were recorded from the engine before leads and ecarts were
    stored on the polynomial; a change of pair order, pair skipping or
    reducer choice moves them.
    """

    def test_local_route_on_6_6_2_4_4(self, monkeypatch):
        counts = count_engine_calls(monkeypatch)
        assert len(engine_basis(PseudoSymmetricParams(6, 6, 2, 4, 4))) == 29
        assert counts == {
            ("nf_mora", True): 1247, ("nf_mora", False): 49,
            ("reduce_step", True): 1214, ("reduce_step", False): 5893,
            ("spoly", True): 33, ("spoly", False): 1263,
        }

    def test_buchberger_route_on_9_5_3_3_2(self, monkeypatch, engine_bases):
        G = engine_bases[TUPLE_A4_3]
        counts = count_engine_calls(monkeypatch)
        assert not cm.cm_verdict(G).cohen_macaulay
        assert counts == {
            ("nf_global", True): 38, ("nf_global", False): 1,
            ("reduce_step", True): 11, ("reduce_step", False): 1,
            ("spoly", True): 27, ("spoly", False): 12,
        }
