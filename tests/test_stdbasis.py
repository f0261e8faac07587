"""The reduction engine: weak normal forms, basis computation, tangent cones."""

import itertools
import random
from collections import Counter
from operator import add

import pytest
from hypothesis import given, strategies as st

from pseudosym import PseudoSymmetricParams, cm, stdbasis
from pseudosym.errors import InconsistencyError
from pseudosym.pipeline import basis_set, engine_basis, load_fixture_basis
from pseudosym.poly import (
    GLOBAL,
    LOCAL,
    DimensionError,
    Polynomial,
    minimalize_monomials,
    monomial,
    normalize,
    parse_poly,
    reduce_step,
    spoly,
    weighted_degree,
    with_order,
    zero,
)
from pseudosym.semigroup import check_conditions, construct_generators
from pseudosym.stdbasis import (
    buchberger_homogeneous,
    leading_ideal,
    nf_global,
    nf_mora,
    standard_basis,
    tangent_cone_ideal,
)
from pseudosym.toric import closed_form_basis, toric_generators

from conftest import ALL_FIXTURE_TUPLES, TUPLE_41, TUPLE_42, TUPLE_A4_3, engine_box
from seed_engine import closure_differs, divides, seed_nf_global, seed_nf_mora


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
        # spoly(f5, f6) has two reducers to choose from; a standard basis
        # reduces it to zero whichever is taken first
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
        assert standard_basis([f], (1, 1, 1, 1)) == [f]

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
                assert g.is_homogeneous(S.generators)

    def test_membership_of_random_multiples(self, engine_bases):
        G = engine_bases[TUPLE_41]
        gens = toric_generators(TUPLE_41).generators
        rng = random.Random(11)
        for _ in range(25):
            f = rng.choice(gens)
            m = tuple(rng.randrange(0, 4) for _ in range(4))
            multiple = Polynomial([(c, tuple(map(add, t, m))) for c, t in f.terms], f.order)
            assert nf_mora(multiple, G).is_zero

    def test_minimal_leading_monomials(self, engine_bases):
        for params, _ in ALL_FIXTURE_TUPLES:
            G = engine_bases[params]
            for i, g in enumerate(G):
                for j, h in enumerate(G):
                    if i != j:
                        assert not divides(g.lm, h.lm)


def lowest_form(f):
    """The one lowest form `tangent_cone_ideal` makes of f."""
    low, = tangent_cone_ideal([f])
    return low


def is_monomial_cone(cone):
    return all(len(g.terms) == 1 for g in cone)


class TestLowestForm:
    def test_mixed_binomial(self):
        f2 = P("X2^20-X1^8*X4")
        assert lowest_form(f2) == P("X1^8*X4")

    def test_homogeneous_is_unchanged(self):
        f = P("X1*X2-X3^2")
        assert lowest_form(f) == f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lowest_form(zero(LOCAL))

    def test_homogeneous_at_leading_degree(self, engine_bases):
        # under the local ordering the lowest form sits at deg(LM(f))
        for g in engine_bases[TUPLE_42]:
            low = lowest_form(g)
            assert low.is_homogeneous()
            assert {sum(t.mono) for t in low.terms} == {sum(g.lm)}


class TestTangentCone:
    def test_first_example_is_monomial(self, engine_bases):
        tc = tangent_cone_ideal(engine_bases[TUPLE_41])
        assert is_monomial_cone(tc)
        got = {g.lm for g in tc}
        assert got == {
            (0, 0, 1, 1), (8, 0, 0, 1), (0, 0, 7, 0), (0, 0, 0, 2),
            (0, 1, 0, 1), (0, 20, 1, 0), (0, 21, 0, 0),
        }

    def test_homogeneous_input_passes_through(self):
        f = P("X1*X2-X3^2")
        tc = tangent_cone_ideal([f])
        assert tc == [normalize(f)]
        assert not is_monomial_cone(tc)

    def test_second_example_keeps_intermediate_tail_monomial(self, engine_bases):
        tc = tangent_cone_ideal(engine_bases[TUPLE_42])
        assert (9, 0, 4, 0) in {g.lm for g in tc}


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

    def test_dispatch_rule_monomial_cones_skip_it(self, engine_bases, monkeypatch):
        # the monomial tangent cone of the first example never needs it
        G = engine_bases[TUPLE_41]
        assert is_monomial_cone(tangent_cone_ideal(G))

        def refuse(gens):
            raise AssertionError("monomial cone sent to buchberger_homogeneous")

        monkeypatch.setattr(cm, "buchberger_homogeneous", refuse)
        assert not cm.cm_verdict(G).cohen_macaulay


class TestAgainstClosedForm:
    def test_engine_matches_prediction_on_family_tuples(self, engine_bases):
        for params, _ in ALL_FIXTURE_TUPLES:
            if params.alpha4 != 2:
                continue
            predicted = closed_form_basis(toric_generators(params))
            assert basis_set(predicted.elements) == basis_set(engine_bases[params])


# The minimalization and Cohen-Macaulay route as they were before each became
# one function: a divisibility scan of its own in `minimalize`, lowest forms
# re-collected from the terms, and the verdict split over three functions.

def old_minimalize(G):
    if not G:
        return []
    order = G[0].order
    ranked = sorted(enumerate(G), key=lambda ig: (sum(ig[1].lm), order.sort_key(ig[1].lm), ig[0]))
    kept = []
    for _, g in ranked:
        if not any(divides(k.lm, g.lm) for k in kept):
            kept.append(g)
    kept.sort(key=lambda g: order.sort_key(g.lm), reverse=True)
    return kept


def old_cm_verdict(G):
    lows = []
    for g in G:
        d = min(sum(t.mono) for t in g.terms)
        lows.append(normalize(Polynomial([t for t in g.terms if sum(t.mono) == d], g.order)))
    if all(len(g.terms) == 1 for g in lows):
        gens = [g.lm for g in lows]
    else:
        regraded = [with_order(g, cm.CM_ORDER) for g in lows]
        gens = [g.lm for g in old_minimalize(stdbasis._closure(regraded, nf_global))]
    bad = [m for m in minimalize_monomials(gens) if m[0] > 0]
    return cm.CmVerdict(False, min(bad)) if bad else cm.CmVerdict(True, None)


def terms_of(G):
    return [g.terms for g in G]


class TestFoldAgainstOldRoutes:
    """`minimalize` and `cm_verdict` against the copies above: same survivors
    in the same order, same verdict and witness."""

    def check(self, params, basis, rng):
        """Compare on the closure, shuffled too, and the basis; return (route, verdict).

        The lead monomials of the basis, put before or after it, share their
        leads with basis elements, so the first element per lead matters.
        """
        closure = stdbasis._closure(toric_generators(params).generators, nf_mora)
        shuffled = rng.sample(closure, len(closure))
        leads = [monomial(g.lm, g.order) for g in basis]
        for G in (closure, shuffled, basis, leads + shuffled, shuffled + leads):
            assert terms_of(stdbasis.minimalize(G)) == terms_of(old_minimalize(G))
        cone = tangent_cone_ideal(basis)
        if not is_monomial_cone(cone):
            regraded = [with_order(g, cm.CM_ORDER) for g in cone]
            closure = stdbasis._closure(regraded, nf_global)
            assert terms_of(stdbasis.minimalize(closure)) == terms_of(old_minimalize(closure))
        verdict = cm.cm_verdict(basis)
        assert verdict == old_cm_verdict(basis)
        return is_monomial_cone(cone), verdict.cohen_macaulay

    def test_fixture_bases(self, engine_bases):
        rng = random.Random(5)
        for params, _ in ALL_FIXTURE_TUPLES:
            self.check(params, engine_bases[params], rng)

    def test_engine_box_sample(self):
        rng = random.Random(9)
        sample = rng.sample(engine_box(), 100)
        assert sum(not check_conditions(p)["sorted"] for p in sample) >= 50
        seen = {self.check(params, engine_basis(toric_generators(params)), rng) for params in sample}
        # both routes, and both verdicts, occur in the sample
        assert {route for route, _ in seen} == {True, False}
        assert {cm_ok for _, cm_ok in seen} == {True, False}


@st.composite
def shapes(draw, order, weights=None, top=3):
    """A nonzero signed monomial or ±1 binomial, homogeneous for `weights` when given.

    A graded binomial pairs its first monomial with any monomial of the
    same weighted degree and exponents up to `top`.
    """
    sign = draw(st.sampled_from([1, -1]))
    a = draw(st.tuples(*([st.integers(0, top)] * 4)))
    if draw(st.booleans()):
        return Polynomial([(sign, a)], order)
    if weights is None:
        b = draw(st.tuples(*([st.integers(0, top)] * 4)))
    else:
        degree = weighted_degree(a, weights)
        b = draw(st.sampled_from([
            m for m in itertools.product(range(top + 1), repeat=4) if weighted_degree(m, weights) == degree
        ]))
    if b == a:
        return Polynomial([(sign, a)], order)
    return Polynomial([(sign, a), (-sign, b)], order)


@st.composite
def reduction_cases(draw, graded):
    """(h, reducers) under LOCAL or GLOBAL.

    Under LOCAL the normal form terminates only on graded input, so a
    `graded` case draws a positive weight vector and keeps every element
    homogeneous for it; otherwise only LOCAL cases are graded, by degree.
    """
    order = draw(st.sampled_from([LOCAL, GLOBAL]))
    if graded:
        weights = draw(st.tuples(*([st.integers(1, 4)] * 4)))
    else:
        weights = (1, 1, 1, 1) if order.local else None
    basis = draw(st.lists(shapes(order, weights), min_size=1, max_size=6))
    return draw(shapes(order, weights, top=6)), basis


class TestReducerScan:
    @given(reduction_cases(graded=True))
    def test_nf_mora_matches_seed_scan(self, case):
        # in stable ecart order, as the basis loop keeps its reducers, the
        # first divisor is Mora's choice: the first of least ecart
        h, basis = case
        reducers = sorted(basis, key=stdbasis._ecart)
        assert nf_mora(h, reducers).terms == seed_nf_mora(h, basis).terms

    def test_one_normal_form_serves_both_routes(self):
        assert nf_global is nf_mora

    @given(reduction_cases(graded=False))
    def test_nf_global_matches_seed_scan(self, case):
        h, basis = case
        assert nf_global(h, basis).terms == seed_nf_global(h, basis).terms

    def test_mixed_exponent_lengths_rejected(self):
        # every polynomial has four exponents, so the scan checks no length
        with pytest.raises(DimensionError):
            monomial((1, 0, 0), LOCAL)
        with pytest.raises(DimensionError):
            Polynomial([(1, (1, 0, 0, 0, 0)), (-1, (0, 0, 0, 0, 1))], LOCAL)

    def test_minimalize_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            stdbasis.minimalize([monomial((1, 0, 0, 0), LOCAL), monomial((1, 0, 0), LOCAL)])

    @pytest.mark.parametrize("nf", [nf_mora, nf_global])
    def test_zero_input_ignores_the_basis(self, nf):
        assert nf(zero(LOCAL), [zero(LOCAL), monomial((1, 0, 0, 0), LOCAL)]).is_zero


class TestGradedInput:
    """The grading is checked where input enters; the normal form relies on it."""

    def test_ungraded_input_rejected(self):
        with pytest.raises(ValueError, match="non-homogeneous"):
            standard_basis([P("X1-X1^2")], (1, 1, 1, 1))

    @pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 1, 0), (2, -1, 1, 1), (1, 1, 1, 1, 1)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="positive integers"):
            standard_basis([P("X1*X2-X3^2")], weights)

    def test_curve_generators_pass_under_n_only(self):
        system = toric_generators(TUPLE_41)
        assert standard_basis(system.generators, system.semigroup.generators)
        with pytest.raises(ValueError, match="non-homogeneous"):
            standard_basis(system.generators, (1, 1, 1, 1))

    def test_ungraded_reduction_hits_the_step_budget(self, monkeypatch):
        # X1 = (1 - X1)^-1 * (X1 - X1^2) lies in the ideal, but plain division
        # by X1 - X1^2 walks X1 -> X1^2 -> X1^3 ... under the local ordering,
        # which is why `standard_basis` refuses ungraded input.
        monkeypatch.setattr(stdbasis, "MAX_REDUCTION_STEPS", 50)
        with pytest.raises(InconsistencyError, match="step budget"):
            nf_mora(P("X1"), [P("X1-X1^2")])

    def test_closure_matches_seed_driven_closure(self):
        # the whole box runs in CI: PYTHONPATH=src python tests/seed_engine.py
        sample = random.Random(13).sample(engine_box(), 60)
        results = {p: closure_differs(p) for p in sample}
        assert [p for p, routes in results.items() if any(routes.values())] == []
        # the sample takes both routes: a binomial cone runs the CM closure
        assert 0 < sum("cm" in routes for routes in results.values()) < len(sample)


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

    The figures were recorded from the engine before leads were stored on
    the polynomial, when `nf_mora` still chose the reducer by ecart; a change
    of pair order, pair skipping or reducer choice moves them.
    """

    def test_local_route_on_6_6_2_4_4(self, monkeypatch):
        counts = count_engine_calls(monkeypatch)
        assert len(engine_basis(toric_generators(PseudoSymmetricParams(6, 6, 2, 4, 4)))) == 29
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

    def test_buchberger_route_on_6_6_2_4_4(self, monkeypatch):
        # the heaviest CM route of the engine box; recorded before the
        # exponent arithmetic was written out four wide
        G = engine_basis(toric_generators(PseudoSymmetricParams(6, 6, 2, 4, 4)))
        counts = count_engine_calls(monkeypatch)
        verdict = cm.cm_verdict(G)
        assert (verdict.cohen_macaulay, verdict.witness) == (False, (4, 0, 0, 1))
        assert counts == {
            ("nf_global", True): 388, ("nf_global", False): 2,
            ("reduce_step", True): 295, ("reduce_step", False): 1698,
            ("spoly", True): 93, ("spoly", False): 297,
        }
