"""The reduction engine: weak normal forms, basis computation, tangent cones."""

import itertools
import random
from collections import Counter
from operator import add

import pytest
from hypothesis import given, strategies as st

import reference as ref
from pseudosym import PseudoSymmetricParams, cm, stdbasis
from pseudosym.errors import InconsistencyError
from pseudosym.pipeline import engine_basis, load_fixture_basis
from pseudosym.poly import (
    LOCAL,
    DimensionError,
    MonomialOrder,
    Polynomial,
    minimalize_monomials,
    monomial,
    parse_poly,
    render_poly,
    spoly,
    weighted_degree,
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
from seed_engine import check as seed_check
from seed_engine import divides, seed_closure, seed_nf_global, seed_nf_mora

GT = LOCAL.greater

def P(text, order=LOCAL):
    return parse_poly(text, order)


class TestNfMora:
    def test_spoly_of_first_pair_reduces_to_zero(self, engine_bases):
        G = engine_bases[TUPLE_41]
        f1, f2 = P("X1^16-X3*X4"), P("X2^20-X1^8*X4")
        assert nf_mora(spoly(f1, f2, GT), G, GT).is_zero

    def test_zero_input(self, engine_bases):
        assert nf_mora(zero(), engine_bases[TUPLE_41], GT).is_zero

    def test_two_branch_reduction_case(self, engine_bases):
        # spoly(f5, f6) has two reducers to choose from; a standard basis
        # reduces it to zero whichever is taken first
        G = engine_bases[TUPLE_41]
        f5, f6 = P("X1^9*X3^6-X2*X4"), P("X1^24-X2^20*X3")
        assert nf_mora(spoly(f5, f6, GT), G, GT).is_zero

    def test_partial_reduction_stops_at_irreducible_lm(self, engine_bases):
        # one cancellation through f1, then X1^3*X2 leads and nothing divides it
        G = engine_bases[TUPLE_41]
        h = nf_mora(P("X1*X3*X4-X1^3*X2"), G, GT)
        assert h == P("X1^3*X2-X1^17")
        assert not any(divides(g.lm, h.lm) for g in G)


class TestStandardBasis:
    @pytest.mark.parametrize("params,size", ALL_FIXTURE_TUPLES)
    def test_reproduces_stored_bases(self, engine_bases, params, size):
        G = engine_bases[params]
        assert len(G) == size
        fixture = load_fixture_basis(params)
        assert fixture is not None
        assert frozenset(G) == frozenset(fixture)

    def test_single_monomial_is_its_own_basis(self):
        f = monomial((2, 0, 1, 0))
        assert standard_basis([f], (1, 1, 1, 1)) == [f]

    def test_certificate_every_pair_reduces(self, engine_bases):
        # definition-level check on every stored tuple, with no coprime skip
        for params, _ in ALL_FIXTURE_TUPLES:
            G = engine_bases[params]
            for i in range(len(G)):
                for j in range(i + 1, len(G)):
                    assert nf_mora(spoly(G[i], G[j], GT), G, GT).is_zero, (params, i, j)

    def test_binomials_with_equal_sdegrees_throughout(self, engine_bases):
        for params, _ in ALL_FIXTURE_TUPLES:
            S = construct_generators(params)
            for g in engine_bases[params]:
                assert len(ref.terms(g)) == 2
                assert {abs(c) for c, _ in ref.terms(g)} == {1}
                assert g.is_homogeneous(S.generators)

    def test_membership_of_random_multiples(self, engine_bases):
        G = engine_bases[TUPLE_41]
        gens = toric_generators(TUPLE_41).generators
        rng = random.Random(11)
        for _ in range(25):
            f = rng.choice(gens)
            m = tuple(rng.randrange(0, 4) for _ in range(4))
            multiple = Polynomial([(c, tuple(map(add, t, m))) for c, t in ref.terms(f)], LOCAL)
            assert nf_mora(multiple, G, GT).is_zero

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
    return all(len(ref.terms(g)) == 1 for g in cone)


class TestLowestForm:
    def test_mixed_binomial(self):
        f2 = P("X2^20-X1^8*X4")
        assert lowest_form(f2) == P("X1^8*X4")

    def test_homogeneous_is_unchanged(self):
        f = P("X1*X2-X3^2")
        assert lowest_form(f) == f

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            lowest_form(zero())

    def test_homogeneous_at_leading_degree(self, engine_bases):
        # under the local ordering the lowest form sits at deg(LM(f))
        for g in engine_bases[TUPLE_42]:
            low = lowest_form(g)
            assert low.is_homogeneous()
            assert {sum(m) for _, m in ref.terms(low)} == {sum(g.lm)}


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
        assert tc == [f]
        assert not is_monomial_cone(tc)

    def test_second_example_keeps_intermediate_tail_monomial(self, engine_bases):
        tc = tangent_cone_ideal(engine_bases[TUPLE_42])
        assert (9, 0, 4, 0) in {g.lm for g in tc}


class TestLeadingIdeal:
    def test_monomial_minimalization(self):
        fs = [monomial((0, 0, 1, 1)), monomial((0, 0, 2, 1))]
        assert leading_ideal(fs) == [(0, 0, 1, 1)]

    def test_first_example_nothing_removable(self, engine_bases):
        lead = leading_ideal(engine_bases[TUPLE_41])
        assert len(lead) == 7


class TestBuchbergerHomogeneous:
    def test_monomial_input_unchanged(self):
        fs = [monomial((1, 1, 0, 0)), monomial((0, 0, 3, 0))]
        assert frozenset(buchberger_homogeneous(fs, cm.CM_ORDER)) == frozenset(fs)

    def test_hand_traced_pair(self):
        # spoly(X1*X2 - X3^2, X3^3) = -X3^5 reduces to zero, so the input
        # is already a Groebner basis; X1*X2*X3 - X3^3 lies in the ideal.
        f = P("X1*X2-X3^2")
        g = P("X3^3")
        basis = buchberger_homogeneous([f, g], LOCAL)
        assert frozenset(basis) == frozenset([f, g])
        assert nf_global(P("X1*X2*X3-X3^3"), basis, GT).is_zero

    def test_lowest_degree_first(self):
        # minimalize sorts by the local order, largest lead first, so the
        # result runs from degree 2 to degree 5 whatever order the input has
        gens = [P(text, cm.CM_ORDER) for text in ("X1^3-X4^3", "X2*X3", "X1*X3-X2*X4")]
        basis = buchberger_homogeneous(gens, cm.CM_ORDER)
        assert [render_poly(g) for g in basis] == [
            "X2*X3", "X2*X4-X1*X3", "X4^3-X1^3", "X1*X3^2", "X1*X3*X4^2-X1^3*X2", "X1^3*X2^2",
        ]
        assert [sum(g.lm) for g in basis] == [2, 2, 3, 3, 4, 5]

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError, match="non-homogeneous"):
            buchberger_homogeneous([P("X1^2-X2")], LOCAL)

    def test_dispatch_rule_monomial_cones_skip_it(self, engine_bases, monkeypatch):
        # the monomial tangent cone of the first example never needs it
        G = engine_bases[TUPLE_41]
        assert is_monomial_cone(tangent_cone_ideal(G))

        def refuse(gens, order):
            raise AssertionError("monomial cone sent to buchberger_homogeneous")

        monkeypatch.setattr(cm, "buchberger_homogeneous", refuse)
        assert not cm.cm_verdict(G).cohen_macaulay


class TestOneOrderPerComputation:
    """`standard_basis` runs under another order from its one `order=` argument."""

    def test_multiplicity_last_order_on_6_6_2_4_4(self):
        system = toric_generators(PseudoSymmetricParams(6, 6, 2, 4, 4))
        weights = system.semigroup.generators
        # n2 is the smallest generator, so X2 is the least significant variable
        assert weights == (37, 35, 36, 62)
        order = MonomialOrder((0, 2, 3, 1))
        basis = standard_basis(system.generators, weights, order=order)
        assert all(order.greater(g.lead, g.tail) for g in basis if g.tail is not None)
        # the route of rebuilding every generator under the order first
        rebuilt = [ref.with_order(f, order) for f in system.generators]
        assert rebuilt != list(system.generators)
        expected = standard_basis(rebuilt, weights, order=order)
        assert [parts(g) for g in basis] == [parts(g) for g in expected]
        # and the frozen loop on the rebuilt generators, minimalized as before
        frozen = old_minimalize(seed_closure(rebuilt, seed_nf_mora, order), order)
        assert [parts(g) for g in basis] == [parts(g) for g in frozen]
        assert frozenset(basis) != frozenset(engine_basis(system))


class TestAgainstClosedForm:
    def test_engine_matches_prediction_on_family_tuples(self, engine_bases):
        for params, _ in ALL_FIXTURE_TUPLES:
            if params.alpha4 != 2:
                continue
            predicted = closed_form_basis(toric_generators(params))
            assert frozenset(predicted.elements) == frozenset(engine_bases[params])


# The minimalization and Cohen-Macaulay route as they were before each became
# one function: a divisibility scan of its own in `minimalize`, lowest forms
# re-collected from the terms, and the verdict split over three functions.

def old_minimalize(G, order):
    if not G:
        return []
    ranked = sorted(enumerate(G), key=lambda ig: (sum(ig[1].lm), ref.order_key(order, ig[1].lm), ig[0]))
    kept = []
    for _, g in ranked:
        if not any(divides(k.lm, g.lm) for k in kept):
            kept.append(g)
    kept.sort(key=lambda g: ref.order_key(order, g.lm), reverse=True)
    return kept


def old_cm_verdict(G):
    lows = []
    for g in G:
        d = min(sum(m) for _, m in ref.terms(g))
        lows.append(Polynomial([(c, m) for c, m in ref.terms(g) if sum(m) == d], LOCAL))
    if all(len(ref.terms(g)) == 1 for g in lows):
        gens = [g.lm for g in lows]
    else:
        regraded = [ref.with_order(g, cm.CM_ORDER) for g in lows]
        closure = stdbasis._closure(regraded, nf_global, cm.CM_ORDER.greater)
        gens = [g.lm for g in old_minimalize(closure, cm.CM_ORDER)]
    bad = [m for m in minimalize_monomials(gens) if m[0] > 0]
    return cm.CmVerdict(False, min(bad)) if bad else cm.CmVerdict(True, None)


def terms_of(G):
    return [ref.terms(g) for g in G]


class TestFoldAgainstOldRoutes:
    """`minimalize` and `cm_verdict` against the copies above: same survivors
    in the same order, same verdict and witness."""

    def check(self, params, basis, rng):
        """Compare on the closure, shuffled too, and the basis; return (route, verdict).

        The lead monomials of the basis, put before or after it, share their
        leads with basis elements, so the first element per lead matters.
        """
        closure = stdbasis._closure(toric_generators(params).generators, nf_mora, GT)
        shuffled = rng.sample(closure, len(closure))
        leads = [monomial(g.lm) for g in basis]
        for G in (closure, shuffled, basis, leads + shuffled, shuffled + leads):
            assert terms_of(stdbasis.minimalize(G, GT)) == terms_of(old_minimalize(G, LOCAL))
        cone = tangent_cone_ideal(basis)
        if not is_monomial_cone(cone):
            regraded = [ref.with_order(g, cm.CM_ORDER) for g in cone]
            closure = stdbasis._closure(regraded, nf_global, cm.CM_ORDER.greater)
            assert (terms_of(stdbasis.minimalize(closure, cm.CM_ORDER.greater))
                    == terms_of(old_minimalize(closure, cm.CM_ORDER)))
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
    """A nonzero monomial or ±1 binomial, written with either sign, homogeneous for `weights` when given.

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
    """(h, reducers, order) under LOCAL or CM_ORDER, homogeneous for one grading.

    The normal form terminates only on graded input, so every element is
    homogeneous: a `graded` case draws a positive weight vector, and any
    other is graded by degree, as the CM route's cone is.
    """
    order = draw(st.sampled_from([LOCAL, cm.CM_ORDER]))
    if graded:
        weights = draw(st.tuples(*([st.integers(1, 4)] * 4)))
    else:
        weights = (1, 1, 1, 1)
    basis = draw(st.lists(shapes(order, weights), min_size=1, max_size=6))
    return draw(shapes(order, weights, top=6)), basis, order


class TestReducerScan:
    @given(reduction_cases(graded=True))
    def test_nf_mora_matches_seed_scan(self, case):
        # in stable ecart order, as the basis loop keeps its reducers, the
        # first divisor is Mora's choice: the first of least ecart
        h, basis, order = case
        reducers = sorted(basis, key=stdbasis._ecart)
        assert ref.terms(nf_mora(h, reducers, order.greater)) == ref.terms(seed_nf_mora(h, basis, order))

    def test_one_normal_form_serves_both_routes(self):
        assert nf_global is nf_mora

    @given(reduction_cases(graded=False))
    def test_nf_global_matches_seed_scan(self, case):
        h, basis, order = case
        assert ref.terms(nf_global(h, basis, order.greater)) == ref.terms(seed_nf_global(h, basis, order))

    def test_mixed_exponent_lengths_rejected(self):
        # every polynomial has four exponents, so the scan checks no length
        with pytest.raises(DimensionError):
            monomial((1, 0, 0))
        with pytest.raises(DimensionError):
            Polynomial([(1, (1, 0, 0, 0, 0)), (-1, (0, 0, 0, 0, 1))], LOCAL)

    def test_minimalize_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            stdbasis.minimalize([monomial((1, 0, 0, 0)), monomial((1, 0, 0))], GT)

    @pytest.mark.parametrize("nf", [nf_mora, nf_global])
    def test_zero_input_ignores_the_basis(self, nf):
        assert nf(zero(), [zero(), monomial((1, 0, 0, 0))], GT).is_zero


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
            nf_mora(P("X1"), [P("X1-X1^2")], GT)

    def test_closure_matches_seed_driven_closure(self):
        # the whole box runs in CI: PYTHONPATH=src python tests/seed_engine.py
        sample = closure_sample()
        results = {p: seed_check(p) for p in sample}
        assert [p for p, (routes, _, _) in results.items() if any(routes.values())] == []
        # the sample takes both routes: a binomial cone runs the CM closure
        assert 0 < sum("cm" in routes for routes, _, _ in results.values()) < len(sample)
        # cm_verdict reads some binomial cones off their local leads, and
        # agrees with the forced Buchberger route on every tuple
        assert sum(read for _, read, _ in results.values()) > 0
        assert [p for p, (_, _, bad) in results.items() if bad] == []

    def test_cm_cone_is_the_regraded_tangent_cone(self, monkeypatch):
        # Buchberger runs exactly when a cone binomial leads differently
        # under CM_ORDER, and then gets the cone, element for element
        built = []
        real = cm.buchberger_homogeneous
        monkeypatch.setattr(cm, "buchberger_homogeneous",
                            lambda gens, order: built.append((gens, order)) or real(gens, order))
        routes = set()
        for params in closure_sample():
            G = engine_basis(toric_generators(params))
            built.clear()
            cm.cm_verdict(G)
            cone = tangent_cone_ideal(G)
            regraded = any(g.tail is not None and cm.CM_ORDER.greater(g.tail, g.lead) for g in cone)
            routes.add((is_monomial_cone(cone), regraded))
            if not regraded:
                assert built == []
            else:
                # handed over once, as the cone's parts, with CM_ORDER to re-decide each lead
                assert len(built) == 1
                gens, order = built[0]
                assert order == cm.CM_ORDER
                assert [parts(g) for g in gens] == [parts(g) for g in cone]
                # the same basis as from the cone rebuilt under CM_ORDER first
                rebuilt = [ref.with_order(g, order) for g in cone]
                assert ([parts(g) for g in buchberger_homogeneous(gens, order)]
                        == [parts(g) for g in buchberger_homogeneous(rebuilt, order)])
        # a monomial cone, a binomial cone read off the local leads, and a regraded one
        assert routes == {(True, False), (False, False), (False, True)}


def closure_sample():
    """60 tuples of the engine box that take both routes of the closure."""
    return random.Random(13).sample(engine_box(), 60)


def parts(g):
    return g.lead, g.tail


def count_engine_calls(monkeypatch):
    """Count each call of the engine's stages by (name, whether the result is zero).

    Each `reduce_step` call of `nf_mora` and `nf_global` counts under
    ("step", whether the step leaves zero): only the last step of a call
    that ends in zero does.
    """
    counts = Counter()
    for name in ("nf_mora", "nf_global", "spoly"):
        def wrapper(*args, _fn=getattr(stdbasis, name), _name=name):
            result = _fn(*args)
            counts[_name, result.is_zero] += 1
            return result

        monkeypatch.setattr(stdbasis, name, wrapper)

    def step(*args, _fn=stdbasis.reduce_step):
        result = _fn(*args)
        counts["step", result[0] is None] += 1
        return result

    monkeypatch.setattr(stdbasis, "reduce_step", step)
    return counts


class TestEngineWork:
    """Which pairs are reduced, which reducer is picked and how many steps
    each normal form takes, as counts.

    The figures were recorded from the engine before leads were stored on
    the polynomial, when `nf_mora` still chose the reducer by ecart; a
    change of pair order, pair skipping, reducer choice or step count moves
    them.  The two CM-route figures were recorded again when pairs of two
    monomials, whose s-polynomial is 0, stopped being formed: no zero
    s-polynomial is left, and the step counts did not move.  The step
    counts are the `reduce_step` calls, by whether the step left zero.
    """

    def test_local_route_on_6_6_2_4_4(self, monkeypatch):
        counts = count_engine_calls(monkeypatch)
        assert len(engine_basis(toric_generators(PseudoSymmetricParams(6, 6, 2, 4, 4)))) == 29
        assert counts == {
            ("nf_mora", True): 1247, ("nf_mora", False): 49,
            ("step", True): 1214, ("step", False): 5893,
            ("spoly", True): 33, ("spoly", False): 1263,
        }

    def test_buchberger_route_on_9_5_3_3_2(self, monkeypatch, engine_bases):
        G = engine_bases[TUPLE_A4_3]
        counts = count_engine_calls(monkeypatch)
        assert not cm.cm_verdict(G).cohen_macaulay
        assert counts == {
            ("nf_global", True): 11, ("nf_global", False): 1,
            ("step", True): 11, ("step", False): 1,
            ("spoly", False): 12,
        }

    def test_buchberger_route_on_6_6_2_4_4(self, monkeypatch):
        # the heaviest CM route of the engine box; recorded before the
        # exponent arithmetic was written out four wide
        G = engine_basis(toric_generators(PseudoSymmetricParams(6, 6, 2, 4, 4)))
        counts = count_engine_calls(monkeypatch)
        verdict = cm.cm_verdict(G)
        assert (verdict.cohen_macaulay, verdict.witness) == (False, (4, 0, 0, 1))
        assert counts == {
            ("nf_global", True): 295, ("nf_global", False): 2,
            ("step", True): 295, ("step", False): 1698,
            ("spoly", False): 297,
        }

    def test_hand_made_example_takes_three_steps(self, monkeypatch):
        # X1^3*X2 - X3^4 by X1*X2 - X3^2, then X1^2*X3^2 - X3^4 by X1^2 - X2^2:
        # two steps to X2^2*X3^2 - X3^4, which X2^2*X3^2 - X3^4 cancels in a third
        reducers = [P("X1*X2-X3^2"), P("X1^2-X2^2"), P("X2^2*X3^2-X3^4")]
        h = P("X1^3*X2-X3^4")
        counts = count_engine_calls(monkeypatch)
        assert nf_mora(h, reducers, GT).is_zero
        assert counts == {("step", True): 1, ("step", False): 2}
        counts.clear()
        assert nf_mora(h, [], GT) is h
        assert counts == {}
