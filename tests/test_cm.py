"""Cohen-Macaulayness verdicts and the colon-stability equivalence."""

import random
from collections import Counter

import pytest

import reference as ref
from pseudosym import cm
from pseudosym.cm import cm_verdict
from pseudosym.poly import LOCAL, monomial, parse_poly
from pseudosym.semigroup import PseudoSymmetricParams, check_conditions
from pseudosym.pipeline import engine_basis
from pseudosym.stdbasis import leading_ideal, tangent_cone_ideal
from pseudosym.toric import toric_generators

from conftest import FAMILY_TUPLES, TUPLE_41, TUPLE_42, engine_box, family_box
from seed_engine import forced_verdict, leads_alike


def mono_ideal(*monos):
    return [monomial(m) for m in monos]


class TestDivisibilityCriterion:
    def test_first_example_not_cm(self, engine_bases):
        G = engine_bases[TUPLE_41]
        assert all(len(ref.terms(g)) == 1 for g in tangent_cone_ideal(G))
        assert cm_verdict(G) == (False, (8, 0, 0, 1))

    def test_ideal_without_x1_is_cm(self):
        assert cm_verdict(mono_ideal((0, 2, 0, 0), (0, 0, 1, 1))) == (True, None)

    def test_empty_basis_is_cm(self):
        # the zero ideal: X1 is a nonzerodivisor on the polynomial ring
        assert cm_verdict([]) == (True, None)

    def test_non_monomial_input_rejected(self, monkeypatch):
        # The local lead X1*X2 of a binomial cone is not tested: the cone goes
        # through the Groebner basis under CM_ORDER, whose lead is X3^2.
        calls = []

        def traced(gens, order):
            calls.append(gens)
            return buchberger(gens, order)

        buchberger = cm.buchberger_homogeneous
        monkeypatch.setattr(cm, "buchberger_homogeneous", traced)
        f = parse_poly("X1*X2-X3^2", LOCAL)
        assert f.lm == (1, 1, 0, 0)
        verdict = cm_verdict([f])
        assert len(calls) == 1
        assert verdict == (True, None)


class TestLowestFormRule:
    """`cm_verdict` reads each element's lowest form by the rule: the lead of
    a non-homogeneous binomial, the whole of any other element."""

    def test_basis_with_a_non_homogeneous_binomial(self):
        # The lower-degree term X2*X3 leads, and it is the lowest form.
        f = parse_poly("X1^3-X2*X3", LOCAL)
        assert f.lm == (0, 1, 1, 0)
        assert cm_verdict([f]) == (True, None)
        # Beside a homogeneous binomial the cone is binomial: X2*X3 and
        # X2*X4 - X1*X3, whose s-polynomial leaves X1*X3^2 under CM_ORDER.
        g = parse_poly("X1*X3-X2*X4", LOCAL)
        assert cm_verdict([f, g]) == (False, (1, 0, 2, 0))

    @pytest.mark.parametrize("text, negated, verdict", [
        ("-X1*X2", "X1*X2", (False, (1, 1, 0, 0))),
        # the local lead is X2, so the element is stored as X2 - X1^2
        ("X1^2-X2", "X2-X1^2", (True, None)),
        ("X3^2-X1*X2", "X1*X2-X3^2", (True, None)),
    ])
    def test_element_written_with_a_negative_lead(self, text, negated, verdict):
        f = parse_poly(text, LOCAL)
        assert f == parse_poly(negated, LOCAL)
        assert cm_verdict([f]) == verdict


class TestColonStability:
    """The test reference `colon_stability` against `cm_verdict` on monomial ideals."""

    def test_stable_without_the_variable(self):
        assert ref.colon_stability([(0, 2, 0, 0)], 0)
        assert cm_verdict(mono_ideal((0, 2, 0, 0)))[0]

    def test_unstable_with_it(self):
        assert not ref.colon_stability([(1, 1, 0, 0)], 0)
        assert not cm_verdict(mono_ideal((1, 1, 0, 0)))[0]

    def test_agrees_with_divisibility_on_random_ideals(self):
        rng = random.Random(13)
        for _ in range(200):
            gens = [tuple(rng.randrange(0, 4) for _ in range(4))
                    for _ in range(rng.randrange(1, 6))]
            if (0, 0, 0, 0) in gens:
                continue
            cohen_macaulay, witness = cm_verdict(mono_ideal(*gens))
            assert cohen_macaulay == ref.colon_stability(gens, 0)
            if not cohen_macaulay:
                assert witness in ref.minimal_monomials(gens)
                assert witness[0] > 0


class TestLocalLeadsRule:
    """A cone none of whose binomials leads differently under CM_ORDER is
    decided from the local leads of its lowest forms, with no Buchberger run."""

    @pytest.mark.parametrize("box, read, binomial", [
        (family_box, 81, 81),
        (engine_box, 98, 676),
    ], ids=["family", "engine"])
    def test_verdict_equals_the_forced_buchberger_route(self, box, read, binomial):
        # every verify tuple of the benchmark's family_sweep and engine_offfamily boxes
        counts = Counter()
        for params in box():
            G = engine_basis(params, toric_generators(params))
            assert cm_verdict(G) == forced_verdict(G), params
            cone = tangent_cone_ideal(G)
            if not all(g.tail is None for g in cone):
                counts["binomial"] += 1
                counts["read"] += leads_alike(cone)
        assert (counts["read"], counts["binomial"]) == (read, binomial)

    def test_binomial_cone_led_alike_is_read_off_its_leads(self, monkeypatch):
        # X2^2 leads X2^2 - X3*X4 under the local order and CM_ORDER alike, and
        # is coprime to X1*X3, so the two are a standard basis under both
        G = [parse_poly("X2^2-X3*X4", LOCAL), monomial((1, 0, 1, 0))]
        assert forced_verdict(G) == (False, (1, 0, 1, 0))
        monkeypatch.setattr(cm, "buchberger_homogeneous", _no_buchberger)
        assert cm_verdict(G) == (False, (1, 0, 1, 0))


def _no_buchberger(gens, order):
    raise AssertionError("the cone went to Buchberger")


class TestPipelineVerdicts:
    def test_family_tuples_are_never_cm(self, engine_bases):
        for params in FAMILY_TUPLES:
            assert cm_verdict(engine_bases[params]) == (False, (params.alpha21, 0, 0, 1))

    def test_second_example_cone_is_colon_unstable(self, engine_bases):
        gens = leading_ideal(engine_bases[TUPLE_42])
        assert not ref.colon_stability(gens, 0)

    def test_small_alpha2_controls_are_cm(self):
        # alpha2 <= alpha21 + 1 leaves X1 out of the tangent cone's socle
        controls = [
            PseudoSymmetricParams(4, 2, 2, 2, 1),
            PseudoSymmetricParams(5, 3, 2, 2, 2),
            PseudoSymmetricParams(6, 4, 2, 2, 3),
        ]
        for params in controls:
            conds = check_conditions(params)
            assert conds["sorted"] and conds["coprime"] and not conds["c4"]
            G = engine_basis(params, toric_generators(params))
            assert cm_verdict(G)[0], params


def _ids(params):
    return "-".join(map(str, params.as_dict().values()))


# Seeded draws from the boxes of the benchmark's family_sweep and
# engine_offfamily workloads.
FAMILY_DRAW = random.Random(5).sample(family_box(), 40)
ENGINE_DRAW = random.Random(7).sample(engine_box(), 48)


class TestVerdictPair:
    """`cm_verdict` returns the plain pair (cohen_macaulay, witness)."""

    @pytest.mark.parametrize("params", FAMILY_DRAW, ids=_ids)
    def test_family_witness_is_x1_to_the_alpha21_times_x4(self, params):
        G = engine_basis(params, toric_generators(params))
        verdict = cm_verdict(G)
        assert type(verdict) is tuple
        assert verdict == forced_verdict(G) == (False, (params.alpha21, 0, 0, 1))

    @pytest.mark.parametrize("params", ENGINE_DRAW, ids=_ids)
    def test_off_family_pair_against_the_cone(self, params):
        G = engine_basis(params, toric_generators(params))
        verdict = cm_verdict(G)
        cohen_macaulay, witness = verdict
        assert type(verdict) is tuple and type(cohen_macaulay) is bool
        assert (witness is None) is cohen_macaulay
        assert verdict == forced_verdict(G)
        cone = tangent_cone_ideal(G)
        if all(g.tail is None for g in cone):
            # a monomial cone: X1 is a nonzerodivisor iff the colon by X1 is the cone
            gens = [g.lead for g in cone]
            assert cohen_macaulay == ref.colon_stability(gens, 0)
            assert witness == min((m for m in ref.minimal_monomials(gens) if m[0] > 0), default=None)

    def test_engine_draw_has_both_verdicts_and_monomial_cones(self):
        bases = [engine_basis(params, toric_generators(params)) for params in ENGINE_DRAW]
        assert {cm_verdict(G)[0] for G in bases} == {True, False}
        assert any(all(g.tail is None for g in tangent_cone_ideal(G)) for G in bases)
