"""Cohen-Macaulayness verdicts and the colon-stability equivalence."""

import random
from collections import Counter

import pytest

import reference as ref
from pseudosym import cm
from pseudosym.cm import CmVerdict, cm_verdict
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
        verdict = cm_verdict(G)
        assert not verdict.cohen_macaulay
        assert verdict.witness == (8, 0, 0, 1)

    def test_ideal_without_x1_is_cm(self):
        verdict = cm_verdict(mono_ideal((0, 2, 0, 0), (0, 0, 1, 1)))
        assert verdict.cohen_macaulay
        assert verdict.witness is None

    def test_empty_basis_is_cm(self):
        # the zero ideal: X1 is a nonzerodivisor on the polynomial ring
        assert cm_verdict([]) == CmVerdict(True, None)

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
        assert verdict.cohen_macaulay and verdict.witness is None


class TestLowestFormRule:
    """`cm_verdict` reads each element's lowest form by the rule: the lead of
    a non-homogeneous binomial, the whole of any other element."""

    def test_basis_with_a_non_homogeneous_binomial(self):
        # The lower-degree term X2*X3 leads, and it is the lowest form.
        f = parse_poly("X1^3-X2*X3", LOCAL)
        assert f.lm == (0, 1, 1, 0)
        assert cm_verdict([f]) == CmVerdict(True, None)
        # Beside a homogeneous binomial the cone is binomial: X2*X3 and
        # X2*X4 - X1*X3, whose s-polynomial leaves X1*X3^2 under CM_ORDER.
        g = parse_poly("X1*X3-X2*X4", LOCAL)
        assert cm_verdict([f, g]) == CmVerdict(False, (1, 0, 2, 0))

    @pytest.mark.parametrize("text, negated, verdict", [
        ("-X1*X2", "X1*X2", CmVerdict(False, (1, 1, 0, 0))),
        # the local lead is X2, so the element is stored as X2 - X1^2
        ("X1^2-X2", "X2-X1^2", CmVerdict(True, None)),
        ("X3^2-X1*X2", "X1*X2-X3^2", CmVerdict(True, None)),
    ])
    def test_element_written_with_a_negative_lead(self, text, negated, verdict):
        f = parse_poly(text, LOCAL)
        assert f == parse_poly(negated, LOCAL)
        assert cm_verdict([f]) == verdict


class TestColonStability:
    """The test reference `colon_stability` against `cm_verdict` on monomial ideals."""

    def test_stable_without_the_variable(self):
        assert ref.colon_stability([(0, 2, 0, 0)], 0)
        assert cm_verdict(mono_ideal((0, 2, 0, 0))).cohen_macaulay

    def test_unstable_with_it(self):
        assert not ref.colon_stability([(1, 1, 0, 0)], 0)
        assert not cm_verdict(mono_ideal((1, 1, 0, 0))).cohen_macaulay

    def test_agrees_with_divisibility_on_random_ideals(self):
        rng = random.Random(13)
        for _ in range(200):
            gens = [tuple(rng.randrange(0, 4) for _ in range(4))
                    for _ in range(rng.randrange(1, 6))]
            if (0, 0, 0, 0) in gens:
                continue
            verdict = cm_verdict(mono_ideal(*gens))
            assert verdict.cohen_macaulay == ref.colon_stability(gens, 0)
            if not verdict.cohen_macaulay:
                assert verdict.witness in ref.minimal_monomials(gens)
                assert verdict.witness[0] > 0


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
            G = engine_basis(toric_generators(params))
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
        assert forced_verdict(G) == CmVerdict(False, (1, 0, 1, 0))
        monkeypatch.setattr(cm, "buchberger_homogeneous", _no_buchberger)
        assert cm_verdict(G) == CmVerdict(False, (1, 0, 1, 0))


def _no_buchberger(gens, order):
    raise AssertionError("the cone went to Buchberger")


class TestPipelineVerdicts:
    def test_family_tuples_are_never_cm(self, engine_bases):
        for params in FAMILY_TUPLES:
            verdict = cm_verdict(engine_bases[params])
            assert not verdict.cohen_macaulay
            assert verdict.witness == (params.alpha21, 0, 0, 1)

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
            G = engine_basis(toric_generators(params))
            assert cm_verdict(G).cohen_macaulay, params
