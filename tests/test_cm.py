"""Cohen-Macaulayness verdicts and the colon-stability equivalence."""

import random

import pytest

import reference as ref
from pseudosym import cm
from pseudosym.cm import CmVerdict, cm_verdict
from pseudosym.poly import LOCAL, monomial, parse_poly
from pseudosym.semigroup import PseudoSymmetricParams, check_conditions
from pseudosym.pipeline import engine_basis
from pseudosym.stdbasis import leading_ideal, tangent_cone_ideal
from pseudosym.toric import toric_generators

from conftest import FAMILY_TUPLES, TUPLE_41, TUPLE_42


def mono_ideal(*monos):
    return [monomial(m, LOCAL) for m in monos]


class TestDivisibilityCriterion:
    def test_first_example_not_cm(self, engine_bases):
        G = engine_bases[TUPLE_41]
        assert all(len(g.terms) == 1 for g in tangent_cone_ideal(G))
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

        def traced(gens):
            calls.append(gens)
            return buchberger(gens)

        buchberger = cm.buchberger_homogeneous
        monkeypatch.setattr(cm, "buchberger_homogeneous", traced)
        f = parse_poly("X1*X2-X3^2", LOCAL)
        assert f.lm == (1, 1, 0, 0)
        verdict = cm_verdict([f])
        assert len(calls) == 1
        assert verdict.cohen_macaulay and verdict.witness is None


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
