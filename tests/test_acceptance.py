"""Acceptance gate: eight exit criteria, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  Every comparison here is exact (integer/rational arithmetic
throughout), so there are no tolerances to tune.
"""

import json
import random

import pytest

import reference as ref
from pseudosym import cm, hilbert
from pseudosym.cli import main as cli_main
from pseudosym.pipeline import (
    SweepConfig,
    basis_set,
    iter_sweep,
    build_report,
    engine_basis,
    load_fixture_basis,
    load_fixture_numerator,
)
from pseudosym.semigroup import PseudoSymmetricParams, check_conditions, construct_generators
from pseudosym.stdbasis import leading_ideal
from pseudosym.toric import compute_k, toric_generators

from conftest import ALL_FIXTURE_TUPLES, FAMILY_TUPLES, TUPLE_43, TUPLE_44


def _verdict(num: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def sweep_reports():
    """Full pipeline over every admissible tuple with 2 <= alpha <= 8."""
    return [build_report(p) for p in iter_sweep(SweepConfig())]


def test_criterion_1_standard_basis_fixtures(engine_bases):
    sizes = []
    ok = True
    for params, expected_size in ALL_FIXTURE_TUPLES:
        G = engine_bases[params]
        fixture = load_fixture_basis(params)
        match = fixture is not None and basis_set(G) == basis_set(fixture)
        ok = ok and match and len(G) == expected_size
        sizes.append(len(G))
    _verdict(1, f"engine reproduces all 6 stored bases, sizes {sizes}", ok)


def test_criterion_2_closed_form_equals_engine(sweep_reports):
    failures = [r["params"] for r in sweep_reports if not r["closed_form"]["match"]]
    _verdict(
        2,
        f"closed form = engine basis on all {len(sweep_reports)} sweep tuples "
        f"(non-strict k), failures: {failures}",
        len(sweep_reports) > 0 and not failures,
    )


def test_criterion_3_numerator_triangle(engine_bases):
    ok = True
    for params in FAMILY_TUPLES:
        from_pivots = hilbert.hilbert_numerator(leading_ideal(engine_bases[params]))
        from_formula = hilbert.closed_form_numerator(params, compute_k(params))
        stored = ref.to_list(dict(load_fixture_numerator(params)))
        ok = ok and from_pivots == from_formula == stored
    _verdict(3, "pivot recursion = closed form = stored numerator on all 4 tuples", ok)


def test_criterion_4_oracle_equality(sweep_reports, engine_bases):
    from pseudosym.semigroup import hilbert_oracle

    ok = True
    for params in FAMILY_TUPLES:
        P = hilbert.hilbert_numerator(leading_ideal(engine_bases[params]))
        Q = hilbert.second_series(P)
        rep = hilbert.hilbert_function(Q)  # deg Q + 5 levels by default
        S = construct_generators(params)
        ok = ok and list(rep.hilbert_function) == hilbert_oracle(S, len(rep.hilbert_function) - 1)
    sweep_ok = all(r["oracle_match"] for r in sweep_reports)
    _verdict(
        4,
        f"Hilbert function = order-counting oracle on the 4 stored tuples "
        f"and all {len(sweep_reports)} sweep tuples",
        ok and sweep_ok,
    )


def test_criterion_5_k1_nonnegativity(sweep_reports):
    k1 = [r for r in sweep_reports if r["k"]["nonstrict"] == 1]
    bad = [r["params"] for r in k1 if not r.get("k1_certificate", False)]
    also_decreasing = [r["params"] for r in k1 if not r["non_decreasing"]]
    _verdict(
        5,
        f"all {len(k1)} k=1 sweep tuples have nonnegative second series "
        f"(violations: {bad or also_decreasing})",
        len(k1) > 0 and not bad and not also_decreasing,
    )


def test_criterion_6_structural_invariants(engine_bases):
    ok = True
    # exact vanishing order 3 at t = 1, multiplicity, and H(0), H(1)
    for params in FAMILY_TUPLES:
        P = hilbert.hilbert_numerator(leading_ideal(engine_bases[params]))
        Q = hilbert.second_series(P)  # would raise if (1-t)^3 did not divide
        n1 = min(construct_generators(params).generators)
        rep = hilbert.hilbert_function(Q)
        ok = ok and sum(P) == 0 and sum(Q) == n1 and sum(Q) != 0
        ok = ok and rep.hilbert_function[0] == 1 and rep.hilbert_function[1] == 4

    # pivot invariance and brute-force counts on 200 seeded random ideals
    rng = random.Random(2024)
    invariant = True
    counted = True
    for _ in range(200):
        gens = []
        for _ in range(rng.randrange(1, 6)):
            while True:
                m = tuple(rng.randrange(0, 7) for _ in range(4))
                if 0 < sum(m) <= 6:
                    gens.append(m)
                    break
        results = {
            str(hilbert.hilbert_numerator(gens, pivot=p, seed=1))
            for p in ("first", "maxdeg", "random")
        }
        invariant = invariant and len(results) == 1
        P = hilbert.hilbert_numerator(gens)
        series = ref.quotient_hilbert_coeffs(ref.from_list(P), 4, 8)
        brute = [ref.count_standard_monomials(gens, n) for n in range(9)]
        counted = counted and series == brute
    for params in FAMILY_TUPLES:
        lead = leading_ideal(engine_bases[params])
        results = {
            str(hilbert.hilbert_numerator(lead, pivot=p, seed=1))
            for p in ("first", "maxdeg", "random")
        }
        invariant = invariant and len(results) == 1
    _verdict(
        6,
        "P(1)=0 of order exactly 3, Q(1)=n1, H starts (1,4); pivot invariance "
        "and standard-monomial counts on 200 random ideals",
        ok and invariant and counted,
    )


def test_criterion_7_cm_verdicts(engine_bases):
    ok = True
    for params in FAMILY_TUPLES:
        verdict = cm.cm_verdict(engine_bases[params])
        ok = ok and not verdict.cohen_macaulay
        ok = ok and verdict.witness == (params.alpha21, 0, 0, 1)

    controls = []
    for a1 in range(4, 10):
        for a21 in range(1, a1 - 1):
            for a2 in range(2, a21 + 2):
                for a3 in range(2, 6):
                    try:
                        params = PseudoSymmetricParams(a1, a2, a3, 2, a21)
                    except Exception:
                        continue
                    conds = check_conditions(params)
                    if conds["sorted"] and conds["coprime"] and not conds["c4"]:
                        controls.append(params)
        if len(controls) >= 3:
            break
    controls = controls[:3]
    cm_ok = all(
        cm.cm_verdict(engine_basis(toric_generators(p))).cohen_macaulay
        for p in controls
    )
    _verdict(
        7,
        f"not-CM with witness X1^a21*X4 on the 4 stored tuples; CM on "
        f"{len(controls)} small-alpha2 controls",
        ok and len(controls) == 3 and cm_ok,
    )


def test_criterion_8_k_reading_documented(engine_bases, capsys):
    facts = []
    ok = True
    for params, expected_size in ((TUPLE_43, 9), (TUPLE_44, 10)):
        argv = ["verify", *(f"--{key}={value}" for key, value in params.as_dict().items())]
        code = cli_main(argv)
        k = json.loads(capsys.readouterr().out)["k"]
        engine_size = len(engine_bases[params])
        ok = ok and code == 0 and k["agree"] is False
        ok = ok and engine_size == 6 + k["nonstrict"] == expected_size
        facts.append((k["nonstrict"], k["strict"], engine_size))
    _verdict(
        8,
        f"strict/non-strict k differ on both tie tuples {facts}; the engine "
        f"has 6 + k_nonstrict elements and verify exits 0",
        ok,
    )
