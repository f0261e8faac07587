"""The per-stage producers that `build_report` and the subcommands share."""

import pytest
from hypothesis import example, given, settings, strategies as st

import reference as ref
from pseudosym import hilbert, stdbasis
from pseudosym.errors import ParameterError
from pseudosym.pipeline import (
    SweepConfig,
    _check_binomial_closure,
    build_report,
    engine_basis,
    hilbert_section,
    iter_sweep,
    load_fixture_basis,
    load_fixture_numerator,
    numerical_semigroup,
    run_sweep,
)
from pseudosym.poly import parse_poly, zero
from pseudosym.semigroup import (
    PseudoSymmetricParams,
    check_conditions,
    construct_generators,
    is_pseudo_symmetric,
)
from pseudosym.toric import closed_form_basis, compute_k, toric_generators

from conftest import TUPLE_41, TUPLE_43, TUPLE_A4_3, engine_box

NONCOPRIME = PseudoSymmetricParams(5, 4, 2, 2, 2)


def test_noncoprime_tuple_refused_before_any_stage():
    with pytest.raises(ParameterError, match=r"gcd of generators \(9, 12, 15, 30\) is 3"):
        numerical_semigroup(NONCOPRIME)
    with pytest.raises(ParameterError, match="gcd of generators"):
        build_report(NONCOPRIME)
    assert numerical_semigroup(TUPLE_41).generators == (141, 161, 164, 2092)


def test_binomial_closure_mismatches():
    S = construct_generators(TUPLE_41)
    basis = [parse_poly("X2^20-X1^8*X4"), parse_poly("X1^3"), zero(), parse_poly("X1-X2")]
    mismatches = []
    _check_binomial_closure(basis, S, mismatches)
    assert mismatches == [
        "non-binomial basis element X1^3",
        "non-binomial basis element 0",
        "basis element X1-X2 has unequal S-degrees",
    ]


def test_k_readings():
    # the closed form's own k is the non-strict reading
    for params, strict, nonstrict in [(TUPLE_41, 1, 1), (TUPLE_43, 4, 3)]:
        assert closed_form_basis(toric_generators(params)).k == compute_k(params) == nonstrict
        assert compute_k(params, strict=True) == strict
    assert build_report(TUPLE_43)["k"] == {"strict": 4, "nonstrict": 3, "agree": False, "used": 3}
    # alpha4 = 3 is outside the closed form, where k is not defined
    with pytest.raises(ParameterError, match="alpha4 = 2 violated"):
        compute_k(TUPLE_A4_3)


def test_hilbert_section_is_the_report_slice():
    report = build_report(TUPLE_41)
    P = hilbert.hilbert_numerator(stdbasis.leading_ideal(engine_basis(toric_generators(TUPLE_41))))
    section = hilbert_section(P, None)
    assert set(section) == {"P", "Q", "H", "regularity_index", "multiplicity",
                            "non_decreasing", "first_decrease_level"}
    assert section == {key: report[key] for key in section}
    assert hilbert_section(P, 2)["H"] == [1, 4, 7]


class TestFixtureLoading:
    def test_missing_directory_named(self, tmp_path):
        missing = tmp_path / "nonexistent"
        for load in (load_fixture_basis, load_fixture_numerator):
            with pytest.raises(ParameterError, match=str(missing)):
                load(TUPLE_41, missing)

    def test_absent_file_is_none(self, tmp_path):
        assert load_fixture_basis(TUPLE_41, tmp_path) is None
        assert load_fixture_numerator(TUPLE_41, tmp_path) is None

    @pytest.mark.parametrize("load, suffix, text", [
        (load_fixture_basis, "basis.txt", "X1^16-X3*X4\nX1++X2\n"),
        (load_fixture_basis, "basis.txt", "X1^16-X3*X4-\n"),
        (load_fixture_basis, "basis.txt", "X1^16-X5\n"),
        (load_fixture_basis, "basis.txt", "X1^16-X3*X4+X2\n"),
        (load_fixture_basis, "basis.txt", "X1^16+X3*X4\n"),
        (load_fixture_numerator, "numerator.txt", "1--t\n"),
        (load_fixture_numerator, "numerator.txt", "1-t/2\n"),
    ])
    def test_unparsable_file_named(self, tmp_path, load, suffix, text):
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_text(text)
        with pytest.raises(ParameterError, match="unparsable fixture") as info:
            load(TUPLE_41, tmp_path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("load, suffix", [
        (load_fixture_basis, "basis.txt"),
        (load_fixture_numerator, "numerator.txt"),
    ])
    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file_named(self, tmp_path, load, suffix, text):
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_text(text)
        with pytest.raises(ParameterError, match="empty fixture") as info:
            load(TUPLE_41, tmp_path)
        assert str(path) in str(info.value)


class TestSweepConfig:
    def test_negative_max_level_refused_on_construction(self):
        with pytest.raises(ParameterError) as info:
            SweepConfig(max_level=-1)
        # the wording of verify, oracle and hilbert
        assert str(info.value) == "max level >= 0 violated (-1)"
        assert SweepConfig(max_level=0).max_level == 0

    def test_k_filter_counts_on_the_default_sweep(self):
        everything = list(iter_sweep(SweepConfig()))
        counts = {k: len(list(iter_sweep(SweepConfig(k_filter=k)))) for k in range(1, 5)}
        # recorded when the filter still called compute_k directly
        assert len(everything) == 72
        assert counts == {1: 57, 2: 14, 3: 1, 4: 0}
        for k in (1, 2, 3):
            assert list(iter_sweep(SweepConfig(k_filter=k))) == [
                p for p in everything if compute_k(p) == k
            ]

    def test_k_filter_keeps_only_regime_tuples(self):
        # unsorted tuples are outside the closed form and have no k; the
        # filter once kept 21 of them, which the sweep summary counted
        # under the k "None"
        config = SweepConfig(require_sorted=False, k_filter=1)
        kept = list(iter_sweep(config))
        assert len(kept) == 57
        assert all(check_conditions(p)["sorted"] for p in kept)
        summary, _ = run_sweep(config)
        assert (summary["total"], summary["by_k"]) == (57, {"1": 57})


class TestOffFamilyGate:
    """Invariants of `build_report` on the off-family box, unsorted tuples included."""

    @settings(deadline=5000)
    @example(PseudoSymmetricParams(6, 6, 2, 4, 4))
    @given(st.sampled_from(engine_box()))
    def test_report_invariants(self, params):
        report = build_report(params)
        assert report["mismatches"] == []
        m = min(report["n"])
        lead = stdbasis.leading_ideal(engine_basis(toric_generators(params)))
        numerators = [hilbert.hilbert_numerator(lead, pivot=p) for p in ("first", "maxdeg", "random")]
        assert numerators[0] == numerators[1] == numerators[2]
        P = numerators[0]
        assert report["P"] == [[e, c] for e, c in enumerate(P) if c]
        assert sum(P) == 0
        assert sum(c for _, c in report["Q"]) == m
        assert report["H"][-1] == m
        S = numerical_semigroup(params)
        assert is_pseudo_symmetric(S) == ref.pseudo_symmetric_by_apery_maxima(S.generators)

    @pytest.mark.xfail(strict=True, reason=(
        "cm_verdict tests X1, not the variable of the smallest generator "
        "(here X4, n4 = 9); see ROADMAP item 1"))
    def test_unsorted_cm_tuple_reported_cm(self):
        report = build_report(PseudoSymmetricParams(3, 2, 2, 4, 1))
        assert report["n"] == [13, 11, 12, 9]
        assert report["cm"] == {"cohen_macaulay": True, "witness": None}
