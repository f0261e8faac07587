"""The per-stage producers that `build_report` and the subcommands share."""

import pytest
from hypothesis import example, given, settings, strategies as st

import reference as ref
from pseudosym import hilbert, semigroup, stdbasis
from pseudosym.errors import ParameterError
from pseudosym.pipeline import (
    SweepConfig,
    _check_binomial_closure,
    _check_read_off_Q,
    admit,
    build_report,
    engine_basis,
    hilbert_section,
    iter_sweep,
    load_fixture_basis,
    load_fixture_numerator,
    run_sweep,
)
from pseudosym.poly import parse_poly, zero
from pseudosym.semigroup import (
    MAX_LEVEL,
    PseudoSymmetricParams,
    check_conditions,
    is_pseudo_symmetric,
)
from pseudosym.toric import closed_form_basis, compute_k, toric_generators

from conftest import (
    ALL_FIXTURE_TUPLES,
    OUTSIDE_REGIME,
    TUPLE_41,
    TUPLE_43,
    TUPLE_A4_3,
    engine_box,
    tuple_id,
)

NONCOPRIME = PseudoSymmetricParams(5, 4, 2, 2, 2)


def test_noncoprime_tuple_refused_before_any_stage():
    with pytest.raises(ParameterError, match=r"gcd of generators \(9, 12, 15, 30\) is 3"):
        admit(NONCOPRIME)
    with pytest.raises(ParameterError, match="gcd of generators"):
        build_report(NONCOPRIME)
    assert admit(TUPLE_41).generators == (141, 161, 164, 2092)


def test_binomial_closure_mismatches():
    S = TUPLE_41.semigroup
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
        assert closed_form_basis(params, toric_generators(params)).k == compute_k(params) == nonstrict
        assert compute_k(params, strict=True) == strict
    assert build_report(TUPLE_43)["k"] == {"strict": 4, "nonstrict": 3, "agree": False, "used": 3}
    # alpha4 = 3 is outside the closed form, where k is not defined
    with pytest.raises(ParameterError, match="alpha4 = 2 violated"):
        compute_k(TUPLE_A4_3)


ENGINE_TUPLES = [params for params, _ in ALL_FIXTURE_TUPLES + OUTSIDE_REGIME]


@pytest.mark.parametrize("params", ENGINE_TUPLES, ids=tuple_id)
def test_engine_basis_is_a_standard_basis_graded_by_the_params_semigroup(params):
    generators = toric_generators(params)
    basis = engine_basis(params, generators)
    assert all(g.is_homogeneous(params.semigroup.generators) for g in basis)
    # each f1..f5 lies in the ideal, so a lead of the basis divides its lead
    leads = [g.lead for g in basis]
    for f in generators:
        assert any(all(a <= b for a, b in zip(m, f.lead)) for m in leads), f


def test_hilbert_section_is_the_report_slice():
    report = build_report(TUPLE_41)
    P = hilbert.hilbert_numerator(stdbasis.leading_ideal(engine_basis(TUPLE_41, toric_generators(TUPLE_41))))
    section = hilbert_section(P, None)
    assert set(section) == {"P", "Q", "H", "regularity_index", "multiplicity",
                            "non_decreasing", "first_decrease_level"}
    assert section == {key: report[key] for key in section}
    assert hilbert_section(P, 2)["H"] == [1, 4, 7]


@pytest.mark.parametrize("oracle, facts, expected", [
    ([1, 4, 3, 5, 5], (3, 2, False), []),
    ([1, 4, 5, 5], (2, None, True), []),
    ([1, 4, 5, 5], (3, None, True), ["regularity_index 3 != 2, the first level where the "
                                     "oracle's H is 5"]),
    ([1, 4], (2, None, True), ["regularity_index 2 != None, the first level where the "
                               "oracle's H is 5"]),
    ([1, 4, 3, 5, 5], (3, None, True), ["first_decrease_level None != 2, the oracle's first drop",
                                        "non_decreasing True != False, whether the oracle's H "
                                        "never drops"]),
])
def test_facts_read_off_q_against_the_oracle_window(oracle, facts, expected):
    # a window short of the least generator m = 5 is a mismatch, not an error
    report = dict(zip(("regularity_index", "first_decrease_level", "non_decreasing"), facts))
    mismatches = []
    _check_read_off_Q(report, oracle, 5, mismatches)
    assert mismatches == expected


class TestFixtureLoading:
    def test_missing_directory_named(self, tmp_path):
        missing = tmp_path / "nonexistent"
        for load in (load_fixture_basis, load_fixture_numerator):
            with pytest.raises(ParameterError, match=str(missing)):
                load(TUPLE_41, missing)

    def test_empty_directory_value_refused(self, tmp_path, monkeypatch):
        # Path("") is the working directory, which holds no fixture: both
        # checks of a tuple with packaged fixtures would vanish silently
        monkeypatch.chdir(tmp_path)
        message = "fixtures_dir: expected a directory, got an empty value"
        for load in (load_fixture_basis, load_fixture_numerator):
            with pytest.raises(ParameterError, match=message):
                load(TUPLE_41, "")
        with pytest.raises(ParameterError, match=message):
            build_report(TUPLE_41, fixtures_dir="")

    @pytest.mark.parametrize("bad", ["", "nonexistent"])
    def test_bad_directory_refused_before_any_stage(self, tmp_path, monkeypatch, bad):
        # build_report refused it only once the basis, series and oracle had run
        def no_stage(*args):
            raise AssertionError("a pipeline stage ran")

        monkeypatch.setattr(stdbasis, "standard_basis", no_stage)
        fixtures_dir = bad and tmp_path / bad
        message = ("fixtures_dir: expected a directory, got an empty value" if bad == ""
                   else f"no fixture directory at {fixtures_dir}")
        with pytest.raises(ParameterError) as info:
            build_report(TUPLE_41, fixtures_dir=fixtures_dir)
        assert str(info.value) == message

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

    def test_max_level_above_the_ceiling_refused_on_construction(self):
        with pytest.raises(ParameterError) as info:
            SweepConfig(max_level=MAX_LEVEL + 1)
        assert str(info.value) == f"max level <= {MAX_LEVEL} violated ({MAX_LEVEL + 1})"
        assert SweepConfig(max_level=MAX_LEVEL).max_level == MAX_LEVEL

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

    def test_serial_sweep_builds_each_semigroup_once(self, monkeypatch):
        # the reports reuse the params iter_sweep filtered; rebuilding them
        # once built 1,101 semigroups for the 1,029 candidate tuples
        built = []
        real = semigroup.NumericalSemigroup.__init__

        def counting(self, generators):
            built.append(generators)
            real(self, generators)

        monkeypatch.setattr(semigroup.NumericalSemigroup, "__init__", counting)
        summary, _ = run_sweep(SweepConfig())
        assert summary["total"] == 72
        assert len(built) == 1029

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
        lead = stdbasis.leading_ideal(engine_basis(params, toric_generators(params)))
        P = hilbert.hilbert_numerator(lead)
        assert P == ref.to_list(ref.taylor_numerator(lead))
        assert report["P"] == [[e, c] for e, c in enumerate(P) if c]
        assert sum(P) == 0
        assert sum(c for _, c in report["Q"]) == m
        assert report["H"][-1] == m
        S = admit(params)
        assert is_pseudo_symmetric(S) == ref.pseudo_symmetric_by_apery_maxima(S.generators)

    @pytest.mark.xfail(strict=True, reason=(
        "cm_verdict tests X1, not the variable of the smallest generator "
        "(here X4, n4 = 9); see ROADMAP item 2"))
    def test_unsorted_cm_tuple_reported_cm(self):
        report = build_report(PseudoSymmetricParams(3, 2, 2, 4, 1))
        assert report["n"] == [13, 11, 12, 9]
        assert report["cm"] == {"cohen_macaulay": True, "witness": None}
