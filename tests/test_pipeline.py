"""The per-stage producers that `build_report` and the subcommands share."""

import pytest

from pseudosym import hilbert, stdbasis
from pseudosym.errors import ParameterError
from pseudosym.pipeline import (
    SweepConfig,
    build_report,
    engine_basis,
    hilbert_section,
    iter_sweep,
    k_readings,
    load_fixture_basis,
    load_fixture_numerator,
    numerical_semigroup,
)
from pseudosym.semigroup import PseudoSymmetricParams

from conftest import TUPLE_41, TUPLE_43, TUPLE_A4_3

NONCOPRIME = PseudoSymmetricParams(5, 4, 2, 2, 2)


def test_noncoprime_tuple_refused_before_any_stage():
    with pytest.raises(ParameterError, match=r"gcd of generators \(9, 12, 15, 30\) is 3"):
        numerical_semigroup(NONCOPRIME)
    with pytest.raises(ParameterError, match="gcd of generators"):
        build_report(NONCOPRIME)
    assert numerical_semigroup(TUPLE_41).generators == (141, 161, 164, 2092)


def test_k_readings():
    assert k_readings(TUPLE_41) == {"strict": 1, "nonstrict": 1}
    assert k_readings(TUPLE_43) == {"strict": 4, "nonstrict": 3}
    # alpha4 = 3 is outside the closed form: neither reading exists
    assert k_readings(TUPLE_A4_3) == {"strict": None, "nonstrict": None}


def test_hilbert_section_is_the_report_slice():
    report = build_report(TUPLE_41)
    P = hilbert.hilbert_numerator(stdbasis.leading_ideal(engine_basis(TUPLE_41)))
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
        with pytest.raises(ParameterError, match=r"max_level >= 0 violated \(max_level=-1\)"):
            SweepConfig(max_level=-1)
        assert SweepConfig(max_level=0).max_level == 0

    def test_k_filter_counts_on_the_default_sweep(self):
        everything = list(iter_sweep(SweepConfig()))
        counts = {k: len(list(iter_sweep(SweepConfig(k_filter=k)))) for k in range(5)}
        # recorded when the filter still called compute_k directly
        assert len(everything) == 72
        assert counts == {0: 0, 1: 57, 2: 14, 3: 1, 4: 0}
        for k in (1, 2, 3):
            assert list(iter_sweep(SweepConfig(k_filter=k))) == [
                p for p in everything if k_readings(p)["nonstrict"] == k
            ]
