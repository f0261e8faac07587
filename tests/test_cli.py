"""Exit codes, JSON shapes, and determinism of the command-line front end."""

import json

import pytest

from pseudosym import pipeline, stdbasis
from pseudosym.cli import main

EX41 = ["--alpha1", "16", "--alpha2", "20", "--alpha3", "7", "--alpha4", "2", "--alpha21", "8"]
EX43 = ["--alpha1", "17", "--alpha2", "25", "--alpha3", "4", "--alpha4", "2", "--alpha21", "10"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGens:
    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, ["gens", *EX41])
        assert code == 0
        data = json.loads(out)
        assert data["n"] == [141, 161, 164, 2092]
        assert data["pseudo_symmetric"] is True
        assert data["conditions"]["c1"] is True
        assert data["genus"] == (data["frobenius"] + 2) // 2

    def test_invalid_alpha21_message_and_exit(self, capsys):
        code, _, err = run(
            capsys,
            ["gens", "--alpha1", "16", "--alpha2", "20", "--alpha3", "7",
             "--alpha4", "2", "--alpha21", "16"],
        )
        assert code == 2
        assert "alpha21 < alpha1 - 1 violated" in err


class TestBasis:
    def test_engine_lines_plus_summary(self, capsys):
        code, out, _ = run(capsys, ["basis", *EX41])
        assert code == 0
        *lines, summary = out.strip().splitlines()
        assert len(lines) == 7
        assert json.loads(summary)["count"] == 7

    def test_verify_mode_reports_match(self, capsys):
        code, out, _ = run(capsys, ["basis", *EX41, "--verify"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["match"] is True
        assert summary["k"] == 1

    def test_closed_form_json(self, capsys):
        code, out, _ = run(capsys, ["basis", *EX41, "--closed-form", "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 7
        assert "X2^20*X3-X1^24" in data["elements"]


class TestHilbert:
    def test_both_modes_match(self, capsys):
        code, out, _ = run(capsys, ["hilbert", *EX41])
        assert code == 0
        data = json.loads(out)
        assert data["match"] is True
        assert data["H"][:2] == [1, 4]
        assert data["multiplicity"] == 141
        assert data["P"][0] == [0, 1]

    def test_closed_form_requires_family_input(self, capsys):
        code, _, err = run(
            capsys,
            ["hilbert", "--alpha1", "9", "--alpha2", "5", "--alpha3", "3",
             "--alpha4", "3", "--alpha21", "2", "--closed-form"],
        )
        assert code == 2
        assert "alpha4" in err

    def test_bayer_mode_works_outside_family(self, capsys):
        code, out, _ = run(
            capsys,
            ["hilbert", "--alpha1", "9", "--alpha2", "5", "--alpha3", "3",
             "--alpha4", "3", "--alpha21", "2", "--bayer"],
        )
        assert code == 0
        assert json.loads(out)["H"][:2] == [1, 4]


class TestVerify:
    def test_all_checks_pass_on_first_example(self, capsys):
        code, out, _ = run(capsys, ["verify", *EX41])
        assert code == 0
        data = json.loads(out)
        assert data["mismatches"] == []
        assert data["basis"]["match"] is True
        assert data["numerator_match"] is True
        assert data["numerator_fixture_match"] is True
        assert data["basis_fixture_match"] is True
        assert data["oracle_match"] is True
        assert data["cm"] == {"cohen_macaulay": False, "witness": "X1^8*X4"}

    def test_strict_k_disagreement_is_a_finding(self, capsys):
        code, out, _ = run(capsys, ["verify", *EX43])
        assert code == 0
        data = json.loads(out)
        assert data["k"] == {"agree": False, "nonstrict": 3, "strict": 4, "used": 3}

        code, out, _ = run(capsys, ["verify", *EX43, "--k-strict"])
        assert code == 3
        data = json.loads(out)
        assert data["mismatches"]
        assert data["closed_form"]["nonstrict"]["match"] is True

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["verify", *EX41])
        _, second, _ = run(capsys, ["verify", *EX41])
        assert first == second


class TestOracle:
    def test_shape(self, capsys):
        code, out, _ = run(capsys, ["oracle", *EX41, "--max-level", "4"])
        assert code == 0
        data = json.loads(out)
        assert data["H_oracle"] == [1, 4, 7, 11, 16]


class TestSweep:
    SMALL = ["sweep", "--alpha1", "3:6", "--alpha2", "2:6", "--alpha3", "2:6",
             "--alpha4", "2", "--alpha21", "1:4"]

    def test_small_sweep_clean(self, capsys, tmp_path):
        out_path = tmp_path / "runs.jsonl"
        code, out, _ = run(capsys, [*self.SMALL, "--out", str(out_path), "--sorted"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["total"] > 0
        assert summary["mismatches"] == []
        assert summary["decreasing_params"] == []
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == summary["total"]
        assert all(json.loads(line)["oracle_match"] for line in lines)

    def test_k_filter(self, capsys):
        code, out, _ = run(capsys, [*self.SMALL, "--k", "2"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert set(summary["by_k"]) <= {"2"}

    def test_empty_result_is_success(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--alpha1", "3", "--alpha2", "2", "--alpha3", "6:6",
             "--alpha4", "2", "--alpha21", "1"],
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["total"] == 0

    def test_parallel_matches_serial(self, capsys):
        args = [*self.SMALL, "--sorted"]
        code1, out1, _ = run(capsys, args)
        code2, out2, _ = run(capsys, [*args, "--jobs", "2"])
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize("flag, value", [("--alpha1", "x:3"), ("--alpha21", "1:y"),
                                             ("--alpha4", "2.5")])
    def test_malformed_range_names_the_flag(self, capsys, flag, value):
        code, out, err = run(capsys, [*self.SMALL, flag, value])
        assert code == 2
        assert flag in err and value in err
        assert out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, _, err = run(capsys, [*self.SMALL, "--jobs", jobs])
        assert code == 2
        assert "jobs >= 1 violated" in err

    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
    def test_pool_capped_by_cpus_and_tuples(self, capsys, monkeypatch, cpus, expected):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
        three = ["sweep", "--alpha1", "5", "--alpha2", "2:8", "--alpha3", "2:3",
                 "--alpha4", "2", "--alpha21", "1:7"]
        code, out, _ = run(capsys, [*three, "--jobs", "1000"])
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["total"] == 3
        assert sizes == [expected]


def test_step_budget_is_an_internal_failure(capsys, monkeypatch):
    monkeypatch.setattr(stdbasis, "MAX_REDUCTION_STEPS", 0)
    code, out, err = run(capsys, ["verify", *EX41])
    assert code == 4
    assert "step budget" in err
    assert out == ""
