"""Exit codes, JSON shapes, and determinism of the command-line front end."""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import pseudosym
from pseudosym import cli, pipeline, semigroup, stdbasis, toric
from pseudosym.cli import COMMANDS, OPTIONS, build_parser, main, parse_args

from conftest import FAMILY_TUPLES, OUTSIDE_REGIME, tuple_id

EX41 = ["--alpha1", "16", "--alpha2", "20", "--alpha3", "7", "--alpha4", "2", "--alpha21", "8"]
EX43 = ["--alpha1", "17", "--alpha2", "25", "--alpha3", "4", "--alpha4", "2", "--alpha21", "10"]
A4_3 = ["--alpha1", "9", "--alpha2", "5", "--alpha3", "3", "--alpha4", "3", "--alpha21", "2"]
# (5,4,2,2) with alpha21 = 2 gives the generators (9,12,15,30), gcd 3.
NONCOPRIME = ["--alpha1", "5", "--alpha2", "4", "--alpha3", "2", "--alpha4", "2", "--alpha21", "2"]
TUPLES = {"EX41": EX41, "EX43": EX43, "A4_3": A4_3}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_pool(monkeypatch, cpus):
    """Swap the sweep's process pool for an in-process one; starts no processes.

    Returns the list that receives (workers, jobs, chunksize) per `map` call.
    """
    calls = []

    class RecordingPool:
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            calls.append((self.workers, len(items), chunksize))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    return calls


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
        # k is reported once, as its non-strict reading, next to the strict one
        assert (summary["k_nonstrict"], summary["k_strict"]) == (1, 1)
        assert "k" not in summary

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

    def test_closed_form_small_alpha2_names_condition_4(self, capsys):
        # admit runs the regime check, which compute_k also calls, before
        # any stage: it names the failed condition, as for the closed-form basis
        code, out, err = run(
            capsys,
            ["hilbert", "--alpha1", "9", "--alpha2", "3", "--alpha3", "4",
             "--alpha4", "2", "--alpha21", "4", "--closed-form"],
        )
        assert (code, out) == (2, "")
        assert err == ("condition (4) violated for {'alpha1': 9, 'alpha2': 3, "
                       "'alpha3': 4, 'alpha4': 2, 'alpha21': 4}\n")

    # (3,4,3,2,1) has alpha4 = 2 and an admissible k but fails condition
    # (2); its generators are (13,11,8,31) and its multiplicity is 8, where
    # the closed-form numerator would give 13
    OUTSIDE_CLOSED_FORM = ["--alpha1", "3", "--alpha2", "4", "--alpha3", "3",
                           "--alpha4", "2", "--alpha21", "1"]

    @pytest.mark.parametrize("mode", [["--closed-form"], [], ["--both"]])
    def test_closed_form_refused_outside_its_preconditions(self, capsys, mode):
        code, out, err = run(capsys, ["hilbert", *self.OUTSIDE_CLOSED_FORM, *mode])
        assert (code, out) == (2, "")
        assert "condition (2)" in err

    def test_bayer_mode_matches_oracle_outside_closed_form(self, capsys):
        code, out, _ = run(capsys, ["hilbert", *self.OUTSIDE_CLOSED_FORM, "--bayer"])
        assert code == 0
        data = json.loads(out)
        assert data["multiplicity"] == 8
        code, out, _ = run(capsys, ["oracle", *self.OUTSIDE_CLOSED_FORM,
                                    "--max-level", str(len(data["H"]) - 1)])
        assert code == 0
        assert json.loads(out)["H_oracle"] == data["H"]

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
        assert data["closed_form"]["count"] == 9 and data["closed_form"]["match"] is True

    SHORT = ["--alpha1", "5", "--alpha2", "3", "--alpha3", "2", "--alpha4", "2", "--alpha21", "1"]

    @pytest.mark.parametrize("wrong_level", [1, 2, 3])
    def test_oracle_checked_up_to_regularity_below_max_level(self, capsys, monkeypatch, wrong_level):
        # H = 1, 4, 5, 7, 7, ... with regularity index 3: --max-level 0 prints
        # H(0) alone, yet an oracle wrong at levels 1..3 must still be caught
        code, right, _ = run(capsys, ["verify", *self.SHORT, "--max-level", "0"])
        assert code == 0
        assert json.loads(right)["regularity_index"] == 3

        def wrong_oracle(S, up_to_level, _oracle=pipeline.hilbert_oracle):
            H = _oracle(S, up_to_level)
            if up_to_level >= wrong_level:
                H[wrong_level] += 1
            return H

        monkeypatch.setattr(pipeline, "hilbert_oracle", wrong_oracle)
        code, out, _ = run(capsys, ["verify", *self.SHORT, "--max-level", "0"])
        assert code == 3
        data = json.loads(out)
        assert (data["H"], data["H_oracle"], data["oracle_match"]) == ([1], [1], False)
        assert data["mismatches"] == ["Hilbert function differs from the semigroup oracle"]

    @pytest.mark.parametrize("fact, wrong, message", [
        ("regularity_index", lambda r: r + 1, "regularity_index 76 != 75, "),
        ("first_decrease_level", lambda level: 3, "first_decrease_level 3 != None, "),
        ("non_decreasing", lambda flag: not flag, "non_decreasing False != True, "),
    ])
    def test_facts_read_off_q_checked_against_the_oracle(self, capsys, monkeypatch, fact, wrong,
                                                         message):
        # each fact that hilbert_section reads off Q has a second route
        # through the oracle's H, which shares no code with Q; on EX43,
        # where k = 3, no k = 1 certificate reads non_decreasing
        def mutated(P, max_level, _real=pipeline.hilbert_section):
            section = _real(P, max_level)
            section[fact] = wrong(section[fact])
            return section

        monkeypatch.setattr(pipeline, "hilbert_section", mutated)
        code, out, err = run(capsys, ["verify", *EX43])
        assert (code, err) == (3, "")
        data = json.loads(out)
        assert data["oracle_match"] is True
        assert len(data["mismatches"]) == 1 and data["mismatches"][0].startswith(message)

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, ["verify", *EX41])
        _, second, _ = run(capsys, ["verify", *EX41])
        assert first == second

    def test_timing_adds_only_elapsed_seconds(self, capsys):
        _, plain, _ = run(capsys, ["verify", *EX41])
        code, timed, _ = run(capsys, ["verify", *EX41, "--timing"])
        assert code == 0
        timed = json.loads(timed)
        seconds = timed.pop("timing_seconds")
        assert isinstance(seconds, float) and seconds >= 0
        assert timed == json.loads(plain)

    # alpha4 = 2 tuples outside the closed form: (4,4,2,2,1) has unsorted
    # generators, (4,5,3,2,1) also fails condition (2); the engine and the
    # oracles still answer
    @pytest.mark.parametrize("values", [(4, 4, 2, 2, 1), (4, 5, 3, 2, 1)])
    def test_alpha4_two_outside_closed_form_preconditions(self, capsys, values):
        argv = [arg for key, v in zip(pipeline.ALPHA_KEYS, values) for arg in (f"--{key}", str(v))]
        code, out, err = run(capsys, ["verify", *argv])
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert "closed_form" not in data
        assert data["mismatches"] == []


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
        code, out, _ = run(capsys, [*self.SMALL, "--out", str(out_path)])
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

    def test_allow_unsorted_default_ranges(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--allow-unsorted"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["total"] == 138
        assert summary["mismatches"] == []

    def test_reports_in_lexicographic_tuple_order(self, capsys):
        code, out, _ = run(capsys, self.SMALL)
        assert code == 0
        keys = [tuple(json.loads(line)["params"][key] for key in pipeline.ALPHA_KEYS)
                for line in out.strip().splitlines()[:-1]]
        assert len(keys) > 1 and keys == sorted(keys)

    def test_parallel_matches_serial(self, capsys):
        code1, out1, _ = run(capsys, self.SMALL)
        code2, out2, _ = run(capsys, [*self.SMALL, "--jobs", "2"])
        assert (code1, out1) == (code2, out2)

    @pytest.mark.parametrize("flag, value", [("--alpha1", "x:3"), ("--alpha21", "1:y"),
                                             ("--alpha4", "2.5")])
    def test_malformed_range_names_the_flag(self, capsys, flag, value):
        code, out, err = run(capsys, [*self.SMALL, flag, value])
        assert code == 2
        assert flag in err and value in err
        assert out == ""

    @pytest.mark.parametrize("flag, value", [("--jobs", "0"), ("--jobs", "-3"), ("--k", "0"), ("--k", "-3")])
    def test_below_one_rejected(self, capsys, flag, value):
        code, out, err = run(capsys, [*self.SMALL, flag, value])
        assert (code, out) == (2, "")
        assert f"{flag[2:]} >= 1 violated ({flag[2:]}={value})" in err

    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
    def test_pool_capped_by_cpus_and_tuples(self, capsys, monkeypatch, cpus, expected):
        calls = record_pool(monkeypatch, cpus)
        three = ["sweep", "--alpha1", "5", "--alpha2", "2:8", "--alpha3", "2:3",
                 "--alpha4", "2", "--alpha21", "1:7"]
        code, out, _ = run(capsys, [*three, "--jobs", "1000"])
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["total"] == 3
        assert calls == [(expected, 3, 1)]

    def test_chunksize_from_jobs_and_workers(self, capsys, monkeypatch):
        calls = record_pool(monkeypatch, 2)
        code, out, _ = run(capsys, ["sweep", "--jobs", "2"])
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["total"] == 72
        # the default sweep's 72 tuples, about four chunks per worker
        assert calls == [(2, 72, 9)]

    @pytest.mark.parametrize("where", ["missing-dir/x.json", "."])
    def test_unwritable_out_refused_before_any_tuple(self, capsys, monkeypatch, tmp_path, where):
        built = []
        real = pipeline.build_report

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "build_report", counting)
        target = tmp_path / where
        code, out, err = run(capsys, [*self.SMALL, "--out", str(target)])
        assert code == 2
        assert out == ""
        assert str(target) in err and "Traceback" not in err
        assert built == []

    @pytest.mark.parametrize("out_flag", [["--out", ""], ["--out="]])
    def test_empty_out_refused_before_any_tuple(self, capsys, monkeypatch, out_flag):
        # an empty value once wrote every report to stdout and exited 0
        def fail(*args, **kwargs):
            raise AssertionError("a report was built")

        monkeypatch.setattr(pipeline, "build_report", fail)
        code, out, err = run(capsys, [*self.SMALL, *out_flag])
        assert (code, out) == (2, "")
        assert err == "--out: expected a file path, got an empty value\n"

    def test_negative_max_level_refused_before_any_tuple(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a report was built")

        monkeypatch.setattr(pipeline, "build_report", fail)
        code, out, err = run(capsys, [*self.SMALL, "--max-level", "-1"])
        assert code == 2
        assert out == ""
        assert err == "max level >= 0 violated (-1)\n"

    def test_pool_that_cannot_start_names_jobs(self, capsys, monkeypatch):
        # an OSError from the pool, not from a write to stdout
        started = []

        def refuse(max_workers):
            started.append(max_workers)
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 4)
        code, out, err = run(capsys, [*self.SMALL, "--jobs", "3"])
        assert (code, out) == (2, "")
        assert err == "--jobs 3: cannot start worker processes: Resource temporarily unavailable\n"
        assert started == [3]


def test_step_budget_is_an_internal_failure(capsys, monkeypatch):
    monkeypatch.setattr(stdbasis, "MAX_REDUCTION_STEPS", 0)
    code, out, err = run(capsys, ["verify", *EX41])
    assert code == 4
    assert "step budget" in err
    assert out == ""


def test_tail_built_from_strict_k_is_an_internal_failure(capsys, monkeypatch):
    # on EX43 the readings differ (3 and 4), and lemma (iii) says a strict
    # tail breaks the leading pattern: only a construction bug gets there
    real = toric.compute_k
    monkeypatch.setattr(toric, "compute_k", lambda params, strict=False: real(params, strict=True))
    code, out, err = run(capsys, ["verify", *EX43])
    assert (code, out) == (4, "")
    assert err.startswith("internal consistency failure: ")
    assert "breaks the closed-form leading pattern" in err


def test_generators_of_unequal_degree_are_an_internal_failure(capsys, monkeypatch):
    real = toric.generator_monomials
    monkeypatch.setattr(toric, "generator_monomials",
                        lambda params: [((1, 0, 0, 0), (0, 1, 0, 0)), *real(params)[1:]])
    code, out, err = run(capsys, ["verify", *EX41])
    assert (code, out) == (4, "")
    assert err == "internal consistency failure: S-degree mismatch in f1: monomials grade to [141, 161]\n"


DERIVATIONS = ("toric_generators", "closed_form_basis", "compute_k")


@pytest.mark.parametrize("argv, counts", [
    (("verify", *EX41), (1, 1, 2)),
    (("basis", *EX41, "--verify"), (1, 1, 2)),
    (("verify", *A4_3), (1, 0, 0)),
], ids=["verify-EX41", "basis-verify-EX41", "verify-A4_3"])
def test_each_derivation_runs_once_per_op(capsys, monkeypatch, argv, counts):
    # wrapped at the module attributes, where the tracer wraps them: one
    # f1..f5 per tuple, shared by both routes, and one compute_k call
    # per reading of k (the non-strict one inside closed_form_basis)
    calls = dict.fromkeys(DERIVATIONS, 0)
    for name in DERIVATIONS:
        def counting(*args, _name=name, _real=getattr(toric, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(toric, name, counting)
    assert run(capsys, list(argv))[0] == 0
    assert tuple(calls.values()) == counts


LARGE = ["--alpha1", "30", "--alpha2", "40", "--alpha3", "12", "--alpha4", "2", "--alpha21", "14"]


@pytest.mark.parametrize("command", ["oracle", "gens", "verify"])
@pytest.mark.parametrize("values", [LARGE, A4_3], ids=["LARGE", "A4_3"])
def test_one_apery_set_per_op(capsys, monkeypatch, command, values):
    # the facts gens and oracle report read one semigroup's S.apery, so the
    # function the cached property calls runs once per op; the Hilbert
    # oracle reads its window off its own bitmap, so verify runs it never
    prop = semigroup.NumericalSemigroup.apery
    derive, derived = prop.func, []
    monkeypatch.setattr(prop, "func", lambda S: derived.append(S.generators) or derive(S))
    assert run(capsys, [command, *values])[0] == 0
    assert len(derived) == (0 if command == "verify" else 1)


@pytest.mark.parametrize("values", [EX41, A4_3], ids=["family", "engine"])
def test_one_semigroup_per_verify_op(capsys, monkeypatch, values):
    # the params derive their semigroup once, and every stage reads that one
    init, built = semigroup.NumericalSemigroup.__init__, []
    monkeypatch.setattr(semigroup.NumericalSemigroup, "__init__",
                        lambda S, gens: built.append(gens) or init(S, gens))
    assert run(capsys, ["verify", *values])[0] == 0
    assert len(built) == 1


def _no_apery_set(S):
    raise AssertionError(f"an Apery set of {S.generators} was derived")


# sha256 of verify's stdout, recorded while the oracle still read its window
# off S.apery
VERIFY_STDOUT = [
    ("EX41", EX41, "d9954fadd3ecd8de6bbc6dc257a7e5d7f7ce88d4406e7b60c467397481673602"),
    ("LARGE", LARGE, "dcfc0541645490d81c814dcb65f8b83bd9157fb7da813370f943a4c060137884"),
    ("A4_3", A4_3, "b2cc4d81bdd3b06cd60213799eb39de081620e31800c83beca3c571036bcfccb"),
]


@pytest.mark.parametrize("values, digest", [case[1:] for case in VERIFY_STDOUT],
                         ids=[case[0] for case in VERIFY_STDOUT])
def test_verify_derives_no_apery_set(capsys, monkeypatch, values, digest):
    monkeypatch.setattr(semigroup.NumericalSemigroup.apery, "func", _no_apery_set)
    code, out, _ = run(capsys, ["verify", *values])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# sha256 of stdout, with the exit code, for every single-tuple subcommand in
# each of its output modes; the digests were recorded before the subcommands
# were rebuilt on the shared pipeline stages and must not move.  The
# `basis --closed-form` and `--verify` digests were recorded again when the
# summary lost its `k_strict_mode` key, and again when it lost its `k` key,
# a copy of `k_nonstrict`; each time that key was the only difference.
GOLDEN_STDOUT = [
    ("EX41", ("gens",), 0, "163eef80bdacbcf432105a344a64cb486f1ed939d0f03db96cf25840beb5e42a"),
    ("EX41", ("gens", "--text"), 0, "c7b16495ed64c659e49e0a0945f28fb80d81f8b7ad529bcc053c7a2b5a2f4b19"),
    ("EX41", ("basis",), 0, "8585bcfbe2991f5bf2fe8d0018c30b9d7bb39087ceee1927b481c63882527b9c"),
    ("EX41", ("basis", "--json"), 0, "2d5aa7b4ccfcb19a8e19394f119199e615901e3644c9f5f451558d9f018cbe10"),
    ("EX41", ("basis", "--closed-form"), 0, "dbf8c2cbad078b7580e7c9ac00799e771f209a10af2f42089739a5dc38523cbd"),
    ("EX41", ("basis", "--closed-form", "--json"), 0, "a9aaf4b4b7619417ebab503ece6241a0e6ae09b2c374a25ed3eb53276786c28d"),
    ("EX41", ("basis", "--verify"), 0, "175b8f47874c51fdcd9c0d0c48dab38db8204cc5a1b4a01a8f4317f761ac6216"),
    ("EX41", ("basis", "--verify", "--json"), 0, "51fcb4be6e29d9ddb89cd17cc98d0931e4221407ef6b3d95e64b07fa6a9c4d42"),
    ("EX41", ("hilbert", "--both"), 0, "f96cc3ee718a46483d814ace9b82af0e3174e209c3294f35437d028f95236614"),
    ("EX41", ("hilbert", "--bayer"), 0, "63a5efb36b72a67c094d555e9610bbc60a756355fa598609f92e6063d519e18f"),
    ("EX41", ("hilbert", "--closed-form"), 0, "a1ae3dde6fa85b8e2699b663b8ca46a77eb2a095fb4a2b1105d36fd8f594a9dc"),
    ("EX41", ("hilbert", "--bayer", "--text", "--max-level", "3"), 0, "631b66e8b947adbaad9b7b3fca32184ef1b84bc39aa7b2180921ec95eb54adc1"),
    ("EX41", ("oracle", "--text"), 0, "121f8bbf75c5bb74ffa52dcae46639e11606598f6ba2b812cf8e92cf45f7c5e0"),
    ("EX43", ("gens",), 0, "41a0afaec64eed4d1beeb7101f87754a89f62974fa5210db06fcb52ad3a97d19"),
    ("EX43", ("gens", "--text"), 0, "a7fcce5801c8dc9d9d184a31a987caeab899e335add745ed207e27afde901c41"),
    ("EX43", ("basis",), 0, "6e7224d8f57e8d9eb0701590e9715ec1b665bf6016580e8a28c3da556510c40d"),
    ("EX43", ("basis", "--json"), 0, "2b0624305997cd83828528a3a33b6affec0857b3c011f705e678cfffb546bed5"),
    ("EX43", ("basis", "--closed-form"), 0, "084a77732f086caa614d8b934d6e5ee0b0874a9255b35de21afb8db15eb2607f"),
    ("EX43", ("basis", "--closed-form", "--json"), 0, "0727f5175c596026871e38c126eb3d3b625e5db293e91ae343966eeb053bdf02"),
    ("EX43", ("basis", "--verify"), 0, "0236649b62cf2137ecde712d95be25403320cb0ca196734d75fecb77bb0f3abc"),
    ("EX43", ("basis", "--verify", "--json"), 0, "6be2c5b5711543fdfd59894c00cdc59782310de266a15bb61cc58f5fac8af10f"),
    ("EX43", ("hilbert", "--both"), 0, "9cba25247a191a36f99c7829147bf5f5dabca5536a774bb21adfa79fae2b6413"),
    ("EX43", ("hilbert", "--bayer"), 0, "bde2bf396c83088a367b7392589dba5b2b0a56c089e5904d1376c1709a7ac2c5"),
    ("EX43", ("hilbert", "--closed-form"), 0, "58ef2abd29c1a8c2572b2320421d87dbbfb79e3fadeeb43c09834f8398a1f389"),
    ("EX43", ("hilbert", "--bayer", "--text", "--max-level", "3"), 0, "3a29471034630c32d9ece4da7f4746f21378b1f13b0bef91771ac77af3f0fad3"),
    ("EX43", ("oracle", "--text"), 0, "4b55ee337a155500913be73b83423d9fe8687347719fe696e0cce9a6d163a6c9"),
    ("A4_3", ("gens",), 0, "1e7eb494822c9a845e684d868744c3f56faaeb945fe6f48e2d028d338327b769"),
    ("A4_3", ("basis",), 0, "cf3d1d6bdd5fb02bfd510a69656df7f15861093282ebbacceac70e27d669606d"),
    ("A4_3", ("basis", "--json"), 0, "1e9dfa3f7d0e58af1bb0c5d92bf569176d87d8dd408dea08d6ac2497a82778d9"),
    ("A4_3", ("hilbert", "--bayer"), 0, "1a85ff9c8c20b36f81d31140e1a3b02bd4370f37fcd5e8c1656a089f54ae3320"),
    ("A4_3", ("oracle", "--text"), 0, "aef7d41be251a4557c2ca6de29017fb81a746ee81103a09edda8c92b81a19b80"),
]


@pytest.mark.parametrize("tuple_name, command, code, digest", GOLDEN_STDOUT,
                         ids=[f"{t}-{'-'.join(c).replace('--', '')}" for t, c, _, _ in GOLDEN_STDOUT])
def test_stdout_is_pinned(capsys, tuple_name, command, code, digest):
    got_code, out, _ = run(capsys, [command[0], *TUPLES[tuple_name], *command[1:]])
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _no_gap_list(ap):
    raise AssertionError("a gap list was built")


FACTS_STDOUT = [case for case in GOLDEN_STDOUT if case[1][0] in ("gens", "oracle")]


@pytest.mark.parametrize("tuple_name, command, code, digest", FACTS_STDOUT,
                         ids=[f"{t}-{'-'.join(c).replace('--', '')}" for t, c, _, _ in FACTS_STDOUT])
def test_gens_and_oracle_list_no_gaps(capsys, monkeypatch, tuple_name, command, code, digest):
    # Frobenius number, genus and pseudo-symmetry are read from S.apery alone
    monkeypatch.setattr(semigroup, "_gaps", _no_gap_list)
    got_code, out, _ = run(capsys, [command[0], *TUPLES[tuple_name], *command[1:]])
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("command", ["gens", "oracle"])
def test_large_semigroup_lists_no_gaps(capsys, monkeypatch, command):
    # LARGE has 13,306 gaps; the reported genus is their count all the same
    S = semigroup.PseudoSymmetricParams(30, 40, 12, 2, 14).semigroup
    frobenius, gaps = semigroup.frobenius_and_gaps(S)
    monkeypatch.setattr(semigroup, "_gaps", _no_gap_list)
    code, out, _ = run(capsys, [command, *LARGE])
    assert code == 0
    data = json.loads(out)
    assert (data["frobenius"], data["genus"], data["pseudo_symmetric"]) == (frobenius, len(gaps), True)
    assert len(gaps) == 13306


@pytest.mark.parametrize("command", ["gens", "basis", "hilbert", "verify", "oracle"])
def test_noncoprime_tuple_rejected(capsys, command):
    code, out, err = run(capsys, [command, *NONCOPRIME])
    assert code == 2
    assert out == ""
    assert "gcd of generators (9, 12, 15, 30) is 3, not 1" in err


@pytest.mark.parametrize("command, level", [("hilbert", "-3"), ("verify", "-2"), ("oracle", "-1"),
                                            ("verify", "-1"), ("hilbert --bayer", "-1")])
def test_negative_max_level_rejected(capsys, command, level):
    code, out, err = run(capsys, [*command.split(), *EX41, "--max-level", level])
    assert code == 2
    assert out == ""
    assert err == f"max level >= 0 violated ({level})\n"


# 10**20 once overflowed the list of levels, and a level just below 2**63
# raised MemoryError; both are refused before any list of levels is built.
@pytest.mark.parametrize("level", [10**20, semigroup.MAX_LEVEL + 1], ids=["1e20", "ceiling+1"])
@pytest.mark.parametrize("command", [["verify", *EX41], ["hilbert", *EX41], ["oracle", *EX41],
                                     ["sweep", "--alpha1", "16:16", "--alpha2", "20:20", "--alpha3", "7:7",
                                      "--alpha21", "8:8"]], ids=lambda c: c[0])
def test_max_level_above_the_ceiling_rejected(capsys, command, level):
    code, out, err = run(capsys, [*command, "--max-level", str(level)])
    assert code == 2
    assert out == ""
    assert err == f"max level <= {semigroup.MAX_LEVEL} violated ({level})\n"


def _no_engine(*args, **kwargs):
    raise AssertionError("a stage ran before the input was refused")


BAD_LEVELS = pytest.mark.parametrize("level, message", [
    (-1, "max level >= 0 violated (-1)"),
    (semigroup.MAX_LEVEL + 1, f"max level <= {semigroup.MAX_LEVEL} violated ({semigroup.MAX_LEVEL + 1})"),
], ids=["negative", "ceiling+1"])


@BAD_LEVELS
@pytest.mark.parametrize("command", ["verify", "hilbert"])
def test_max_level_refused_before_the_engine_runs(capsys, monkeypatch, command, level, message):
    monkeypatch.setattr(stdbasis, "standard_basis", _no_engine)
    code, out, err = run(capsys, [command, *EX41, f"--max-level={level}"])
    assert (code, out, err) == (2, "", message + "\n")


@BAD_LEVELS
@pytest.mark.parametrize("values", [LARGE, A4_3], ids=["LARGE", "A4_3"])
def test_oracle_refuses_the_level_before_deriving_an_apery_set(capsys, monkeypatch, values, level,
                                                                message):
    monkeypatch.setattr(semigroup.NumericalSemigroup.apery, "func", _no_apery_set)
    code, out, err = run(capsys, ["oracle", *values, f"--max-level={level}"])
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("command", ["oracle", "verify", "hilbert"])
def test_level_checked_before_the_coprimality_gate(capsys, command):
    code, out, err = run(capsys, [command, *NONCOPRIME, "--max-level=-1"])
    assert (code, out, err) == (2, "", "max level >= 0 violated (-1)\n")


def _alphas(params):
    return [f"--{key}={value}" for key, value in params.as_dict().items()]


CLOSED_FORM_MODES = pytest.mark.parametrize(
    "mode", [["hilbert"], ["hilbert", "--both"], ["hilbert", "--closed-form"],
             ["basis", "--verify"], ["basis", "--closed-form"]], ids=" ".join)


@pytest.mark.parametrize("params, message", OUTSIDE_REGIME,
                         ids=[tuple_id(params) for params, _ in OUTSIDE_REGIME])
@CLOSED_FORM_MODES
def test_closed_form_regime_refused_before_the_engine_runs(capsys, monkeypatch, mode, params,
                                                           message):
    # neither f1..f5 nor the engine's basis is built for a refused tuple
    monkeypatch.setattr(stdbasis, "standard_basis", _no_engine)
    monkeypatch.setattr(toric, "toric_generators", _no_engine)
    code, out, err = run(capsys, [mode[0], *_alphas(params), *mode[1:]])
    assert (code, out, err) == (2, "", message + "\n")


@CLOSED_FORM_MODES
def test_coprimality_gate_refuses_before_the_regime_check(capsys, monkeypatch, mode):
    # (3,3,6,4,1) has alpha4 = 4 and the generators (55,35,15,50), gcd 5:
    # both gates would refuse it, and the coprimality gate comes first
    monkeypatch.setattr(toric, "check_closed_form_regime", _no_engine)
    params = semigroup.PseudoSymmetricParams(3, 3, 6, 4, 1)
    code, out, err = run(capsys, [mode[0], *_alphas(params), *mode[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("gcd of generators (55, 35, 15, 50) is 5, not 1")


def _refusing_gate(*args, **kwargs):
    raise pseudosym.errors.ParameterError("refused by the gate")


@pytest.mark.parametrize("command", [
    ["gens"], ["basis"], ["basis", "--closed-form"], ["basis", "--verify"], ["hilbert"],
    ["hilbert", "--bayer"], ["hilbert", "--closed-form"], ["verify"], ["oracle"]], ids=" ".join)
def test_every_single_tuple_run_passes_the_gate_before_any_stage(capsys, monkeypatch, command):
    monkeypatch.setattr(pipeline, "admit", _refusing_gate)
    for owner in (semigroup, pipeline, cli):
        monkeypatch.setattr(owner, "hilbert_oracle", _no_engine)
    monkeypatch.setattr(toric, "toric_generators", _no_engine)
    monkeypatch.setattr(stdbasis, "standard_basis", _no_engine)
    monkeypatch.setattr(semigroup.NumericalSemigroup.apery, "func", _no_apery_set)
    code, out, err = run(capsys, [command[0], *EX41, *command[1:]])
    assert (code, out, err) == (2, "", "refused by the gate\n")


# generators (5, 10**20 + 4, 3*10**20 - 3, 2*10**20 + 3): the oracle's bitmap
# of S would need more than 10**20 bits
HUGE = ["--alpha1", str(10**20), "--alpha2", "2", "--alpha3", "2", "--alpha4", "2", "--alpha21", "1"]


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_too_large_input_exits_2_with_one_line(capsys, command):
    code, out, err = run(capsys, [command, *HUGE])
    assert (code, out) == (2, "")
    assert err.startswith("input too large: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "hilbert_oracle", _out_of_memory)
    assert run(capsys, ["verify", *EX41]) == (2, "", "input too large: MemoryError\n")


@pytest.mark.parametrize("params", [params for params, _ in OUTSIDE_REGIME], ids=tuple_id)
@pytest.mark.parametrize("mode", [["basis"], ["basis", "--engine"], ["hilbert", "--bayer"],
                                  ["verify"]], ids=" ".join)
def test_modes_without_the_closed_form_run_the_engine_outside_its_regime(capsys, monkeypatch,
                                                                         mode, params):
    runs = []
    real = stdbasis.standard_basis

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(stdbasis, "standard_basis", counting)
    code, out, err = run(capsys, [mode[0], *_alphas(params), *mode[1:]])
    assert (code, err) == (0, "") and out
    assert len(runs) == 1


def test_max_level_at_the_ceiling_accepted(capsys):
    code, out, _ = run(capsys, ["oracle", *EX41, "--max-level", str(semigroup.MAX_LEVEL)])
    assert code == 0
    assert len(json.loads(out)["H_oracle"]) == semigroup.MAX_LEVEL + 1


class TestFixtureErrors:
    def test_missing_directory_is_invalid_input(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent"
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(missing)])
        assert code == 2
        assert out == ""
        assert str(missing) in err

    def test_empty_directory_value_is_invalid_input(self, capsys):
        # Path("") is the working directory, where no fixture is found: the
        # run would silently drop both fixture comparisons
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", ""])
        assert code == 2
        assert out == ""
        assert err == "fixtures_dir: expected a directory, got an empty value\n"

    @pytest.mark.parametrize("suffix, text", [
        ("basis.txt", "X1^16-X3*X4\nX1++X2\n"),
        ("basis.txt", "X1^16-X3*X4-\n"),
        ("numerator.txt", "1--t\n"),
        ("numerator.txt", "1-t^\n"),
    ])
    def test_unparsable_fixture_is_invalid_input(self, capsys, monkeypatch, tmp_path, suffix,
                                                 text):
        # refused before any stage: the fixtures were once read only after
        # the basis, series and oracle had run
        monkeypatch.setattr(stdbasis, "standard_basis", _no_engine)
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_text(text)
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"unparsable fixture {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("suffix", ["basis.txt", "numerator.txt"])
    def test_empty_fixture_is_invalid_input(self, capsys, tmp_path, suffix):
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_text("")
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert "empty fixture" in err and str(path) in err

    @pytest.mark.parametrize("suffix", ["basis.txt", "numerator.txt"])
    def test_fixture_that_is_not_utf8_is_invalid_input(self, capsys, tmp_path, suffix):
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_bytes(b"\xff\xfe X1")
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert "unreadable fixture" in err and str(path) in err
        assert "Traceback" not in err

    def test_fixture_read_error_is_invalid_input(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "a1-16_a2-20_a3-7_a4-2_a21-8.basis.txt"
        path.write_text("X1^16-X3*X4\n")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert "unreadable fixture" in err and str(path) in err

    @pytest.mark.parametrize("suffix", ["basis.txt", "numerator.txt"])
    def test_fixture_name_that_is_a_directory_is_invalid_input(self, capsys, tmp_path, suffix):
        # listed under the fixture's name, so not a tuple without a fixture
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.mkdir()
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"unreadable fixture {path}: ")

    @pytest.mark.skipif(os.geteuid() == 0, reason="root lists a mode-000 directory")
    def test_unlistable_directory_is_invalid_input(self, capsys, tmp_path):
        # an OSError from the fixture directory, not from a write to stdout
        locked = tmp_path / "locked"
        locked.mkdir(mode=0)
        try:
            code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(locked)])
        finally:
            locked.chmod(0o700)
        assert (code, out) == (2, "")
        assert err == f"unreadable fixture directory {locked}: Permission denied\n"

    def test_far_exponent_numerator_fixture_is_a_mismatch(self, capsys, tmp_path):
        # one sparse pair per term: a dense coefficient list would need gigabytes
        (tmp_path / "a1-16_a2-20_a3-7_a4-2_a21-8.numerator.txt").write_text("1-t^1000000000\n")
        params = pseudosym.PseudoSymmetricParams(16, 20, 7, 2, 8)
        tracemalloc.start()
        try:
            parsed = pipeline.load_fixture_numerator(params, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == [[0, 1], [1000000000, -1]]
        assert peak < 1 << 20
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 3
        assert "Traceback" not in err
        data = json.loads(out)
        assert data["numerator_fixture_match"] is False
        assert "stored numerator fixture differs from computed one" in data["mismatches"]

    def test_empty_directory_skips_fixture_checks(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 0
        data = json.loads(out)
        assert "basis_fixture_match" not in data and "numerator_fixture_match" not in data

    def test_empty_packaged_listing_skips_fixture_checks(self, capsys, monkeypatch):
        # what an install without the package data lists
        monkeypatch.setattr(pipeline, "_PACKAGED_NAMES", frozenset())
        code, out, _ = run(capsys, ["verify", *EX41])
        assert code == 0
        data = json.loads(out)
        assert "basis_fixture_match" not in data and "numerator_fixture_match" not in data

    def test_packaged_listing_names_every_fixture(self):
        shipped = Path(__file__).resolve().parents[1] / "src" / "pseudosym" / "fixtures"
        names = {path.name for path in shipped.iterdir()}
        assert names and names <= pipeline._PACKAGED_NAMES

    def test_package_without_fixtures_imports_and_verifies(self, tmp_path):
        package = Path(pseudosym.__file__).resolve().parent
        copy = tmp_path / "pseudosym"
        copy.mkdir()
        for path in package.glob("*.py"):
            (copy / path.name).write_bytes(path.read_bytes())
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        done = subprocess.run([sys.executable, "-m", "pseudosym.cli", "verify", *EX41],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        data = json.loads(done.stdout)
        assert "basis_fixture_match" not in data and "numerator_fixture_match" not in data


EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, accepted sha256s of stderr) for help,
# usage and parse errors at COLUMNS=80, recorded before the parser was built
# per subcommand.  The basis, hilbert and sweep entries were recorded again
# when `basis --mode`, `hilbert --mode` and `sweep --sorted` were deleted;
# the texts differ from the earlier ones only by those flags, as the basis
# and verify entries do since `--k-strict` was deleted.  Later argparse
# releases print the invalid choices unquoted, hence two texts for "bogus".
CLI_TEXT = [
    (("--help",), 0, "eccaf478e1a022b8a8875ddd6997c54f1371285e2136d0ee87f6e43273a39d7e", (EMPTY,)),
    (("-h",), 0, "eccaf478e1a022b8a8875ddd6997c54f1371285e2136d0ee87f6e43273a39d7e", (EMPTY,)),
    (("gens", "--help"), 0, "8d2d8dd519dc037e71361523d81807b4d2dfa26d0d7cc80f1aab943d249f303a", (EMPTY,)),
    (("basis", "--help"), 0, "9bdcb509a3a053370bab8c741f3340bae8f25763fa4c54859d56750a0b3df6ff", (EMPTY,)),
    (("hilbert", "--help"), 0, "1370156aeec36c99d338aa54c05f1c087feb0e3649d3071aa2abbebf563d2d70", (EMPTY,)),
    (("verify", "--help"), 0, "89f4cff6533b25067531c5805cdea539634227b1c1ac4869ce916253d36239bc", (EMPTY,)),
    (("oracle", "--help"), 0, "3a8543bcd08f7134f586e9e89899ec12dee0ab05d2e81100fc5d5426505066fd", (EMPTY,)),
    (("sweep", "--help"), 0, "d3c4f7ff4bf2bdf4fb2507db61892326732c63b2a5c3fecff60aa6e04db512e7", (EMPTY,)),
    ((), 2, EMPTY, ("b27e91bda140ea91c7627a285cb8de3a7057f282266abb5cd889f818a8824183",)),
    (("bogus",), 2, EMPTY, ("dba6bc11b5a092b747130bf89ca7510225c00541e50f6731046116b2dcb579fd",
                            "6327590c35470b6bd892753669a0f15fea4a06f1e5cc8a624f63c80341ba5c57")),
    (("verify", *EX41, "--bogus"), 2, EMPTY,
     ("27fa9eaf999270533e1520a970ae28a7f3c60dd7923bcf8c527ee9904ec349df",)),
    (("verify", *EX41, "--k-strict"), 2, EMPTY,
     ("d3698d094796292759b9b2a8e9453b08e9c27dd5d8ea76235717b176d7d552be",)),
    (("verify", "--alpha1", "x"), 2, EMPTY,
     ("a18e1eb69c30a8fe89d5ba80d456b61f5a8af0567945a1fc0352555d450bc401",)),
    (("verify",), 2, EMPTY, ("5f6ab2347f4d6dee90d9d492d5197d6c684ca0a0028530772ed03b6a7afb7812",)),
    (("sweep", "--jobs", "x"), 2, EMPTY,
     ("41370a29c1f7b946cb7688d0aeb7ea98fc4e9565b75df72f2b8dbf3c82e30a09",)),
    (("hilbert", *EX41, "--json", "--text"), 2, EMPTY,
     ("9655daf5734ea8039ce37aafa9fd0c40901be0cc6b0c285f5f2c1898b7d01ddd",)),
]


@pytest.mark.parametrize("argv, code, out_digest, err_digests", CLI_TEXT,
                         ids=[" ".join(argv).replace(" ".join(EX41), "EX41") or "no-command"
                              for argv, *_ in CLI_TEXT])
def test_help_usage_and_errors_are_pinned(capsys, monkeypatch, argv, code, out_digest, err_digests):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert exit_info.value.code == code
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest
    assert hashlib.sha256(captured.err.encode()).hexdigest() in err_digests


# argvs that start with a subcommand, covering each one's defaults and options
FRONT_END_ARGVS = [
    ("gens", *EX41),
    ("gens", *EX41, "--text"),
    ("basis", *EX41),
    ("basis", *EX41, "--closed-form", "--json"),
    ("basis", *A4_3, "--verify"),
    ("basis", "--engine", *EX43),
    ("hilbert", *EX41),
    ("hilbert", *EX41, "--bayer", "--max-level", "3", "--text"),
    ("hilbert", *EX43, "--closed-form", "--max-level=0"),
    ("verify", *EX41),
    ("verify", "--text", *A4_3, "--max-level", "7", "--fixtures", "fx", "--timing"),
    ("oracle", *EX41),
    ("oracle", *EX43, "--max-level", "4", "--text"),
    ("sweep",),
    ("sweep", "--alpha1", "2:5", "--alpha2", "7", "--alpha4", "2:3", "--alpha21", "1:2"),
    ("sweep", "--alpha3", "3:4", "--k", "1", "--jobs", "2", "--max-level", "4", "--out", "r.jsonl",
     "--allow-unsorted", "--allow-small-alpha2"),
]


# Tokens of the differential test: every command, flag and alpha flag, the
# forms the reader must leave to argparse, and values that convert, fail to
# convert or look like options.
ALL_FLAGS = [f"--{key}" for key in pipeline.ALPHA_KEYS] + [flag for flag, _, _ in OPTIONS]
ODD_TOKENS = ["--max", "--alpha", "-h", "--", "--bogus"]
VALUES = ["3", "-1", "x", "", "2:5", " 4", "=3"]


@st.composite
def front_end_argvs(draw):
    """A command, mostly well formed for it, and a few tokens that may break it."""
    command = draw(st.sampled_from(list(COMMANDS)))
    fit = st.sampled_from(["3", " 4"])
    own = st.sampled_from([flag for flag, commands, _ in OPTIONS if command in commands])
    groups = [[f"--{key}", draw(fit)] for key in pipeline.ALPHA_KEYS if draw(st.integers(0, 9))]
    groups += draw(st.lists(st.one_of(
        own.map(lambda f: [f]),
        st.tuples(own, fit).map(list),
        st.tuples(own, fit).map(lambda fv: ["=".join(fv)]),
    ), max_size=4))
    value = st.sampled_from(VALUES)
    flag = st.sampled_from(ALL_FLAGS)
    groups += draw(st.lists(st.one_of(
        st.tuples(flag, value).map(list),
        st.tuples(flag, value).map(lambda fv: ["=".join(fv)]),
        flag.map(lambda f: [f]),
        st.sampled_from(ODD_TOKENS + list(COMMANDS) + VALUES).map(lambda t: [t]),
    ), max_size=2))
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)]


def parse_outcome(parse, argv):
    """The namespace, or the exit code and printed text of a refused or help argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return parse(list(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def run_module(argv, cwd, **streams):
    """`python -m pseudosym.cli *argv` in a new interpreter that imports this package."""
    src = str(Path(pseudosym.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "pseudosym.cli", *argv],
                          text=True, env=env, cwd=cwd, timeout=120, **streams)


# The sweep prints 162 kB in one call; the gens output waits in the buffer
# for the flush at the end of `main`.
UNWRITABLE_ARGVS = [("sweep", "--alpha1", "2:9", "--alpha2", "2:9", "--alpha3", "2:6"),
                    ("gens", *EX41), ("verify", *EX41)]


# Help printed by argparse, which drops a failed write: unbuffered, the
# write itself fails; buffered, the flush in `main` does.
HELP_ARGVS = [("--help",), ("verify", "--help")]
BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


def set_buffering(monkeypatch, unbuffered):
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)


class TestEntryPath:
    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, ["gens", *EX41])
        monkeypatch.setattr(sys, "argv", ["pseudosym", "gens", *EX41])
        assert run(capsys, None) == (0, expected, "")

    def test_module_entry_matches_in_process(self, capsys, tmp_path):
        _, expected, _ = run(capsys, ["verify", *EX41])
        done = run_module(["verify", *EX41], tmp_path, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    @pytest.mark.parametrize("argv", UNWRITABLE_ARGVS, ids=lambda argv: argv[0])
    def test_closed_pipe_exits_2_quietly(self, tmp_path, argv):
        # the reader is gone before the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_module(argv, tmp_path, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", UNWRITABLE_ARGVS, ids=lambda argv: argv[0])
    def test_full_device_exits_2_with_one_line(self, tmp_path, argv):
        with open("/dev/full", "w") as full:
            done = run_module(argv, tmp_path, stdout=full, stderr=subprocess.PIPE)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("cannot write output: ") and done.stderr.count("\n") == 1

    @BUFFERING
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_to_a_closed_pipe_exits_2_quietly(self, tmp_path, monkeypatch, argv, unbuffered):
        set_buffering(monkeypatch, unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_module(argv, tmp_path, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (2, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    @BUFFERING
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_to_a_full_device_exits_2_with_one_line(self, tmp_path, monkeypatch, argv, unbuffered):
        set_buffering(monkeypatch, unbuffered)
        with open("/dev/full", "w") as full:
            done = run_module(argv, tmp_path, stdout=full, stderr=subprocess.PIPE)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("cannot write output: ") and done.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", FRONT_END_ARGVS, ids=lambda argv: " ".join(argv))
    def test_reader_matches_the_full_parser(self, monkeypatch, argv):
        expected = build_parser().parse_args(argv)
        monkeypatch.setattr(cli, "build_parser", None)  # a well-formed argv must not need it
        assert parse_args(list(argv)) == expected

    @settings(max_examples=400, deadline=None)
    @given(argv=front_end_argvs())
    def test_reader_agrees_with_argparse(self, argv):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            assert parse_outcome(parse_args, argv) == parse_outcome(
                lambda argv: build_parser().parse_args(argv), argv)

    @pytest.mark.parametrize("argv, code, count", [
        (("verify", *EX41), 0, 0),
        # a negative value goes to argparse, which reads it and builds the
        # top-level -h, the six subcommands' -h and their 57 options
        (("verify", *EX41, "--max-level", "-1"), 2, 64),
    ], ids=["well-formed", "negative-value"])
    def test_verify_call_add_argument_calls(self, capsys, monkeypatch, argv, code, count):
        calls = []
        real = argparse._ActionsContainer.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        assert (run(capsys, list(argv))[0], len(calls)) == (code, count)

    def test_importing_the_cli_loads_no_process_pool(self, tmp_path):
        # Nor dataclasses: the record types generate no code at import.  -S
        # keeps a site .pth file from loading a module before the probe runs.
        src = str(Path(pseudosym.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, pseudosym.cli; print(sorted(m for m in "
                 "('concurrent.futures', 'multiprocessing', 'dataclasses') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-S", "-c", probe],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


# JSON trees: str keys with escapes and non-ASCII text, empty and nested
# containers, tuples, and every scalar json writes, nan and infinities too.
# Report-shaped nodes are drawn on purpose, since the writer takes a short
# cut for each: lists of int lists like P and Q (empty inner lists, bools
# among the ints, ints beyond 64 bits), dicts of scalars, lists of strings.
JSON_SCALARS = (st.none() | st.booleans() | st.integers(-(1 << 200), 1 << 200)
                | st.floats(allow_nan=True, allow_infinity=True) | st.text())
JSON_KEYS = st.text(alphabet=st.sampled_from('ab"\\\n\t\x00é€😀'), max_size=4)
BIG_INTS = st.integers(-(1 << 100), 1 << 100)
JSON_TREES = st.recursive(
    JSON_SCALARS
    | st.lists(st.lists(BIG_INTS, max_size=3) | st.lists(BIG_INTS | st.booleans(), max_size=3),
               min_size=1, max_size=4)
    | st.dictionaries(JSON_KEYS, JSON_SCALARS, min_size=1, max_size=4)
    | st.lists(st.text(), min_size=1, max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(JSON_KEYS, children, max_size=4),
    max_leaves=30,
)


class TestRenderer:
    @settings(max_examples=200, deadline=None)
    @given(obj=JSON_TREES)
    def test_matches_json_dumps(self, obj):
        assert cli._dump(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("command", [("verify",), ("gens",), ("oracle",), ("basis", "--json")])
    @pytest.mark.parametrize("params", FAMILY_TUPLES,
                             ids=lambda p: "-".join(map(str, p.as_dict().values())))
    def test_real_outputs_match_json_dumps(self, capsys, monkeypatch, command, params):
        rendered = []
        real = cli._dump
        # the renderer recurses through the module name: the first call is the whole output
        monkeypatch.setattr(cli, "_dump", lambda obj, *indent: rendered.append(obj) or real(obj, *indent))
        alphas = [f"--{key}={value}" for key, value in params.as_dict().items()]
        assert run(capsys, [command[0], *alphas, *command[1:]])[0] == 0
        obj = rendered[0]
        assert real(obj) == json.dumps(obj, sort_keys=True, indent=2)
