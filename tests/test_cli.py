"""Exit codes, JSON shapes, and determinism of the command-line front end."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import pseudosym
from pseudosym import cli, pipeline, stdbasis
from pseudosym.cli import COMMANDS, build_parser, main, parse_args

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

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
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

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, _, err = run(capsys, [*self.SMALL, "--jobs", jobs])
        assert code == 2
        assert "jobs >= 1 violated" in err

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

    def test_negative_max_level_refused_before_any_tuple(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a report was built")

        monkeypatch.setattr(pipeline, "build_report", fail)
        code, out, err = run(capsys, [*self.SMALL, "--max-level", "-1"])
        assert code == 2
        assert out == ""
        assert "max_level >= 0 violated" in err


def test_step_budget_is_an_internal_failure(capsys, monkeypatch):
    monkeypatch.setattr(stdbasis, "MAX_REDUCTION_STEPS", 0)
    code, out, err = run(capsys, ["verify", *EX41])
    assert code == 4
    assert "step budget" in err
    assert out == ""


# sha256 of stdout, with the exit code, for every single-tuple subcommand in
# each of its output modes; the digests were recorded before the subcommands
# were rebuilt on the shared pipeline stages and must not move.
GOLDEN_STDOUT = [
    ("EX41", ("gens",), 0, "163eef80bdacbcf432105a344a64cb486f1ed939d0f03db96cf25840beb5e42a"),
    ("EX41", ("gens", "--text"), 0, "c7b16495ed64c659e49e0a0945f28fb80d81f8b7ad529bcc053c7a2b5a2f4b19"),
    ("EX41", ("basis",), 0, "8585bcfbe2991f5bf2fe8d0018c30b9d7bb39087ceee1927b481c63882527b9c"),
    ("EX41", ("basis", "--json"), 0, "2d5aa7b4ccfcb19a8e19394f119199e615901e3644c9f5f451558d9f018cbe10"),
    ("EX41", ("basis", "--closed-form"), 0, "08ddda2c15c2e95b5249410f3d7a2bb857298929615091f7eadaedd0a942ed79"),
    ("EX41", ("basis", "--closed-form", "--json"), 0, "9b0f55fc7afe05a0bbb3a2442f99d120eb5c622481e878bd1074047a7ee41425"),
    ("EX41", ("basis", "--verify"), 0, "c43ab5136b25cb2f6de7be368fb6829018e023668390fb688915a542d4c83997"),
    ("EX41", ("basis", "--verify", "--json"), 0, "bae0e6eff9f2fc47ef5b09bbc8639f6d6bd35ad750388d373c0e414498762134"),
    ("EX41", ("basis", "--verify", "--k-strict"), 0, "7c7abf5459e7e6b9a1e0d03824fc5f37554354c11332487708829a6ec2b2c72e"),
    ("EX41", ("hilbert", "--both"), 0, "f96cc3ee718a46483d814ace9b82af0e3174e209c3294f35437d028f95236614"),
    ("EX41", ("hilbert", "--bayer"), 0, "63a5efb36b72a67c094d555e9610bbc60a756355fa598609f92e6063d519e18f"),
    ("EX41", ("hilbert", "--closed-form"), 0, "a1ae3dde6fa85b8e2699b663b8ca46a77eb2a095fb4a2b1105d36fd8f594a9dc"),
    ("EX41", ("hilbert", "--bayer", "--text", "--max-level", "3"), 0, "631b66e8b947adbaad9b7b3fca32184ef1b84bc39aa7b2180921ec95eb54adc1"),
    ("EX41", ("oracle", "--text"), 0, "121f8bbf75c5bb74ffa52dcae46639e11606598f6ba2b812cf8e92cf45f7c5e0"),
    ("EX43", ("gens",), 0, "41a0afaec64eed4d1beeb7101f87754a89f62974fa5210db06fcb52ad3a97d19"),
    ("EX43", ("gens", "--text"), 0, "a7fcce5801c8dc9d9d184a31a987caeab899e335add745ed207e27afde901c41"),
    ("EX43", ("basis",), 0, "6e7224d8f57e8d9eb0701590e9715ec1b665bf6016580e8a28c3da556510c40d"),
    ("EX43", ("basis", "--json"), 0, "2b0624305997cd83828528a3a33b6affec0857b3c011f705e678cfffb546bed5"),
    ("EX43", ("basis", "--closed-form"), 0, "1ef4b96b7a37124d6c082854f75e08d4b783805ea06674fe684d9ad843e0bd74"),
    ("EX43", ("basis", "--closed-form", "--json"), 0, "54dbb409f408bbd926a65e5510993a4d3697e113ac04d1d252ed2f51efe1d4c8"),
    ("EX43", ("basis", "--verify"), 0, "c18e6f8254298db8f2fcea3b6ad6e11506b352fb5d4b951b56d12c85b8d880ed"),
    ("EX43", ("basis", "--verify", "--json"), 0, "a3033e94ac549f4e0d0429e35157338a99e4b99b01fa0518fc0e6d5a2a13e860"),
    # the strict-k closed form is refused here: exit 2, empty stdout
    ("EX43", ("basis", "--verify", "--k-strict"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
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


@pytest.mark.parametrize("command", ["gens", "basis", "hilbert", "verify", "oracle"])
def test_noncoprime_tuple_rejected(capsys, command):
    code, out, err = run(capsys, [command, *NONCOPRIME])
    assert code == 2
    assert out == ""
    assert "gcd of generators (9, 12, 15, 30) is 3, not 1" in err


@pytest.mark.parametrize("command, level", [("hilbert", "-3"), ("verify", "-2")])
def test_negative_max_level_rejected(capsys, command, level):
    code, out, err = run(capsys, [command, *EX41, "--max-level", level])
    assert code == 2
    assert out == ""
    assert f"({level})" in err


class TestFixtureErrors:
    def test_missing_directory_is_invalid_input(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent"
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(missing)])
        assert code == 2
        assert out == ""
        assert str(missing) in err

    @pytest.mark.parametrize("suffix, text", [
        ("basis.txt", "X1^16-X3*X4\nX1++X2\n"),
        ("basis.txt", "X1^16-X3*X4-\n"),
        ("numerator.txt", "1--t\n"),
        ("numerator.txt", "1-t^\n"),
    ])
    def test_unparsable_fixture_is_invalid_input(self, capsys, tmp_path, suffix, text):
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_text(text)
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("suffix", ["basis.txt", "numerator.txt"])
    def test_empty_fixture_is_invalid_input(self, capsys, tmp_path, suffix):
        path = tmp_path / f"a1-16_a2-20_a3-7_a4-2_a21-8.{suffix}"
        path.write_text("")
        code, out, err = run(capsys, ["verify", *EX41, "--fixtures", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert "empty fixture" in err and str(path) in err

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


EMPTY = hashlib.sha256(b"").hexdigest()

# (argv, exit code, sha256 of stdout, accepted sha256s of stderr) for help,
# usage and parse errors at COLUMNS=80, recorded before the parser was built
# per subcommand.  The basis, hilbert and sweep entries were recorded again
# when `basis --mode`, `hilbert --mode` and `sweep --sorted` were deleted;
# the texts differ from the earlier ones only by those flags.  Later argparse
# releases print the invalid choices unquoted, hence two texts for "bogus".
CLI_TEXT = [
    (("--help",), 0, "eccaf478e1a022b8a8875ddd6997c54f1371285e2136d0ee87f6e43273a39d7e", (EMPTY,)),
    (("-h",), 0, "eccaf478e1a022b8a8875ddd6997c54f1371285e2136d0ee87f6e43273a39d7e", (EMPTY,)),
    (("gens", "--help"), 0, "8d2d8dd519dc037e71361523d81807b4d2dfa26d0d7cc80f1aab943d249f303a", (EMPTY,)),
    (("basis", "--help"), 0, "53e9b1b5da596d20ccbae36527a4f698a90133bb34d82c5bbdf4e7c4f14fe8b4", (EMPTY,)),
    (("hilbert", "--help"), 0, "1370156aeec36c99d338aa54c05f1c087feb0e3649d3071aa2abbebf563d2d70", (EMPTY,)),
    (("verify", "--help"), 0, "9ccfa345fd053d1aab452c3f55a631fce618705de58bf4b9922ec2d3839ceb65", (EMPTY,)),
    (("oracle", "--help"), 0, "3a8543bcd08f7134f586e9e89899ec12dee0ab05d2e81100fc5d5426505066fd", (EMPTY,)),
    (("sweep", "--help"), 0, "d3c4f7ff4bf2bdf4fb2507db61892326732c63b2a5c3fecff60aa6e04db512e7", (EMPTY,)),
    ((), 2, EMPTY, ("b27e91bda140ea91c7627a285cb8de3a7057f282266abb5cd889f818a8824183",)),
    (("bogus",), 2, EMPTY, ("dba6bc11b5a092b747130bf89ca7510225c00541e50f6731046116b2dcb579fd",
                            "6327590c35470b6bd892753669a0f15fea4a06f1e5cc8a624f63c80341ba5c57")),
    (("verify", *EX41, "--bogus"), 2, EMPTY,
     ("27fa9eaf999270533e1520a970ae28a7f3c60dd7923bcf8c527ee9904ec349df",)),
    (("verify", "--alpha1", "x"), 2, EMPTY,
     ("869bb2e6a89515672ea905ea853b68d53732ae707a419b8cad9ced0e0855db4a",)),
    (("verify",), 2, EMPTY, ("b1c82188bd43967b6f38a05256f429bba130308ccf22a9b3fb5ca1f02e8ae800",)),
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
    ("basis", *EX41, "--closed-form", "--k-strict", "--json"),
    ("basis", *A4_3, "--verify"),
    ("basis", "--engine", *EX43),
    ("hilbert", *EX41),
    ("hilbert", *EX41, "--bayer", "--max-level", "3", "--text"),
    ("hilbert", *EX43, "--closed-form", "--max-level=0"),
    ("verify", *EX41),
    ("verify", "--text", *A4_3, "--k-strict", "--max-level", "7", "--fixtures", "fx", "--timing"),
    ("oracle", *EX41),
    ("oracle", *EX43, "--max-level", "4", "--text"),
    ("sweep",),
    ("sweep", "--alpha1", "2:5", "--alpha2", "7", "--alpha4", "2:3", "--alpha21", "1:2"),
    ("sweep", "--alpha3", "3:4", "--k", "1", "--jobs", "2", "--max-level", "4", "--out", "r.jsonl",
     "--allow-unsorted", "--allow-small-alpha2"),
]


class TestEntryPath:
    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        _, expected, _ = run(capsys, ["gens", *EX41])
        monkeypatch.setattr(sys, "argv", ["pseudosym", "gens", *EX41])
        assert run(capsys, None) == (0, expected, "")

    def test_module_entry_matches_in_process(self, capsys, tmp_path):
        _, expected, _ = run(capsys, ["verify", *EX41])
        src = str(Path(pseudosym.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "pseudosym.cli", "verify", *EX41],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    def test_only_the_invoked_subcommand_gets_options(self):
        (subparsers,) = [a for a in build_parser("verify")._actions
                         if isinstance(a, argparse._SubParsersAction)]
        assert list(subparsers.choices) == list(COMMANDS)
        for name, parser in subparsers.choices.items():
            flags = [flag for action in parser._actions for flag in action.option_strings]
            if name == "verify":
                assert "--timing" in flags
            else:
                assert flags == ["-h", "--help"]

    @pytest.mark.parametrize("argv", FRONT_END_ARGVS, ids=lambda argv: " ".join(argv))
    def test_one_parser_matches_the_full_parser(self, monkeypatch, argv):
        expected = build_parser(argv[0]).parse_args(argv)
        monkeypatch.setattr(cli, "build_parser", None)  # the one-parser path must not need it
        assert parse_args(list(argv)) == expected

    def test_verify_call_makes_few_add_argument_calls(self, capsys, monkeypatch):
        calls = []
        real = argparse._ActionsContainer.add_argument

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
        assert run(capsys, ["verify", *EX41])[0] == 0
        # one parser: its -h, the five parameters and verify's six options
        assert len(calls) == 12
