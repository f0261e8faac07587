"""Benchmark for the `pseudosym` CLI: closed-loop, in-process, one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload family_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-digests        # only on a commit whose output is the reference

Each op is one `pseudosym.cli.main(argv)` call with stdout captured, so the
~50 ms interpreter start-up does not swamp ops of a few milliseconds.  Ops
run one after another, never in parallel.  The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it are the same figures for people.  See NOTES.md for the workloads,
the metrics and the limits of the measurement.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"
# Seeds whose ops have stored stdout digests: the default seed and one held out.
DIGEST_SEEDS = (1, 1009)
SETUP_REPEATS = 3
# Tail percentiles in tenths of a percent, lowest first.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


# -- the program under test ----------------------------------------------------

def import_program():
    """Import `pseudosym` afresh from this checkout's `src/`."""
    src = ROOT / "src"
    if not (src / "pseudosym" / "cli.py").is_file():
        raise BenchError(f"no pseudosym sources under {src}; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "pseudosym" or m.startswith("pseudosym.")]:
        del sys.modules[name]
    package = importlib.import_module("pseudosym")
    importlib.import_module("pseudosym.cli")
    if Path(package.__file__).resolve().parent != src / "pseudosym":
        raise BenchError(f"imported pseudosym from {package.__file__}, not from {src}")
    return package


def call(main, argv: list[str]) -> tuple[int | str, str]:
    """Exit status and captured stdout of one CLI op; a raised error is a status too."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the op failed; the loop goes on and counts it
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def op_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def gate(key: str, rc, stdout: str, digests: dict[str, str]) -> str | None:
    """Why an op failed, or None.  Ops without a stored digest are checked on status only."""
    if rc != 0:
        return f"exit status {rc}"
    want = digests.get(key)
    if want is not None and digest(stdout) != want:
        return "stdout differs from the stored digest"
    return None


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# -- statistics ------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it, by nearest rank."""
    ranked = sorted(values)
    n = len(ranked)
    best = None
    for tenths in TAIL_LADDER:
        rank = -(-tenths * n // 1000)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (tenths / 10, ranked[rank - 1], n - rank)
    if best is None:
        raise BenchError(f"{n} samples are too few for a tail percentile")
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs --------------------------------------------------------------------------

class Pass:
    """Latencies and failures of ops run in order."""

    def __init__(self):
        self.latency: list[float] = []
        self.digests: list[str] = []
        self.failures: list[tuple[str, str]] = []

    def run(self, main, ops, digests, runner=None) -> None:
        for i, argv in enumerate(ops):
            start = time.perf_counter()
            rc, stdout = runner(i, call, main, argv) if runner else call(main, argv)
            self.latency.append(time.perf_counter() - start)
            self.digests.append(digest(stdout))
            reason = gate(op_key(argv), rc, stdout, digests)
            if reason is not None:
                self.failures.append((op_key(argv), reason))


def set_up(workload: str, seed: int):
    """Import `pseudosym` afresh, generate the ops and warm up.

    Returns the CLI entry point, the ops and the seconds it took.  A fresh
    import means nothing the program keeps in memory carries over from an
    earlier run of the same op, as with separate CLI calls.
    """
    start = time.perf_counter()
    main = import_program().cli.main
    ops = workloads.ops(workload, seed)
    for argv in workloads.warmup_ops():
        call(main, argv)
    return main, ops, time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float) -> dict:
    setup_times = [set_up(workload, seed)[2] for _ in range(SETUP_REPEATS)]
    digests = load_digests()
    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        # Every pass starts from its own set-up, so set-up is sampled across
        # the whole run, as the ops are.
        main, ops, setup_s = set_up(workload, seed)
        setup_times.append(setup_s)
        p = Pass()
        p.run(main, ops, digests)
        passes.append(p)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    # Each op's median over the passes damps the host's slow spells; the op
    # count, and so the tail percentile, is the same in every run.
    per_op = [statistics.median(p.latency[i] for p in passes) for i in range(len(ops))]
    pct, tail_s, beyond = tail(per_op)
    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p.failures]
    metrics = {
        "ops_per_s": len(ops) / sum(per_op),
        "op_ms_p50": 1000.0 * statistics.median(per_op),
        "op_ms_tail": 1000.0 * tail_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"{len(ops)} ops x {len(passes)} passes; an op's latency is its median over the passes",
        f"op_ms_tail is p{pct:g} of {len(ops)} ops ({beyond} beyond it)",
        f"failed_frac {len(failures) / attempted:g} ({len(failures)} of {attempted})",
        f"unverified_ops {sum(1 for argv in ops if op_key(argv) not in digests)} (no stored digest: exit status only)",
    ]
    return result(attempted, failures, [], metrics, notes)


def measure_traced(workload: str, seed: int) -> dict:
    """One untraced pass, then two traced passes of the same ops."""
    main, ops, _ = set_up(workload, seed)
    digests = load_digests()
    plain = Pass()
    plain.run(main, ops, digests)
    tracers, traced = [], []
    for _ in range(2):
        package = import_program()
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            p = Pass()
            p.run(package.cli.main, ops, digests, runner=tracer.run_op)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        traced.append(p)
    tracers[0].write(OUT / f"spans-{workload}-{seed}.jsonl")

    problems = []
    if any(p.digests != plain.digests for p in traced):
        problems.append("traced stdout differs from untraced stdout")
    if tracers[0].counts != tracers[1].counts:
        problems.append("counts differ between the two traced passes")
    # Counts are equal in both passes; times are their mean.
    layers = [tracing.layer_metrics(t) for t in tracers]
    metrics = {name: statistics.fmean(layer[name] for layer in layers) for name in layers[0]}
    plain_rate = len(ops) / sum(plain.latency)
    traced_rate = 2 * len(ops) / sum(sum(p.latency) for p in traced)
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
    failures = [f for p in [plain] + traced for f in p.failures]
    notes = [f"{len(ops)} ops: 1 untraced pass, 2 traced passes; spans in {OUT.name}/"]
    return result(3 * len(ops), failures, problems, metrics, notes)


def result(attempted, failures, problems, metrics, notes) -> dict:
    return {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "notes": notes,
    }


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit for one list of BENCHMARK.json (`end_to_end` or `per_layer`)."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def report(workload: str, seed: int, res: dict, kind: str) -> None:
    declared = units(kind)
    if set(res["metrics"]) != set(declared):
        raise BenchError(f"measured metrics differ from the {kind} list of {SPEC.name}: "
                         f"{sorted(set(res['metrics']) ^ set(declared))}")
    print(f"== {workload} seed {seed}")
    for name, value in res["metrics"].items():
        print(f"  {name:36s} {value:14.4f} {declared[name]}")
    for line in res["notes"]:
        print(f"  {line}")
    for key, reason in res["failures"][:10] + [("check", p) for p in res["problems"]]:
        print(f"  FAILED {key}: {reason}")
    line = {
        "correct": not res["failures"] and not res["problems"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in res["metrics"].items()},
    }
    print(json.dumps(line), flush=True)


# -- other modes -------------------------------------------------------------------

def record_digests() -> None:
    """Store the stdout digest of every op the digest seeds generate."""
    package = import_program()
    stored = {}
    for workload in workloads.WORKLOADS:
        for seed in DIGEST_SEEDS:
            for argv in workloads.ops(workload, seed):
                key = op_key(argv)
                if key in stored:
                    continue
                rc, stdout = call(package.cli.main, argv)
                if rc != 0:
                    raise BenchError(f"{key}: exit status {rc}; refusing to store its digest")
                stored[key] = digest(stdout)
    DIGESTS.write_text(json.dumps(stored, indent=0, sort_keys=True) + "\n")
    print(f"stored {len(stored)} digests in {DIGESTS.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak memory."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DIGEST_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest
            suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
            return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        if args.trace:
            res = measure_traced(args.workload, args.seed)
        else:
            res = measure(args.workload, args.seed, args.seconds)
        report(args.workload, args.seed, res, "per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
