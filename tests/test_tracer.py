"""The benchmark's outside-in tracer (perfbench/tracing.py) still fits the package.

The tracer replaces module attributes by name, so removing or renaming one of
them breaks the benchmark; these tests notice it without running a workload.
"""

import importlib.util
from pathlib import Path

import pytest

import pseudosym
import pseudosym.cli
from pseudosym.poly import Polynomial

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
LAYERS = ("cli", "pipeline", "stdbasis", "cm", "hilbert", "toric", "semigroup", "poly")
EX41 = ["--alpha1", "16", "--alpha2", "20", "--alpha3", "7", "--alpha4", "2", "--alpha21", "8"]
# alpha4 = 3: a tangent cone with binomial lowest forms, so the CM verdict runs Buchberger
A4_3 = ["--alpha1", "9", "--alpha2", "5", "--alpha3", "3", "--alpha4", "3", "--alpha21", "2"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    """Every attribute of the traced modules and of `Polynomial`, by owner and name."""
    owners = [getattr(pseudosym, name) for name in LAYERS] + [Polynomial]
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_install_wraps_and_uninstall_restores(tracing):
    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(pseudosym)
    try:
        during = snapshot()
    finally:
        tracer.uninstall()
    wrapped = {key for key in before if during[key] is not before[key]}
    assert {(f"pseudosym.{module}", attr) for module, attr, _ in tracing.SPANS} <= wrapped
    assert ("Polynomial", "__init__") in wrapped
    assert snapshot() == before


def test_traced_ops_reach_every_span(tracing, capsys):
    tracer = tracing.Tracer()
    tracer.install(pseudosym)
    try:
        ops = [["verify", *EX41], ["verify", *A4_3], ["gens", *EX41], ["oracle", *EX41]]
        for op, argv in enumerate(ops):
            assert tracer.run_op(op, pseudosym.cli.main, argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    seen = {span[tracing.NAME] for span in tracer.spans}
    assert {name for _, _, name in tracing.SPANS} <= seen
    # every counter wrapped around an engine function, so a rewritten
    # signature the wrapper no longer reaches reads 0 here
    for counter in ("stdbasis.nf_mora.calls", "stdbasis.nf_mora.zero", "stdbasis.reduce_steps",
                    "poly.spoly.calls", "stdbasis.nf_global.calls", "poly.polynomials_built"):
        assert tracer.counts[counter] > 0, counter
