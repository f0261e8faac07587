"""Outside-in tracing: spans and counters wrapped around the calls into each layer.

Nothing in the package is edited.  Each wrapper replaces a module attribute
at the name its caller looks up (``pipeline.hilbert_oracle`` is the name
`build_report` calls, ``cli.hilbert_oracle`` the one `oracle` calls), and
`Tracer.uninstall` puts the originals back.  Spans are kept in memory as
``[name, start, end, parent, op]`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

NAME, START, END, PARENT, OP = range(5)

OP_SPAN = "cli.main"

# (module, attribute, span name): timed calls.
SPANS = (
    ("cli", "build_report", "pipeline.build_report"),
    ("pipeline", "hilbert_oracle", "semigroup.hilbert_oracle"),
    ("cli", "hilbert_oracle", "semigroup.hilbert_oracle"),
    ("cli", "frobenius_and_gaps", "semigroup.gapset"),
    ("cli", "is_pseudo_symmetric", "semigroup.gapset"),
    ("stdbasis", "standard_basis", "stdbasis.standard_basis"),
    ("cm", "cm_verdict", "cm.cm_verdict"),
    ("cm", "buchberger_homogeneous", "stdbasis.buchberger_homogeneous"),
    ("hilbert", "hilbert_numerator", "hilbert.hilbert_numerator"),
    ("hilbert", "second_series", "hilbert.series"),
    ("hilbert", "hilbert_function", "hilbert.series"),
    ("hilbert", "closed_form_numerator", "hilbert.series"),
    ("toric", "toric_generators", "toric"),
    ("toric", "closed_form_basis", "toric"),
    ("toric", "compute_k", "toric"),
)


class Tracer:
    """Span and counter sink for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][NAME] == name

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under the op-level span."""
        self._op = op_id
        index = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._op = None

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, on_call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(args, result)
            return result
        return wrapper

    def install(self, package) -> None:
        """Wrap the layer boundaries of the imported `package` (pseudosym)."""
        mods = {name: getattr(package, name)
                for name in ("cli", "pipeline", "stdbasis", "cm", "hilbert", "toric", "semigroup", "poly")}
        for mod, attr, name in SPANS:
            hook = None
            if attr == "standard_basis":
                hook = lambda args, basis: self.count("stdbasis.basis_size", len(basis))
            self._patch(mods[mod], attr, self._span_wrapper(name, getattr(mods[mod], attr), hook))

        def nf_mora(args, h):
            self.count("stdbasis.nf_mora.calls")
            if h.is_zero:
                self.count("stdbasis.nf_mora.zero")

        def minimalize(args, kept):
            if self.inside("stdbasis.standard_basis"):
                self.count("stdbasis.closure_size", len(args[0]))

        def monomial_colon(args, result):
            if self.inside("hilbert.hilbert_numerator"):
                self.count("hilbert.pivot_nodes")

        def membership_table(args, table):
            self.count("semigroup.membership_table.calls")
            self.count("semigroup.table_cells", args[1] + 1)
            if self.inside("semigroup.gapset"):
                self.count("semigroup.gapset.cells", args[1] + 1)

        counted = (
            (mods["stdbasis"], "nf_mora", nf_mora),
            (mods["stdbasis"], "minimalize", minimalize),
            (mods["stdbasis"], "nf_global", lambda a, r: self.count("stdbasis.nf_global.calls")),
            (mods["stdbasis"], "reduce_step", lambda a, r: self.count("stdbasis.reduce_steps")),
            (mods["stdbasis"], "spoly", lambda a, r: self.count("poly.spoly.calls")),
            (mods["hilbert"], "monomial_colon", monomial_colon),
            (mods["semigroup"], "membership_table", membership_table),
            (mods["poly"].Polynomial, "__init__", lambda a, r: self.count("poly.polynomials_built")),
        )
        for owner, attr, on_call in counted:
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), on_call))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op"), span))) + "\n")


# -- span arithmetic ---------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans come from one thread, so children are nested and disjoint and their
    summed durations are the part of the parent they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def outer_ms(spans: list[list], names: set[str]) -> float:
    """Summed duration of spans named in `names` that no such span encloses, in ms."""
    total = 0.0
    for s in spans:
        parent = s[PARENT]
        while parent is not None and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if s[NAME] in names and parent is None:
            total += s[END] - s[START]
    return total * 1000.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass, by BENCHMARK.json name."""
    spans, c = tracer.spans, tracer.counts
    selfs = self_times(spans)

    def self_ms(name):
        return 1000.0 * sum(t for s, t in zip(spans, selfs) if s[NAME] == name)

    def n_spans(name):
        return sum(1 for s in spans if s[NAME] == name)

    op_ms = outer_ms(spans, {OP_SPAN})
    calls = c["stdbasis.nf_mora.calls"]
    cm_calls = n_spans("cm.cm_verdict")
    return {
        "semigroup.hilbert_oracle.ms": outer_ms(spans, {"semigroup.hilbert_oracle"}),
        # A share, not a time: `verify` makes no gap-set query, so on the
        # verify-only workloads this reads 0 on every run.
        "semigroup.gapset.op_share": outer_ms(spans, {"semigroup.gapset"}) / op_ms,
        "semigroup.gapset.cells": c["semigroup.gapset.cells"],
        "semigroup.membership_table.calls": c["semigroup.membership_table.calls"],
        "semigroup.table_cells": c["semigroup.table_cells"],
        "stdbasis.standard_basis.ms": outer_ms(spans, {"stdbasis.standard_basis"}),
        "stdbasis.nf_mora.calls": calls,
        "stdbasis.useful_reduction_frac": (calls - c["stdbasis.nf_mora.zero"]) / calls if calls else 0.0,
        "stdbasis.reduce_steps": c["stdbasis.reduce_steps"],
        "stdbasis.closure_size": c["stdbasis.closure_size"],
        "stdbasis.basis_size": c["stdbasis.basis_size"],
        "poly.polynomials_built": c["poly.polynomials_built"],
        "poly.spoly.calls": c["poly.spoly.calls"],
        "cm.cm_verdict.ms": outer_ms(spans, {"cm.cm_verdict"}),
        "cm.buchberger_frac": n_spans("stdbasis.buchberger_homogeneous") / cm_calls if cm_calls else 0.0,
        "stdbasis.buchberger_homogeneous.ms": outer_ms(spans, {"stdbasis.buchberger_homogeneous"}),
        "stdbasis.nf_global.calls": c["stdbasis.nf_global.calls"],
        "hilbert.hilbert_numerator.ms": outer_ms(spans, {"hilbert.hilbert_numerator"}),
        "hilbert.pivot_nodes": c["hilbert.pivot_nodes"],
        "hilbert.series.ms": outer_ms(spans, {"hilbert.series"}),
        "toric.ms": outer_ms(spans, {"toric"}),
        "pipeline.build_report.self_ms": self_ms("pipeline.build_report"),
        "cli.self_ms": self_ms(OP_SPAN),
        "semigroup.op_share": outer_ms(spans, {"semigroup.hilbert_oracle", "semigroup.gapset"}) / op_ms,
        "stdbasis_cm.op_share": outer_ms(spans, {"stdbasis.standard_basis", "cm.cm_verdict"}) / op_ms,
    }

