"""End-to-end runs: one report per parameter tuple, plus the sweep harness.

A report ties every route together for a single tuple: the engine basis vs
the closed form, the pivot-recursion numerator vs the closed-form numerator
vs a stored fixture (when one exists for the tuple), the Hilbert function vs
the order-counting semigroup oracle (up to the regularity index at least,
whatever the printed levels), and the Cohen-Macaulay verdict.  Every
disagreement is recorded in a `mismatches` list so callers can decide how
loudly to fail; a report with an empty list is fully cross-validated.

Each tuple's toric system is built once, and both routes start from it: the
engine from its f1..f5, the closed form by extending them.  Each reading of
k is computed once: the non-strict one is the closed form's own `k`, the
strict one a single `toric.compute_k(params, strict=True)` call.

The packaged fixture names are read once per process, at import; a tuple
whose name is not among them is answered without building a path or a stat.
A fixture directory given by the caller is looked up on every call.
"""

from __future__ import annotations

import os
import time
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

from . import cm, hilbert, stdbasis, toric
from .errors import ParameterError, Record
from .poly import Polynomial, _render_mono, parse_poly, render_poly
from .semigroup import (
    NumericalSemigroup,
    PseudoSymmetricParams,
    check_conditions,
    check_level,
    construct_generators,
    hilbert_oracle,
)

ALPHA_KEYS = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha21")
# Resolved once; a Traversable, so the lookup also works from a zip.
_PACKAGED_FIXTURES = resources.files(__package__).joinpath("fixtures")
# Empty when the package was installed without its data, so import still succeeds.
_PACKAGED_NAMES = (frozenset(ref.name for ref in _PACKAGED_FIXTURES.iterdir())
                   if _PACKAGED_FIXTURES.is_dir() else frozenset())


def fixture_stem(params: PseudoSymmetricParams) -> str:
    return (
        f"a1-{params.alpha1}_a2-{params.alpha2}_a3-{params.alpha3}"
        f"_a4-{params.alpha4}_a21-{params.alpha21}"
    )


def _check_fixtures_dir(fixtures_dir: str | Path | None) -> None:
    """Refuse a `fixtures_dir` that is given but is not a directory."""
    if fixtures_dir is None:
        return
    if fixtures_dir == "":
        # Path("") is the working directory: the fixture checks would vanish silently
        raise ParameterError("fixtures_dir: expected a directory, got an empty value")
    if not Path(fixtures_dir).is_dir():
        raise ParameterError(f"no fixture directory at {fixtures_dir}")


def _load_fixture(name: str, fixtures_dir: str | Path | None, parse):
    """`parse` applied to the named fixture's text; None when there is no such file."""
    _check_fixtures_dir(fixtures_dir)
    if fixtures_dir is None:
        if name not in _PACKAGED_NAMES:
            return None
        ref = _PACKAGED_FIXTURES.joinpath(name)
    else:
        ref = Path(fixtures_dir) / name
    if not ref.is_file():
        return None
    try:
        text = ref.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"unreadable fixture {ref}: {exc}") from None
    if not text.strip():
        raise ParameterError(f"empty fixture {ref}")
    try:
        return parse(text)
    except ValueError as exc:
        raise ParameterError(f"unparsable fixture {ref}: {exc}") from None


def load_fixture_basis(params: PseudoSymmetricParams,
                       fixtures_dir: str | Path | None = None) -> list[Polynomial] | None:
    return _load_fixture(
        fixture_stem(params) + ".basis.txt", fixtures_dir,
        lambda text: [parse_poly(line) for line in text.splitlines() if line.strip()],
    )


def load_fixture_numerator(params: PseudoSymmetricParams,
                           fixtures_dir: str | Path | None = None) -> list[list[int]] | None:
    """The stored numerator as the `[exponent, coefficient]` pairs a report prints as "P"."""
    return _load_fixture(fixture_stem(params) + ".numerator.txt", fixtures_dir,
                         lambda text: hilbert.parse_numerator(text.strip()))


def render_basis(elements: Sequence[Polynomial]) -> list[str]:
    return [render_poly(f) for f in elements]


def _sparse_pairs(p: list[int]) -> list[list[int]]:
    return [[e, v] for e, v in enumerate(p) if v]


def numerical_semigroup(params: PseudoSymmetricParams) -> NumericalSemigroup:
    """The semigroup of `params`; refused unless its generators are coprime.

    This is the precondition of every single-tuple run.
    """
    S = construct_generators(params)
    if S.gcd() != 1:
        raise ParameterError(
            f"gcd of generators {S.generators} is {S.gcd()}, not 1; "
            "the tuple does not define a numerical semigroup"
        )
    return S


def engine_basis(system: toric.ToricSystem) -> list[Polynomial]:
    """The local standard basis of the curve's defining binomials, graded by n."""
    return stdbasis.standard_basis(system.generators, system.semigroup.generators)


def _closed_regime(params: PseudoSymmetricParams) -> bool:
    """Whether `toric.check_closed_form_regime` accepts `params`."""
    try:
        toric.check_closed_form_regime(params)
    except ParameterError:
        return False
    return True


def hilbert_section(P: list[int], max_level: int | None) -> dict:
    """Everything read off a Hilbert numerator P: Q = P/(1-t)^3, H(n) and its summary."""
    Q = hilbert.second_series(P)
    hreport = hilbert.hilbert_function(Q, max_level)
    return {
        "P": _sparse_pairs(P),
        "Q": _sparse_pairs(Q),
        "H": list(hreport.hilbert_function),
        "regularity_index": hreport.regularity_index,
        "multiplicity": hreport.multiplicity,
        "non_decreasing": hreport.non_decreasing,
        "first_decrease_level": hreport.first_decrease_level,
    }


def build_report(params: PseudoSymmetricParams, *, max_level: int | None = None,
                 fixtures_dir: str | Path | None = None,
                 timing: bool = False) -> dict:
    """Run the full pipeline on one tuple and cross-check every route.

    A `fixtures_dir` that is not a directory, and a `max_level` outside
    0..`semigroup.MAX_LEVEL`, are refused before any stage runs.
    """
    started = time.perf_counter()
    _check_fixtures_dir(fixtures_dir)
    if max_level is not None:
        check_level(max_level)
    mismatches: list[str] = []
    report: dict = {"params": params.as_dict()}

    S = numerical_semigroup(params)
    conds = check_conditions(params)
    report["n"] = list(S.generators)
    report["conditions"] = conds

    system = toric.toric_generators(params)
    engine = engine_basis(system)
    report["basis"] = {
        "engine": render_basis(engine),
        "engine_count": len(engine),
    }
    _check_binomial_closure(engine, S, mismatches)

    closed_regime = _closed_regime(params)
    if closed_regime:
        _closed_form_section(system, engine, report, mismatches)

    # Hilbert data always comes from the engine's leading ideal, which is
    # monomial even when a lowest form is a homogeneous binomial; the
    # numerator minimalizes the leads itself.
    P = hilbert.hilbert_numerator([g.lead for g in engine])
    report.update(hilbert_section(P, max_level))

    if report["multiplicity"] != min(S.generators):
        mismatches.append(
            f"multiplicity {report['multiplicity']} != smallest generator {min(S.generators)}"
        )

    if closed_regime:
        P_closed = hilbert.closed_form_numerator(params, report["k"]["used"])
        report["numerator_match"] = P_closed == P
        if not report["numerator_match"]:
            mismatches.append("closed-form numerator differs from pivot recursion")
        if report["k"]["nonstrict"] == 1:
            # H is non-decreasing exactly when Q has no negative coefficient.
            report["k1_certificate"] = report["non_decreasing"]
            if not report["k1_certificate"]:
                mismatches.append("negative second-series coefficient with k = 1")

    fixture_P = load_fixture_numerator(params, fixtures_dir)
    if fixture_P is not None:
        report["numerator_fixture_match"] = fixture_P == report["P"]
        if not report["numerator_fixture_match"]:
            mismatches.append("stored numerator fixture differs from computed one")
    fixture_basis = load_fixture_basis(params, fixtures_dir)
    if fixture_basis is not None:
        ok = frozenset(fixture_basis) == frozenset(engine)
        report["basis_fixture_match"] = ok
        if not ok:
            mismatches.append("stored basis fixture differs from engine basis")

    # Levels printed short of the regularity index would leave the plateau
    # unchecked, so the routes are compared up to it and printed up to N.
    H, regularity = report["H"], report["regularity_index"]
    if len(H) <= regularity:
        H = list(hilbert.hilbert_function(hilbert.second_series(P), regularity).hilbert_function)
    oracle = hilbert_oracle(S, len(H) - 1)
    report["H_oracle"] = oracle[:len(report["H"])]
    report["oracle_match"] = oracle == H
    if not report["oracle_match"]:
        mismatches.append("Hilbert function differs from the semigroup oracle")

    verdict = cm.cm_verdict(engine)
    report["cm"] = {
        "cohen_macaulay": verdict.cohen_macaulay,
        "witness": _witness_text(verdict.witness),
    }

    report["mismatches"] = mismatches
    if timing:
        report["timing_seconds"] = round(time.perf_counter() - started, 6)
    return report


def _witness_text(witness) -> str | None:
    if witness is None:
        return None
    return _render_mono(witness)


def _check_binomial_closure(basis, S: NumericalSemigroup, mismatches: list[str]) -> None:
    for f in basis:
        if f.tail is None:
            mismatches.append(f"non-binomial basis element {f!r}")
        elif not f.is_homogeneous(S.generators):
            mismatches.append(f"basis element {f!r} has unequal S-degrees")


def _closed_form_section(system, engine, report, mismatches) -> None:
    predicted = toric.closed_form_basis(system)
    strict = toric.compute_k(system.params, strict=True)
    report["k"] = {
        "strict": strict,
        "nonstrict": predicted.k,
        "agree": strict == predicted.k,
        # the closed form's reading, always the non-strict one; the key
        # stays because stored digests pin verify's output
        "used": predicted.k,
    }
    match = frozenset(predicted.elements) == frozenset(engine)
    report["closed_form"] = {
        "elements": render_basis(predicted.elements),
        "count": len(predicted.elements),
        "match": match,
    }
    report["basis"]["match"] = match
    if not match:
        mismatches.append(
            f"engine basis ({len(engine)} elements) differs from closed form "
            f"({len(predicted.elements)} elements, k={predicted.k})"
        )


# ---------------------------------------------------------------------------
# Sweep harness
# ---------------------------------------------------------------------------

class SweepConfig(Record):
    """Inclusive parameter ranges plus the filters applied to each tuple."""

    _fields = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha21", "require_sorted", "require_c4",
               "k_filter", "jobs", "max_level")
    __slots__ = _fields

    def __init__(
        self,
        alpha1: tuple[int, int] = (2, 8),
        alpha2: tuple[int, int] = (2, 8),
        alpha3: tuple[int, int] = (2, 8),
        alpha4: tuple[int, int] = (2, 2),
        alpha21: tuple[int, int] = (1, 7),
        require_sorted: bool = True,
        require_c4: bool = True,
        k_filter: int | None = None,
        jobs: int = 1,
        max_level: int | None = None,
    ):
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "alpha2", alpha2)
        object.__setattr__(self, "alpha3", alpha3)
        object.__setattr__(self, "alpha4", alpha4)
        object.__setattr__(self, "alpha21", alpha21)
        object.__setattr__(self, "require_sorted", require_sorted)
        object.__setattr__(self, "require_c4", require_c4)
        object.__setattr__(self, "k_filter", k_filter)
        object.__setattr__(self, "jobs", jobs)
        object.__setattr__(self, "max_level", max_level)
        for key in ALPHA_KEYS:
            lo, hi = getattr(self, key)
            if lo > hi:
                raise ParameterError(f"empty range for {key}: {lo}..{hi}")
        if self.alpha1[0] < 2 or self.alpha2[0] < 2 or self.alpha3[0] < 2 or self.alpha4[0] < 2:
            raise ParameterError("alpha ranges must start at 2 or above")
        if self.alpha21[0] < 1:
            raise ParameterError("alpha21 range must start at 1 or above")
        if self.jobs < 1:
            raise ParameterError(f"jobs >= 1 violated (jobs={self.jobs})")
        if self.max_level is not None:
            check_level(self.max_level)
        if self.k_filter is not None and self.k_filter < 1:
            raise ParameterError(f"k >= 1 violated (k={self.k_filter})")


def iter_sweep(config: SweepConfig) -> Iterator[PseudoSymmetricParams]:
    """All tuples in range that pass the structural filters, in lexicographic order."""
    for a1 in range(config.alpha1[0], config.alpha1[1] + 1):
        for a2 in range(config.alpha2[0], config.alpha2[1] + 1):
            for a3 in range(config.alpha3[0], config.alpha3[1] + 1):
                for a4 in range(config.alpha4[0], config.alpha4[1] + 1):
                    for a21 in range(config.alpha21[0], config.alpha21[1] + 1):
                        try:
                            params = PseudoSymmetricParams(a1, a2, a3, a4, a21)
                        except ParameterError:
                            continue
                        conds = check_conditions(params)
                        if not conds["coprime"]:
                            continue
                        if not (conds["c1"] and conds["c2"] and conds["c3"]):
                            continue
                        if config.require_c4 and not conds["c4"]:
                            continue
                        if config.require_sorted and not conds["sorted"]:
                            continue
                        if config.k_filter is not None and not (
                                _closed_regime(params)
                                and toric.compute_k(params) == config.k_filter):
                            continue
                        yield params


def _sweep_worker(args) -> dict:
    values, max_level = args
    return build_report(PseudoSymmetricParams(*values), max_level=max_level)


def run_sweep(config: SweepConfig) -> tuple[dict, list[dict]]:
    """Reports for every surviving tuple, plus an aggregate summary."""
    tuples = [
        (p.alpha1, p.alpha2, p.alpha3, p.alpha4, p.alpha21)
        for p in iter_sweep(config)
    ]
    jobs = [(values, config.max_level) for values in tuples]
    workers = min(config.jobs, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        # About four chunks per worker: few round trips, still balanced when
        # tuples differ in cost.  map keeps the input order either way.
        chunksize = max(1, len(jobs) // (4 * workers))
        # imported here: a single-tuple run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_sweep_worker, jobs, chunksize=chunksize))
    else:
        reports = [_sweep_worker(job) for job in jobs]

    by_k: dict[str, int] = {}
    decreasing = []
    mismatched = []
    for r in reports:
        k = r.get("k", {}).get("nonstrict")
        by_k[str(k)] = by_k.get(str(k), 0) + 1
        if not r["non_decreasing"]:
            decreasing.append(r["params"])
        if r["mismatches"]:
            mismatched.append({"params": r["params"], "mismatches": r["mismatches"]})
    summary = {
        "total": len(reports),
        "by_k": by_k,
        "non_decreasing": sum(1 for r in reports if r["non_decreasing"]),
        "decreasing_params": decreasing,
        "mismatches": mismatched,
    }
    return summary, reports
