"""End-to-end runs: one report per parameter tuple, plus the sweep harness.

A report ties every route together for a single tuple: the engine basis vs
the closed form, the pivot-recursion numerator vs the closed-form numerator
vs a stored fixture (when one exists for the tuple), the Hilbert function vs
the order-counting semigroup oracle, and the Cohen-Macaulay verdict.  Every
disagreement is recorded in a `mismatches` list so callers can decide how
loudly to fail; a report with an empty list is fully cross-validated.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path
from typing import Iterator, Sequence

from . import cm, hilbert, stdbasis, toric
from .errors import ParameterError, UnsupportedParametersError
from .poly import LOCAL, Polynomial, monomial, normalize, parse_poly, render_poly
from .semigroup import (
    NumericalSemigroup,
    PseudoSymmetricParams,
    check_conditions,
    construct_generators,
    hilbert_oracle,
)

ALPHA_KEYS = ("alpha1", "alpha2", "alpha3", "alpha4", "alpha21")


def fixture_stem(params: PseudoSymmetricParams) -> str:
    return (
        f"a1-{params.alpha1}_a2-{params.alpha2}_a3-{params.alpha3}"
        f"_a4-{params.alpha4}_a21-{params.alpha21}"
    )


def _load_fixture(name: str, fixtures_dir: str | Path | None, parse):
    """`parse` applied to the named fixture's text; None when there is no such file."""
    if fixtures_dir is None:
        ref = resources.files("pseudosym").joinpath("fixtures", name)
    elif not Path(fixtures_dir).is_dir():
        raise ParameterError(f"no fixture directory at {fixtures_dir}")
    else:
        ref = Path(fixtures_dir) / name
    if not ref.is_file():
        return None
    text = ref.read_text()
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
        lambda text: [normalize(parse_poly(line, LOCAL)) for line in text.splitlines() if line.strip()],
    )


def load_fixture_numerator(params: PseudoSymmetricParams,
                           fixtures_dir: str | Path | None = None) -> list[list[int]] | None:
    """The stored numerator as the `[exponent, coefficient]` pairs a report prints as "P"."""
    return _load_fixture(fixture_stem(params) + ".numerator.txt", fixtures_dir,
                         lambda text: hilbert.parse_numerator(text.strip()))


def basis_set(elements: Sequence[Polynomial]) -> frozenset[Polynomial]:
    return frozenset(normalize(f) for f in elements)


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


def engine_basis(params: PseudoSymmetricParams) -> list[Polynomial]:
    """The local standard basis of the curve's defining binomials."""
    return stdbasis.standard_basis(toric.toric_generators(params).generators)


def k_readings(params: PseudoSymmetricParams) -> dict[str, int | None]:
    """The strict and non-strict tail lengths; None where a reading has no k."""
    ks = {}
    for mode in ("strict", "nonstrict"):
        try:
            ks[mode] = toric.compute_k(params, strict=(mode == "strict"))
        except (ParameterError, UnsupportedParametersError):
            ks[mode] = None
    return ks


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


def build_report(params: PseudoSymmetricParams, *, k_strict: bool = False,
                 max_level: int | None = None,
                 fixtures_dir: str | Path | None = None,
                 timing: bool = False) -> dict:
    """Run the full pipeline on one tuple and cross-check every route."""
    started = time.perf_counter()
    mismatches: list[str] = []
    report: dict = {"params": params.as_dict()}

    S = numerical_semigroup(params)
    conds = check_conditions(params)
    report["n"] = list(S.generators)
    report["conditions"] = conds

    engine = engine_basis(params)
    report["basis"] = {
        "engine": render_basis(engine),
        "engine_count": len(engine),
    }
    _check_binomial_closure(engine, S, mismatches)

    # the closed forms' own preconditions (see toric.closed_form_basis)
    closed_regime = params.alpha4 == 2 and all(
        conds[c] for c in ("c1", "c2", "c3", "c4", "sorted"))
    if closed_regime:
        _closed_form_section(params, engine, report, mismatches, k_strict)

    # Hilbert data always comes from the engine's leading ideal, which is
    # monomial even when a lowest form is a homogeneous binomial.
    P = hilbert.hilbert_numerator(stdbasis.leading_ideal(engine))
    report.update(hilbert_section(P, max_level))

    if report["multiplicity"] != min(S.generators):
        mismatches.append(
            f"multiplicity {report['multiplicity']} != smallest generator {min(S.generators)}"
        )

    if closed_regime and report.get("k", {}).get("used") is not None:
        P_closed = hilbert.closed_form_numerator(params, report["k"]["used"])
        report["numerator_match"] = P_closed == P
        if not report["numerator_match"]:
            mismatches.append("closed-form numerator differs from pivot recursion")
    if closed_regime and report.get("k", {}).get("nonstrict") == 1:
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
        ok = basis_set(fixture_basis) == basis_set(engine)
        report["basis_fixture_match"] = ok
        if not ok:
            mismatches.append("stored basis fixture differs from engine basis")

    oracle = hilbert_oracle(S, len(report["H"]) - 1)
    report["H_oracle"] = oracle
    report["oracle_match"] = oracle == report["H"]
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
    return render_poly(monomial(witness, LOCAL))


def _check_binomial_closure(basis, S: NumericalSemigroup, mismatches: list[str]) -> None:
    for f in basis:
        if len(f.terms) != 2:
            mismatches.append(f"non-binomial basis element {f!r}")
        elif len({toric.sdegree(t.mono, S) for t in f.terms}) != 1:
            mismatches.append(f"basis element {f!r} has unequal S-degrees")


def _predict(params, engine, strict: bool) -> dict:
    try:
        predicted = toric.closed_form_basis(params, strict=strict)
    except UnsupportedParametersError as exc:
        return {"refused": str(exc)}
    return {
        "elements": render_basis(predicted.elements),
        "count": len(predicted.elements),
        "match": basis_set(predicted.elements) == basis_set(engine),
    }


def _closed_form_section(params, engine, report, mismatches, k_strict) -> None:
    ks = k_readings(params)
    report["k"] = {
        "strict": ks["strict"],
        "nonstrict": ks["nonstrict"],
        "agree": ks["strict"] == ks["nonstrict"],
        "used": ks["strict" if k_strict else "nonstrict"],
    }

    nonstrict = _predict(params, engine, strict=False)
    report["closed_form"] = nonstrict
    if k_strict:
        # Strict mode pits the engine against the strict-k prediction; a
        # prediction that cannot even be built counts as a mismatch, while
        # the non-strict result stays in the report for comparison.
        strict_side = _predict(params, engine, strict=True)
        report["closed_form"] = {"strict": strict_side, "nonstrict": nonstrict}
        report["basis"]["match"] = strict_side.get("match", False)
        if "refused" in strict_side:
            mismatches.append(f"strict-k closed form refused: {strict_side['refused']}")
        elif not strict_side["match"]:
            mismatches.append(
                f"engine basis ({len(engine)} elements) differs from strict-k "
                f"closed form ({strict_side['count']} elements, k={ks['strict']})"
            )
        return

    if "refused" in nonstrict:
        # Outside the closed-form regime; reported, not failed.
        report["k"]["used"] = None
        return
    report["basis"]["match"] = nonstrict["match"]
    if not nonstrict["match"]:
        mismatches.append(
            f"engine basis ({len(engine)} elements) differs from closed form "
            f"({nonstrict['count']} elements, k={ks['nonstrict']})"
        )


# ---------------------------------------------------------------------------
# Sweep harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Inclusive parameter ranges plus the filters applied to each tuple."""

    alpha1: tuple[int, int] = (2, 8)
    alpha2: tuple[int, int] = (2, 8)
    alpha3: tuple[int, int] = (2, 8)
    alpha4: tuple[int, int] = (2, 2)
    alpha21: tuple[int, int] = (1, 7)
    require_sorted: bool = True
    require_c4: bool = True
    k_filter: int | None = None
    jobs: int = 1
    max_level: int | None = None

    def __post_init__(self):
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
        if self.max_level is not None and self.max_level < 0:
            raise ParameterError(f"max_level >= 0 violated (max_level={self.max_level})")


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
                        if (config.k_filter is not None
                                and k_readings(params)["nonstrict"] != config.k_filter):
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_sweep_worker, jobs, chunksize=chunksize))
    else:
        reports = [_sweep_worker(job) for job in jobs]

    by_k: dict[str, int] = {}
    decreasing = []
    refused = []
    mismatched = []
    for r in reports:
        k = r.get("k", {}).get("nonstrict")
        by_k[str(k)] = by_k.get(str(k), 0) + 1
        if not r["non_decreasing"]:
            decreasing.append(r["params"])
        if isinstance(r.get("closed_form"), dict) and "refused" in r["closed_form"]:
            refused.append(r["params"])
        if r["mismatches"]:
            mismatched.append({"params": r["params"], "mismatches": r["mismatches"]})
    summary = {
        "total": len(reports),
        "by_k": by_k,
        "non_decreasing": sum(1 for r in reports if r["non_decreasing"]),
        "decreasing_params": decreasing,
        "closed_form_refusals": refused,
        "mismatches": mismatched,
    }
    return summary, reports
