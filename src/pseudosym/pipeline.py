"""End-to-end runs: one report per parameter tuple, plus the sweep harness.

A report ties every route together for a single tuple: the engine basis vs
the closed form, the pivot-recursion numerator vs the closed-form numerator
vs a stored fixture (when one exists for the tuple), the Hilbert function vs
the order-counting semigroup oracle (up to the regularity index at least,
whatever the printed levels), and the Cohen-Macaulay verdict.  Every
disagreement is recorded in a `mismatches` list so callers can decide how
loudly to fail; a report with an empty list is fully cross-validated.

Every single-tuple run, `build_report` as each subcommand, first passes
one gate, `admit`, which refuses input that no stage can take.

f1..f5 are built once per tuple, and both routes start from them: the
engine reduces them, the closed form extends them.  Each reading of k is
computed once: the non-strict one is the closed form's own `k`, the strict
one a single `toric.compute_k(params, strict=True)` call.

A report reads its fixtures before any stage.  The packaged fixture names
are read once per process, at import, and a directory given by the caller
is listed once per fixture; a tuple whose name is not among the listed
ones is answered without building a path.
"""

from __future__ import annotations

import os
from functools import partial
from importlib import resources
from itertools import product
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


def _load_fixture(name: str, fixtures_dir: str | Path | None, parse):
    """`parse` applied to the named fixture's text; None when the directory has no such name.

    `fixtures_dir` None stands for the packaged names.  A given directory is
    listed on every call; one that is an empty value, missing, or that
    cannot be listed is refused with a `ParameterError` that names it.
    """
    if fixtures_dir is None:
        names = _PACKAGED_NAMES
    elif fixtures_dir == "":
        # Path("") is the working directory: the fixture checks would vanish silently
        raise ParameterError("fixtures_dir: expected a directory, got an empty value")
    else:
        try:
            names = os.listdir(fixtures_dir)
        except (FileNotFoundError, NotADirectoryError):
            raise ParameterError(f"no fixture directory at {fixtures_dir}") from None
        except OSError as exc:
            raise ParameterError(
                f"unreadable fixture directory {fixtures_dir}: {exc.strerror or exc}") from None
    if name not in names:
        return None
    ref = (_PACKAGED_FIXTURES if fixtures_dir is None else Path(fixtures_dir)).joinpath(name)
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


def _sparse_pairs(p: list[int]) -> list[list[int]]:
    return [[e, v] for e, v in enumerate(p) if v]


def admit(params: PseudoSymmetricParams, *, max_level: int | None = None,
          closed_form: bool = False) -> NumericalSemigroup:
    """The semigroup of `params`; the one gate in front of every single-tuple run.

    Called before any stage, it refuses, in this order, a `max_level` (when
    given) outside 0..`semigroup.MAX_LEVEL`, generators that are not coprime,
    and, with `closed_form`, a tuple outside the closed form's regime.
    """
    if max_level is not None:
        check_level(max_level)
    S = params.semigroup
    if S.gcd() != 1:
        raise ParameterError(
            f"gcd of generators {S.generators} is {S.gcd()}, not 1; "
            "the tuple does not define a numerical semigroup"
        )
    if closed_form:
        toric.check_closed_form_regime(params)
    return S


def engine_basis(params: PseudoSymmetricParams,
                 generators: Sequence[Polynomial]) -> list[Polynomial]:
    """The local standard basis of f1..f5 (`generators`), graded by `params`'s n."""
    return stdbasis.standard_basis(generators, params.semigroup.generators)


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
    # H is the prefix sums of Q: it falls first where Q is first negative,
    # and stays at sum(Q) from deg(Q) on
    first_negative = next((e for e, v in enumerate(Q) if v < 0), None)
    return {
        "P": _sparse_pairs(P),
        "Q": _sparse_pairs(Q),
        "H": hilbert.hilbert_function(Q, max_level),
        "regularity_index": len(Q) - 1,
        "multiplicity": sum(Q),
        "non_decreasing": first_negative is None,
        "first_decrease_level": first_negative,
    }


def build_report(params: PseudoSymmetricParams, *, max_level: int | None = None,
                 fixtures_dir: str | Path | None = None) -> dict:
    """Run the full pipeline on one tuple and cross-check every route.

    The tuple's fixtures are read first, so a `fixtures_dir` that cannot be
    listed and a fixture that cannot be read or parsed are refused, like a
    tuple or `max_level` that `admit` refuses, before any stage runs.
    """
    fixture_P = load_fixture_numerator(params, fixtures_dir)
    fixture_basis = load_fixture_basis(params, fixtures_dir)
    S = admit(params, max_level=max_level)
    mismatches: list[str] = []
    report: dict = {"params": params.as_dict()}

    report["n"] = list(S.generators)
    report["conditions"] = check_conditions(params)

    generators = toric.toric_generators(params)
    engine = engine_basis(params, generators)
    report["basis"] = {
        "engine": [render_poly(f) for f in engine],
        "engine_count": len(engine),
    }
    _check_binomial_closure(engine, S, mismatches)

    closed_regime = _closed_regime(params)
    if closed_regime:
        _closed_form_section(params, generators, engine, report, mismatches)

    # Hilbert data always comes from the engine's leading ideal, which is
    # monomial even when a lowest form is a homogeneous binomial; the
    # numerator minimalizes the leads itself.
    P = hilbert.hilbert_numerator([g.lead for g in engine])
    report.update(hilbert_section(P, max_level))

    m = min(S.generators)
    if report["multiplicity"] != m:
        mismatches.append(f"multiplicity {report['multiplicity']} != smallest generator {m}")

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

    if fixture_P is not None:
        report["numerator_fixture_match"] = fixture_P == report["P"]
        if not report["numerator_fixture_match"]:
            mismatches.append("stored numerator fixture differs from computed one")
    if fixture_basis is not None:
        ok = frozenset(fixture_basis) == frozenset(engine)
        report["basis_fixture_match"] = ok
        if not ok:
            mismatches.append("stored basis fixture differs from engine basis")

    # Levels printed short of the regularity index would leave the plateau
    # unchecked, so the routes are compared up to it and printed up to N.
    H, regularity = report["H"], report["regularity_index"]
    if len(H) <= regularity:
        H = hilbert.hilbert_function(hilbert.second_series(P), regularity)
    oracle = hilbert_oracle(S, len(H) - 1)
    report["H_oracle"] = oracle[:len(report["H"])]
    report["oracle_match"] = oracle == H
    if not report["oracle_match"]:
        mismatches.append("Hilbert function differs from the semigroup oracle")
    else:
        _check_read_off_Q(report, oracle, m, mismatches)

    cohen_macaulay, witness = cm.cm_verdict(engine)
    report["cm"] = {
        "cohen_macaulay": cohen_macaulay,
        "witness": None if witness is None else _render_mono(witness),
    }

    report["mismatches"] = mismatches
    return report


def _check_read_off_Q(report: dict, oracle: list[int], m: int, mismatches: list[str]) -> None:
    """The facts `hilbert_section` reads off Q, read again off the oracle's H.

    With x = t^m, H(n) = len(M^n/M^(n+1)) <= len(M^n/xM^n) = m, equal exactly
    when M^(n+1) = xM^n, and then at every later level: H first reaches m at
    the regularity index, which `oracle` reaches; a value it lacks is a mismatch.
    """
    drop = next((n for n in range(1, len(oracle)) if oracle[n] < oracle[n - 1]), None)
    for key, value, route in (
            ("regularity_index", next((n for n, h in enumerate(oracle) if h == m), None),
             f"the first level where the oracle's H is {m}"),
            ("first_decrease_level", drop, "the oracle's first drop"),
            ("non_decreasing", drop is None, "whether the oracle's H never drops")):
        if report[key] != value:
            mismatches.append(f"{key} {report[key]} != {value}, {route}")


def _check_binomial_closure(basis, S: NumericalSemigroup, mismatches: list[str]) -> None:
    for f in basis:
        if f.tail is None:
            mismatches.append(f"non-binomial basis element {f!r}")
        elif not f.is_homogeneous(S.generators):
            mismatches.append(f"basis element {f!r} has unequal S-degrees")


def _closed_form_section(params, generators, engine, report, mismatches) -> None:
    predicted = toric.closed_form_basis(params, generators)
    strict = toric.compute_k(params, strict=True)
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
        "elements": [render_poly(f) for f in predicted.elements],
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
    ranges = [range(lo, hi + 1) for lo, hi in (getattr(config, key) for key in ALPHA_KEYS)]
    for values in product(*ranges):
        try:
            params = PseudoSymmetricParams(*values)
        except ParameterError:
            continue
        conds = params.conditions
        if not (conds["coprime"] and conds["c1"] and conds["c2"] and conds["c3"]):
            continue
        if config.require_c4 and not conds["c4"]:
            continue
        if config.require_sorted and not conds["sorted"]:
            continue
        if config.k_filter is not None and not (
                _closed_regime(params) and toric.compute_k(params) == config.k_filter):
            continue
        yield params


def run_sweep(config: SweepConfig) -> tuple[dict, list[dict]]:
    """Reports for every surviving tuple, plus an aggregate summary."""
    kept = list(iter_sweep(config))
    build = partial(build_report, max_level=config.max_level)
    workers = min(config.jobs, os.cpu_count() or 1, len(kept))
    if workers > 1:
        # About four chunks per worker: few round trips, still balanced when
        # tuples differ in cost.  map keeps the input order either way.
        chunksize = max(1, len(kept) // (4 * workers))
        # imported here: a single-tuple run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(build, kept, chunksize=chunksize))
        except OSError as exc:
            # a report raises no OSError, so this one comes from the pool
            raise ParameterError(f"--jobs {config.jobs}: cannot start worker processes: "
                                 f"{exc.strerror or exc}") from None
    else:
        reports = list(map(build, kept))

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
