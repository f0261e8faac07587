"""Command-line front end.

Subcommands: gens, basis, hilbert, verify, sweep, oracle.  Exit codes are
scriptable: 0 success, 2 invalid input, 3 a verification mismatch (a finding,
not a crash), 4 an internal consistency failure.  Each single-tuple
subcommand reports a slice of the facts `pipeline` produces, and first refuses
a tuple whose generators are not coprime (exit 2).

Output is deterministic for fixed inputs: JSON is emitted with sorted keys
and stable list orders, and timing is only included when --timing is passed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hilbert, pipeline, stdbasis, toric
from .errors import InconsistencyError, ParameterError, UnsupportedParametersError
from .pipeline import SweepConfig, build_report, run_sweep
from .semigroup import (
    NumericalSemigroup,
    PseudoSymmetricParams,
    check_conditions,
    frobenius_and_gaps,
    hilbert_oracle,
    is_pseudo_symmetric,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(out: dict, fmt: str) -> None:
    if fmt == "text":
        for key, value in sorted(out.items()):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    else:
        print(_dump(out))


def _params_from_args(args) -> PseudoSymmetricParams:
    return PseudoSymmetricParams(**{key: getattr(args, key) for key in pipeline.ALPHA_KEYS})


def _add_param_args(parser: argparse.ArgumentParser) -> None:
    for key in pipeline.ALPHA_KEYS:
        parser.add_argument(f"--{key}", type=int, required=True)


def _add_format_args(parser: argparse.ArgumentParser, default: str) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", dest="fmt", action="store_const", const="json")
    group.add_argument("--text", dest="fmt", action="store_const", const="text")
    parser.set_defaults(fmt=default)


def _semigroup_facts(params: PseudoSymmetricParams) -> tuple[NumericalSemigroup, dict]:
    """The checked semigroup plus the facts `gens` and `oracle` both report."""
    S = pipeline.numerical_semigroup(params)
    frobenius, gaps = frobenius_and_gaps(S)
    return S, {
        "n": list(S.generators),
        "frobenius": frobenius,
        "genus": len(gaps),
        "pseudo_symmetric": is_pseudo_symmetric(S),
    }


def cmd_gens(args) -> int:
    params = _params_from_args(args)
    _, out = _semigroup_facts(params)
    out["conditions"] = check_conditions(params)
    _emit(out, args.fmt)
    return EXIT_OK


def cmd_basis(args) -> int:
    params = _params_from_args(args)
    pipeline.numerical_semigroup(params)
    summary: dict = {}
    lines: list[str] = []

    engine = None
    if args.mode in ("engine", "both"):
        engine = pipeline.engine_basis(params)
        lines = pipeline.render_basis(engine)
        summary["count"] = len(engine)
    if args.mode in ("closed", "both"):
        predicted = toric.closed_form_basis(params, strict=args.k_strict)
        ks = pipeline.k_readings(params)
        summary["k"] = predicted.k
        summary["k_strict_mode"] = args.k_strict
        summary["k_strict"] = ks["strict"]
        summary["k_nonstrict"] = ks["nonstrict"]
        if engine is None:
            lines = pipeline.render_basis(predicted.elements)
            summary["count"] = len(predicted.elements)
        else:
            summary["match"] = (
                pipeline.basis_set(predicted.elements) == pipeline.basis_set(engine)
            )

    if args.fmt == "json":
        summary["elements"] = lines
        print(_dump(summary))
    else:
        for line in lines:
            print(line)
        print(json.dumps(summary, sort_keys=True))
    if summary.get("match") is False:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_hilbert(args) -> int:
    params = _params_from_args(args)
    pipeline.numerical_semigroup(params)
    out: dict = {}
    P_engine = P_closed = None
    if args.mode in ("bayer", "both"):
        lead = stdbasis.leading_ideal(pipeline.engine_basis(params))
        P_engine = hilbert.hilbert_numerator(lead)
    if args.mode in ("closed", "both"):
        out["k"] = toric.compute_k(params)
        P_closed = hilbert.closed_form_numerator(params, out["k"])
    out.update(pipeline.hilbert_section(P_closed if P_engine is None else P_engine, args.max_level))
    if args.mode == "both":
        out["match"] = P_engine == P_closed
    _emit(out, args.fmt)
    if out.get("match") is False:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _params_from_args(args)
    report = build_report(
        params,
        k_strict=args.k_strict,
        max_level=args.max_level,
        fixtures_dir=args.fixtures,
        timing=args.timing,
    )
    _emit(report, args.fmt)
    return EXIT_MISMATCH if report["mismatches"] else EXIT_OK


def cmd_oracle(args) -> int:
    S, out = _semigroup_facts(_params_from_args(args))
    out["H_oracle"] = hilbert_oracle(S, args.max_level)
    _emit(out, args.fmt)
    return EXIT_OK


def _parse_range(flag: str, text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise ParameterError(f"--{flag}: expected LO:HI or an integer, got {text!r}") from None


def _write_out(path: str, text: str, mode: str) -> None:
    try:
        with open(path, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise ParameterError(f"--out: cannot write {path}: {exc.strerror or exc}") from None


def cmd_sweep(args) -> int:
    config = SweepConfig(
        **{key: _parse_range(key, getattr(args, key)) for key in pipeline.ALPHA_KEYS},
        require_sorted=not args.allow_unsorted,
        require_c4=not args.allow_small_alpha2,
        k_filter=args.k,
        jobs=args.jobs,
        max_level=args.max_level,
    )
    if args.out:
        # append nothing: fails on a bad path before any tuple is computed
        _write_out(args.out, "", "a")
    summary, reports = run_sweep(config)
    if args.sorted:
        reports.sort(key=lambda r: tuple(r["params"][key] for key in pipeline.ALPHA_KEYS))
    payload = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    if args.out:
        _write_out(args.out, payload + ("\n" if payload else ""), "w")
    elif payload:
        print(payload)
    # summary last, one line, so stdout stays line-delimited JSON throughout
    print(json.dumps(summary, sort_keys=True))
    if summary["mismatches"]:
        return EXIT_MISMATCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pseudosym",
        description=(
            "4-generated pseudo-symmetric numerical semigroups: generators, "
            "standard bases, tangent cones, Hilbert series, and cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gens", help="generators, conditions, Frobenius, genus")
    _add_param_args(p)
    _add_format_args(p, "json")
    p.set_defaults(func=cmd_gens)

    p = sub.add_parser("basis", help="standard basis (engine and/or closed form)")
    _add_param_args(p)
    _add_format_args(p, "text")
    p.add_argument("--mode", choices=("engine", "closed", "both"), default="engine")
    p.add_argument("--engine", dest="mode", action="store_const", const="engine")
    p.add_argument("--closed-form", dest="mode", action="store_const", const="closed")
    p.add_argument("--verify", dest="mode", action="store_const", const="both")
    p.add_argument("--k-strict", action="store_true")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("hilbert", help="Hilbert numerator, second series, H(n)")
    _add_param_args(p)
    _add_format_args(p, "json")
    p.add_argument("--mode", choices=("bayer", "closed", "both"), default="both")
    p.add_argument("--bayer", dest="mode", action="store_const", const="bayer")
    p.add_argument("--closed-form", dest="mode", action="store_const", const="closed")
    p.add_argument("--both", dest="mode", action="store_const", const="both")
    p.add_argument("--max-level", type=int, default=None)
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("verify", help="run every cross-check on one tuple")
    _add_param_args(p)
    _add_format_args(p, "json")
    p.add_argument("--k-strict", action="store_true")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--fixtures", type=str, default=None,
                   help="fixture directory (defaults to the packaged fixtures)")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force semigroup oracle")
    _add_param_args(p)
    _add_format_args(p, "json")
    p.add_argument("--max-level", type=int, default=10)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="run the pipeline over parameter ranges")
    for key, default in (
        ("--alpha1", "2:8"),
        ("--alpha2", "2:8"),
        ("--alpha3", "2:8"),
        ("--alpha4", "2"),
        ("--alpha21", "1:7"),
    ):
        p.add_argument(key, type=str, default=default, dest=key.lstrip("-"))
    p.add_argument("--k", type=int, default=None, help="keep only tuples with this k")
    p.add_argument("--allow-unsorted", action="store_true")
    p.add_argument("--allow-small-alpha2", action="store_true",
                   help="keep tuples with alpha2 <= alpha21 + 1")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--sorted", action="store_true",
                   help="canonicalize report order by parameter tuple")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, UnsupportedParametersError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except InconsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
