"""Command-line front end.

Subcommands: gens, basis, hilbert, verify, sweep, oracle.  Exit codes are
scriptable: 0 success, 2 invalid input, 3 a verification mismatch (a finding,
not a crash), 4 an internal consistency failure.  Each single-tuple
subcommand reports a slice of the facts `pipeline` produces, and first refuses
a tuple whose generators are not coprime (exit 2).

Every option is declared once, in `OPTIONS`, with the subcommands that take
it.  A call that starts with a subcommand builds one parser, with that
subcommand's options only (`parse_args`).  Anything else, and a call that
leaves arguments over, goes to `build_parser`, which names every subcommand
for the top-level help, the invalid-choice and the unrecognized-arguments
errors.

Output is deterministic for fixed inputs: JSON is emitted with sorted keys
and stable list orders, sweep reports come in lexicographic tuple order under
any --jobs, and timing is only included when --timing is passed.
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
        **{key: _parse_range(key, text) for key in pipeline.ALPHA_KEYS
           if (text := getattr(args, key)) is not None},
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


# Each subcommand's help line, handler, and the defaults its options start from.
COMMANDS = {
    "gens": ("generators, conditions, Frobenius, genus", cmd_gens, {"fmt": "json"}),
    "basis": ("standard basis (engine and/or closed form)", cmd_basis,
              {"fmt": "text", "mode": "engine"}),
    "hilbert": ("Hilbert numerator, second series, H(n)", cmd_hilbert,
                {"fmt": "json", "mode": "both"}),
    "verify": ("run every cross-check on one tuple", cmd_verify, {"fmt": "json"}),
    "oracle": ("brute-force semigroup oracle", cmd_oracle, {"fmt": "json", "max_level": 10}),
    "sweep": ("run the pipeline over parameter ranges", cmd_sweep, {}),
}
SINGLE_TUPLE = ("gens", "basis", "hilbert", "verify", "oracle")

# Every option after the five parameters, declared once and in help order:
# the flag, the subcommands that take it, and its add_argument keywords.
# --json and --text exclude each other.
OPTIONS = (
    ("--json", SINGLE_TUPLE, {"dest": "fmt", "action": "store_const", "const": "json"}),
    ("--text", SINGLE_TUPLE, {"dest": "fmt", "action": "store_const", "const": "text"}),
    ("--engine", ("basis",), {"dest": "mode", "action": "store_const", "const": "engine"}),
    ("--bayer", ("hilbert",), {"dest": "mode", "action": "store_const", "const": "bayer"}),
    ("--closed-form", ("basis", "hilbert"),
     {"dest": "mode", "action": "store_const", "const": "closed"}),
    ("--verify", ("basis",), {"dest": "mode", "action": "store_const", "const": "both"}),
    ("--both", ("hilbert",), {"dest": "mode", "action": "store_const", "const": "both"}),
    ("--k-strict", ("basis", "verify"), {"action": "store_true"}),
    ("--k", ("sweep",), {"type": int, "help": "keep only tuples with this k"}),
    ("--allow-unsorted", ("sweep",), {"action": "store_true"}),
    ("--allow-small-alpha2", ("sweep",),
     {"action": "store_true", "help": "keep tuples with alpha2 <= alpha21 + 1"}),
    ("--jobs", ("sweep",), {"type": int, "default": 1}),
    ("--max-level", ("hilbert", "verify", "oracle", "sweep"), {"type": int}),
    ("--out", ("sweep",), {}),
    ("--fixtures", ("verify",),
     {"help": "fixture directory (defaults to the packaged fixtures)"}),
    ("--timing", ("verify",), {"action": "store_true"}),
)


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Add subcommand `name`'s parameters, its `OPTIONS` and its defaults."""
    for key in pipeline.ALPHA_KEYS:
        # sweep takes LO:HI ranges and falls back on SweepConfig's
        parser.add_argument(f"--{key}", type=None if name == "sweep" else int,
                            required=name != "sweep")
    fmt = parser.add_mutually_exclusive_group() if name in SINGLE_TUPLE else parser
    for flag, commands, kwargs in OPTIONS:
        if name in commands:
            (fmt if flag in ("--json", "--text") else parser).add_argument(flag, **kwargs)
    parser.set_defaults(**COMMANDS[name][2])


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand named and only `command`'s options added.

    The other subcommands stay bare, which is all the top-level help and the
    invalid-choice error read.
    """
    parser = argparse.ArgumentParser(
        prog="pseudosym",
        description=(
            "4-generated pseudo-symmetric numerical semigroups: generators, "
            "standard bases, tangent cones, Hilbert series, and cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            _add_options(p, name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace `build_parser` would give, from one parser when argv starts with a command.

    That parser is the subparser `build_parser` makes for the command: the
    same prog, options and defaults, so the same help and error texts.  No
    command, an unknown one, options before it, or arguments it leaves over
    go to `build_parser`, whose top-level parser prints those errors.
    """
    command = argv[0] if argv else None
    if command in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"pseudosym {command}")
        _add_options(parser, command)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = command
            return args
    # the subcommand is the first word that is not an option, as argparse reads it
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    return build_parser(command).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    try:
        return COMMANDS[args.command][1](args)
    except (ParameterError, UnsupportedParametersError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except InconsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
