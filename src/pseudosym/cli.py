"""Command-line front end.

Subcommands: gens, basis, hilbert, verify, sweep, oracle.  Exit codes are
scriptable: 0 success, 2 invalid input or a failed write to stdout, 3 a
verification mismatch (a finding, not a crash), 4 an internal consistency
failure.  Each single-tuple subcommand reports a slice of the facts
`pipeline` produces, and first passes the tuple through `pipeline.admit`,
which refuses input no stage can take (exit 2) before any stage runs.

Every option is declared once, in `OPTIONS`, with the subcommands that take
it.  A call that starts with a subcommand and is well formed (each option
given once, exactly as declared, as `--flag value`, `--flag=value` or a bare
flag) is read by `parse_args` with no parser built, from per-subcommand
tables that are built from `OPTIONS` once, at import.
Anything else goes to the full parser `build_parser` makes, every subcommand
with its options, which is the only producer of help, usage and error texts.

Output is deterministic for fixed inputs: JSON is emitted with sorted keys
and stable list orders, sweep reports come in lexicographic tuple order under
any --jobs, and timing is only included when --timing is passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import hilbert, pipeline, toric
from .errors import InconsistencyError, ParameterError
from .pipeline import SweepConfig, build_report, run_sweep
from .poly import render_poly
# perfbench/tracing.py patches cli.frobenius_and_gaps and cli.is_pseudo_symmetric by name;
# frobenius_and_gaps is bound only for it.
from .semigroup import (
    NumericalSemigroup,
    PseudoSymmetricParams,
    check_conditions,
    frobenius,
    frobenius_and_gaps,  # noqa: F401
    genus,
    hilbert_oracle,
    is_pseudo_symmetric,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4


# How json spells each exact scalar type: str through its C escaper, the rest
# as its encoder writes them.  Any other scalar, a float say, goes through
# `json.dumps`, whose per-call encoder set-up costs more than these lookups.
_SCALARS = {
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _dump(obj, indent: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte; dict keys are str.

    With an indent `json` encodes through pure-Python generators; this joins
    strings instead.  A dict's scalar values, a list of one scalar type (H,
    the basis lines) and a list of int pairs (the [exponent, coefficient]
    pairs of P and Q, one f-string per pair) are written in place; only
    other containers recurse.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            f"{_SCALARS[str](key)}: "
            f"{_dump(value, inner) if (scalar := _SCALARS.get(type(value))) is None else scalar(value)}"
            for key, value in sorted(obj.items())
        ]) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        kind = type(obj[0])
        if kind in _SCALARS and all([type(item) is kind for item in obj]):
            # a run of one scalar type: one lookup
            items = map(_SCALARS[kind], obj)
        elif kind is list and all([type(item) is list and len(item) == 2
                                   and type(item[0]) is int and type(item[1]) is int
                                   for item in obj]):
            # [exponent, coefficient] pairs, one f-string each
            pad = inner + "  "
            items = [f"[{pad}{item[0]!r},{pad}{item[1]!r}{inner}]" for item in obj]
        else:
            items = [_dump(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _SCALARS.get(type(obj), json.dumps)(obj)


def _emit(out: dict, fmt: str) -> None:
    if fmt == "text":
        for key, value in sorted(out.items()):
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    else:
        print(_dump(out))


def _params_from_args(args) -> PseudoSymmetricParams:
    return PseudoSymmetricParams(**{key: getattr(args, key) for key in pipeline.ALPHA_KEYS})


def _semigroup_facts(S: NumericalSemigroup) -> dict:
    """The facts of the admitted `S` that `gens` and `oracle` both report.

    All three are read from `S.apery`: the genus by Selmer's formula, so no
    gap is listed.
    """
    return {
        "n": list(S.generators),
        "frobenius": frobenius(S),
        "genus": genus(S),
        "pseudo_symmetric": is_pseudo_symmetric(S),
    }


def cmd_gens(args) -> int:
    params = _params_from_args(args)
    out = _semigroup_facts(pipeline.admit(params))
    out["conditions"] = check_conditions(params)
    _emit(out, args.fmt)
    return EXIT_OK


def cmd_basis(args) -> int:
    params = _params_from_args(args)
    pipeline.admit(params, closed_form=args.mode != "engine")
    generators = toric.toric_generators(params)
    summary: dict = {}
    lines: list[str] = []

    engine = None
    if args.mode in ("engine", "both"):
        engine = pipeline.engine_basis(params, generators)
        lines = [render_poly(f) for f in engine]
        summary["count"] = len(engine)
    if args.mode in ("closed", "both"):
        predicted = toric.closed_form_basis(params, generators)
        summary["k_nonstrict"] = predicted.k
        summary["k_strict"] = toric.compute_k(params, strict=True)
        if engine is None:
            lines = [render_poly(f) for f in predicted.elements]
            summary["count"] = len(predicted.elements)
        else:
            summary["match"] = frozenset(predicted.elements) == frozenset(engine)

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
    pipeline.admit(params, max_level=args.max_level, closed_form=args.mode != "bayer")
    out: dict = {}
    P_engine = P_closed = None
    if args.mode in ("bayer", "both"):
        # the numerator minimalizes the engine basis's leads itself
        engine = pipeline.engine_basis(params, toric.toric_generators(params))
        P_engine = hilbert.hilbert_numerator([g.lead for g in engine])
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
    started = time.perf_counter()
    report = build_report(params, max_level=args.max_level, fixtures_dir=args.fixtures)
    if args.timing:
        report["timing_seconds"] = round(time.perf_counter() - started, 6)
    _emit(report, args.fmt)
    return EXIT_MISMATCH if report["mismatches"] else EXIT_OK


def cmd_oracle(args) -> int:
    S = pipeline.admit(_params_from_args(args), max_level=args.max_level)
    out = _semigroup_facts(S)
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
    if not path:
        # open("") fails with an error that names no path
        raise ParameterError("--out: expected a file path, got an empty value")
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
    if args.out is not None:
        # append nothing: fails on a bad path before any tuple is computed
        _write_out(args.out, "", "a")
    summary, reports = run_sweep(config)
    payload = "\n".join(json.dumps(r, sort_keys=True) for r in reports)
    if args.out is not None:
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
OPTIONS = (
    ("--json", SINGLE_TUPLE, {"dest": "fmt", "action": "store_const", "const": "json"}),
    ("--text", SINGLE_TUPLE, {"dest": "fmt", "action": "store_const", "const": "text"}),
    ("--engine", ("basis",), {"dest": "mode", "action": "store_const", "const": "engine"}),
    ("--bayer", ("hilbert",), {"dest": "mode", "action": "store_const", "const": "bayer"}),
    ("--closed-form", ("basis", "hilbert"),
     {"dest": "mode", "action": "store_const", "const": "closed"}),
    ("--verify", ("basis",), {"dest": "mode", "action": "store_const", "const": "both"}),
    ("--both", ("hilbert",), {"dest": "mode", "action": "store_const", "const": "both"}),
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
# The flags that exclude each other.
EXCLUSIVE = ("--json", "--text")


def _alpha_type(name: str):
    # sweep takes LO:HI ranges and falls back on SweepConfig's
    return None if name == "sweep" else int


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Add subcommand `name`'s parameters, its `OPTIONS` and its defaults."""
    for key in pipeline.ALPHA_KEYS:
        parser.add_argument(f"--{key}", type=_alpha_type(name), required=name != "sweep")
    fmt = parser.add_mutually_exclusive_group() if name in SINGLE_TUPLE else parser
    for flag, commands, kwargs in OPTIONS:
        if name in commands:
            (fmt if flag in EXCLUSIVE else parser).add_argument(flag, **kwargs)
    parser.set_defaults(**COMMANDS[name][2])


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help written to stdout is flushed and a failed write raises.

    argparse drops the `OSError`; raised, it reaches `main`, which handles
    it as it handles a failed write of any other output.  The flush makes a
    buffered stdout fail here too, before argparse exits.  Subcommand
    parsers are made with the class of their parent, so they do the same.
    """

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand and its options."""
    parser = _Parser(
        prog="pseudosym",
        description=(
            "4-generated pseudo-symmetric numerical semigroups: generators, "
            "standard bases, tangent cones, Hilbert series, and cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def _argv_table(command: str) -> tuple[dict, dict, dict]:
    """`command`'s starting values, its valued flags and its bare flags, read from `OPTIONS`.

    A valued flag maps to its dest and the converter of its value, a bare
    one to its dest and the constant it stores.
    """
    values: dict = dict.fromkeys(pipeline.ALPHA_KEYS)
    valued = {f"--{key}": (key, _alpha_type(command)) for key in pipeline.ALPHA_KEYS}
    bare: dict[str, tuple[str, object]] = {}
    for flag, commands, kwargs in OPTIONS:
        if command in commands:
            # argparse's dest for a flag without one; store_true stores True over False
            dest = kwargs.get("dest", flag[2:].replace("-", "_"))
            action = kwargs.get("action")
            if action is None:
                valued[flag] = (dest, kwargs.get("type"))
            else:
                bare[flag] = (dest, kwargs.get("const", True))
            values.setdefault(dest, kwargs.get("default", False if action == "store_true" else None))
    values.update(COMMANDS[command][2])
    return values, valued, bare


# Built once, at import: `_read_argv` copies the starting values on each call.
_ARGV_TABLES = {command: _argv_table(command) for command in COMMANDS}
_ALPHA_FLAGS = tuple(f"--{key}" for key in pipeline.ALPHA_KEYS)


def _read_argv(command: str, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace of `command` followed by well-formed `tokens`; None for any other form.

    Well formed: each token is a flag `command` takes, spelled in full and
    given once, either bare (a constant or true) or with a value that is
    not empty and does not start with "-", as the next token or after "=";
    typed values convert; every required parameter is present; --json and
    --text not both.  On those argvs `build_parser()` gives the same
    namespace, which the differential test in the suite checks.
    """
    defaults, valued, bare = _ARGV_TABLES[command]
    values = dict(defaults)

    seen = set()
    rest = iter(tokens)
    for token in rest:
        flag, eq, value = token.partition("=")
        if flag in seen:
            return None
        seen.add(flag)
        if flag in bare and not eq:
            dest, const = bare[flag]
            values[dest] = const
        elif flag in valued:
            if not eq:
                value = next(rest, "")
            if value[:1] in ("", "-"):
                return None
            dest, convert = valued[flag]
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    return None
            values[dest] = value
        else:
            return None
    if command != "sweep" and not all(flag in seen for flag in _ALPHA_FLAGS):
        return None
    if all(flag in seen for flag in EXCLUSIVE):
        return None
    return argparse.Namespace(command=command, **values)


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace `build_parser` would give, read without a parser when argv is well formed.

    A well-formed argv starts with a command (see `_read_argv`).  Any other
    goes to `build_parser()`, which gives the same namespace or prints the
    help or error text and exits.
    """
    if argv and argv[0] in COMMANDS:
        args = _read_argv(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
        code = COMMANDS[args.command][1](args)
        sys.stdout.flush()
        return code
    except ParameterError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except (OverflowError, MemoryError) as exc:
        print(f"input too large: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INVALID
    except InconsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        # A failed write to stdout.  Pointing fd 1 at the null device lets
        # the interpreter's flush at exit drop what is still buffered, with
        # no second error; a closed pipe ends quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"cannot write output: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
