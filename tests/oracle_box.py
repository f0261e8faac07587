"""The bitmap Hilbert oracle against the per-level sweep, on a whole box.

`semigroup.hilbert_oracle` shifts one bitmap of the elements of order >= n
per level and fills the levels after its plateau with m.
`reference.hilbert_levels` is an independent route: every residue minimum
at every level, plateau or not.  For one tuple, `oracle_differs` runs the
sweep up to its plateau (the first level where H = m, after which H stays m)
and compares the two routes up to the plateau + 5.

`facts_fail` checks the other semigroup facts of one tuple: every coprime
tuple of the family is pseudo-symmetric, so `is_pseudo_symmetric` must hold,
and the gap count of `frobenius_and_gaps`, `genus` and (F + 2) / 2 must agree.

Run as a script, it checks both on every coprime tuple of `seed_engine.py`'s
box (alpha1..3 in 2..10, alpha4 in 2..5, alpha21 in 1..9, 10,189 tuples),
prints a one-line JSON summary (the tuple count, the largest plateau seen,
each differing tuple and the count of tuples whose facts fail) and exits 1
on any difference or failure:

    PYTHONPATH=src python tests/oracle_box.py --jobs 2
"""

import argparse
import json
import multiprocessing
import os
import sys
from itertools import islice, takewhile

from pseudosym.semigroup import (
    construct_generators,
    frobenius_and_gaps,
    genus,
    hilbert_oracle,
    is_pseudo_symmetric,
)

from conftest import engine_box
from reference import hilbert_levels
from seed_engine import CLOSURE_BOX_RANGES

MARGIN = 5


def oracle_differs(params) -> tuple[int, bool]:
    """The sweep's plateau level, and whether the oracle differs from the sweep up to it + 5."""
    S = construct_generators(params)
    m = min(S.generators)
    levels = hilbert_levels(S.generators)
    # H never exceeds m, and the first level where it reaches m is the plateau.
    sweep = [*takewhile(lambda h: h < m, levels), m, *islice(levels, MARGIN)]
    plateau = len(sweep) - 1 - MARGIN
    return plateau, hilbert_oracle(S, plateau + MARGIN) != sweep


def facts_fail(params) -> bool:
    """Whether the tuple is not pseudo-symmetric or its gap count, genus and (F + 2) / 2 disagree."""
    S = construct_generators(params)
    frobenius, gaps = frobenius_and_gaps(S)
    return not (is_pseudo_symmetric(S) and len(gaps) == genus(S) == (frobenius + 2) / 2)


def check(params) -> tuple[int, bool, bool]:
    return (*oracle_differs(params), facts_fail(params))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="The Hilbert oracle against the per-level sweep, and the semigroup facts, "
                    "on the 10,189-tuple box.")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error(f"--jobs must be between 1 and the CPU count, got {args.jobs}")
    box = engine_box(CLOSURE_BOX_RANGES)
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            results = pool.map(check, box, chunksize=64)
    else:
        results = list(map(check, box))
    differing = [list(p.as_dict().values()) for p, (_, bad, _) in zip(box, results) if bad]
    facts_failing = sum(failed for _, _, failed in results)
    print(json.dumps({"total": len(box), "largest_plateau": max(plateau for plateau, _, _ in results),
                      "differing": differing, "facts_failing": facts_failing}))
    return 1 if differing or facts_failing else 0


if __name__ == "__main__":
    sys.exit(main())
