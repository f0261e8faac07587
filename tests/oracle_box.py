"""The bitmap Hilbert oracle against the per-level sweep, on a whole box.

`semigroup.hilbert_oracle` shifts one bitmap of the elements of order >= n
per level, over a window 0..F + m that it reads off its own bitmap of S,
and fills the levels after its plateau with m.  `reference.hilbert_levels`
is an independent route: every residue minimum at every level, plateau or
not.  For one tuple, `oracle_differs` runs the sweep up to its plateau (the
first level where H = m, after which H stays m) and compares the two routes
up to the plateau + 5.  It also reports whether the oracle, called on a
fresh semigroup, derived `S.apery`: it must not, so that the oracle and the
Apery-set facts below stay independent routes.

`facts_fail` checks the other semigroup facts of one tuple: every coprime
tuple of the family is pseudo-symmetric, so `is_pseudo_symmetric` must hold,
and the gap count of `frobenius_and_gaps`, `genus` and (F + 2) / 2 must agree.
`apery_fails` checks the kernel they all read: `S.apery`, built by the
round-robin recurrence, against `reference.apery_dijkstra`, a shortest-path
search over the residues.

Run as a script, it checks all three on every coprime tuple of
`seed_engine.py`'s box (alpha1..3 in 2..10, alpha4 in 2..5, alpha21 in 1..9,
10,189 tuples), prints a one-line JSON summary (the tuple count, the largest
plateau seen, each differing tuple, oracle_reads_apery, the count of tuples
where the oracle derived `S.apery`, the count of tuples whose facts fail and
the count whose Apery set fails) and exits 1 on any difference, read or
failure:

    PYTHONPATH=src python tests/oracle_box.py --jobs 2
"""

import json
import sys
from itertools import islice, takewhile

from pseudosym.semigroup import (
    frobenius_and_gaps,
    genus,
    hilbert_oracle,
    is_pseudo_symmetric,
)

from conftest import engine_box, map_box
from reference import apery_dijkstra, hilbert_levels
from seed_engine import CLOSURE_BOX_RANGES

MARGIN = 5


def oracle_differs(params) -> tuple[int, bool, bool]:
    """The sweep's plateau level, whether the oracle differs from the sweep up to it + 5,
    and whether the oracle derived `S.apery`."""
    S = params.semigroup
    m = min(S.generators)
    levels = hilbert_levels(S.generators)
    # H never exceeds m, and the first level where it reaches m is the plateau.
    sweep = [*takewhile(lambda h: h < m, levels), m, *islice(levels, MARGIN)]
    plateau = len(sweep) - 1 - MARGIN
    return plateau, hilbert_oracle(S, plateau + MARGIN) != sweep, "apery" in vars(S)


def facts_fail(params) -> bool:
    """Whether the tuple is not pseudo-symmetric or its gap count, genus and (F + 2) / 2 disagree."""
    S = params.semigroup
    frobenius, gaps = frobenius_and_gaps(S)
    return not (is_pseudo_symmetric(S) and len(gaps) == genus(S) == (frobenius + 2) / 2)


def apery_fails(params) -> bool:
    """Whether `S.apery` differs from the Dijkstra route's Apery set."""
    S = params.semigroup
    return S.apery != apery_dijkstra(S.generators)


def check(params) -> tuple[int, bool, bool, bool, bool]:
    return (*oracle_differs(params), facts_fail(params), apery_fails(params))


def main(argv=None) -> int:
    box, results = map_box(
        "The Hilbert oracle against the per-level sweep, the semigroup facts and the Apery set, "
        "on the 10,189-tuple box.",
        lambda: engine_box(CLOSURE_BOX_RANGES), check, 64, argv)
    differing = [list(p.as_dict().values()) for p, (_, bad, *_) in zip(box, results) if bad]
    oracle_reads_apery = sum(read for _, _, read, _, _ in results)
    facts_failing = sum(failed for _, _, _, failed, _ in results)
    apery_failing = sum(failed for *_, failed in results)
    print(json.dumps({"total": len(box), "largest_plateau": max(plateau for plateau, *_ in results),
                      "differing": differing, "oracle_reads_apery": oracle_reads_apery,
                      "facts_failing": facts_failing, "apery_failing": apery_failing}))
    return 1 if differing or oracle_reads_apery or facts_failing or apery_failing else 0


if __name__ == "__main__":
    sys.exit(main())
