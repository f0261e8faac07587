"""The reducer scans as they were before leads and ecarts were stored.

`seed_nf_mora` is Mora's weak normal form as the engine first ran it: every
reducer is tested with `divides`, leads and ecarts are read off the terms,
and h joins the reducers when the chosen ecart exceeds its own.  On input
that is homogeneous for positive weights an appended h can never be chosen:
every h of one normal form has the same weighted degree, and of two distinct
monomials of one positive degree neither divides the other.  So
`stdbasis.nf_mora`, which keeps no such list, must return the same normal
form, and `closure_differs` checks that through the whole basis loop.

Run as a script, it compares the closures on every coprime tuple with
alpha1..3 in 2..10, alpha4 in 2..5 and alpha21 in 1..9 (10,189 tuples),
prints a one-line JSON summary and exits 1 on any difference:

    PYTHONPATH=src python tests/seed_engine.py --jobs 2
"""

import argparse
import json
import multiprocessing
import os
import sys
from operator import le

from pseudosym import stdbasis
from pseudosym.poly import reduce_step
from pseudosym.toric import toric_generators

from conftest import engine_box

CLOSURE_BOX_RANGES = (range(2, 11), range(2, 11), range(2, 11), range(2, 6), range(1, 10))


def divides(a, b):
    """True iff the monomial with exponents a divides the one with exponents b."""
    return all(map(le, a, b))


def seed_ecart(f):
    return max(sum(t.mono) for t in f.terms) - sum(f.terms[0].mono)


def seed_nf_mora(h, basis):
    reducers = list(basis)
    while not h.is_zero:
        lm = h.terms[0].mono
        chosen = None
        chosen_ecart = -1
        for g in reducers:
            if divides(g.terms[0].mono, lm):
                e = seed_ecart(g)
                if chosen is None or e < chosen_ecart:
                    chosen, chosen_ecart = g, e
        if chosen is None:
            break
        if chosen_ecart > seed_ecart(h):
            reducers.append(h)
        h = reduce_step(h, chosen)
    return h


def seed_nf_global(h, basis):
    while not h.is_zero:
        for g in basis:
            if divides(g.terms[0].mono, h.terms[0].mono):
                h = reduce_step(h, g)
                break
        else:
            return h
    return h


def closure_differs(params) -> bool:
    """True iff the basis loop's closure, element by element, depends on the normal form."""
    gens = toric_generators(params).generators
    new = stdbasis._closure(gens, stdbasis.nf_mora)
    old = stdbasis._closure(gens, seed_nf_mora)
    return [g.terms for g in new] != [g.terms for g in old]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closure identity of nf_mora and seed_nf_mora on the 10,189-tuple box.")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error(f"--jobs must be between 1 and the CPU count, got {args.jobs}")
    box = engine_box(CLOSURE_BOX_RANGES)
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            flags = pool.map(closure_differs, box, chunksize=64)
    else:
        flags = list(map(closure_differs, box))
    differing = [list(p.as_dict().values()) for p, bad in zip(box, flags) if bad]
    print(json.dumps({"total": len(box), "differing": differing}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
