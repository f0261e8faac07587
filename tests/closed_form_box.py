"""The README lemma's facts (i)-(iii) on every closed-form regime tuple of a box.

For a regime tuple (alpha4 = 2, conditions (1)-(4), sorted coprime
generators) the lemma says:

* (i) a1 + a21 >= a2 + 2, so condition (6) is strict and f6 leads with
  X2^a2*X3;
* (ii) k = a3 satisfies even the strict k inequality, so both readings of
  k exist and are at most a3 (`toric.compute_k` must return the readings
  `reference.tail_length` finds with no regime check);
* (iii) the tail of the non-strict length k leads as the closed form
  presumes (the X1-X3 monomial for j < k, the X2 power at j = k), so
  `closed_form_basis` builds it on the tuple's `toric_generators` system;
  a tail of the strict length breaks that pattern exactly when the two
  readings differ.  The leads are computed here from the local order's
  rule, not read off `closed_form_basis`.

`check_tuple` names the facts that fail on one tuple.  Run as a script, it
checks every regime tuple with alphas <= 40 (104,590 tuples), prints a
one-line JSON summary (the tuple count, the number of tuples where the
readings differ, and each failing tuple with the facts it fails) and exits
1 on any failure:

    PYTHONPATH=src python tests/closed_form_box.py --jobs 2
"""

import argparse
import json
import multiprocessing
import os
import sys

from pseudosym.errors import InconsistencyError
from pseudosym.semigroup import PseudoSymmetricParams, check_conditions
from pseudosym.toric import closed_form_basis, compute_k, tail_monomials, toric_generators

from reference import tail_length

TOP = 40


def regime_tuples(top: int) -> list[PseudoSymmetricParams]:
    """The regime tuples with every alpha <= top, in lexicographic order.

    The loops already bound a3 by c2 (a3 < a1 - a21) and a2 by c4
    (a2 > a21 + 1); c1 and c3 hold on every such tuple.
    """
    box = []
    for a1 in range(3, top + 1):
        for a2 in range(3, top + 1):
            for a3 in range(2, top + 1):
                for a21 in range(1, min(a1 - a3, a2 - 1)):
                    params = PseudoSymmetricParams(a1, a2, a3, 2, a21)
                    conds = check_conditions(params)
                    if all(conds[c] for c in ("c1", "c2", "c3", "c4", "sorted", "coprime")):
                        box.append(params)
    return box


def _leads(a, b) -> bool:
    """Whether monomial `a` leads `b` in the local order.

    The lead has the lower total degree; on a tie, the smaller exponent at
    the last variable where the two differ.
    """
    if sum(a) != sum(b):
        return sum(a) < sum(b)
    return next((x < y for x, y in zip(reversed(a), reversed(b)) if x != y), False)


def _breaks_pattern(params, k: int) -> bool:
    """Whether a tail of length k leads otherwise than the closed form presumes."""
    return any(_leads(*tail_monomials(params, j)) != (j < k) for j in range(1, k + 1))


def _builds(params) -> bool:
    try:
        closed_form_basis(toric_generators(params))
    except InconsistencyError:
        return False
    return True


def check_tuple(params) -> tuple[list[str], bool]:
    """The facts of (i)-(iii) that fail on `params`, and whether the two readings of k differ."""
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    k, k_strict = tail_length(params), tail_length(params, strict=True)
    differ = k != k_strict
    failed = []
    if a1 + a21 < a2 + 2:
        failed.append("i")
    if not (a3 * (a2 + 1) < (a3 - 1) * a1 + (a3 + 1) * a21 + a3
            and (compute_k(params), compute_k(params, strict=True)) == (k, k_strict)):
        failed.append("ii")
    if _breaks_pattern(params, k) or _breaks_pattern(params, k_strict) != differ or not _builds(params):
        failed.append("iii")
    return failed, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=f"The closed-form lemma on every regime tuple with alphas <= {TOP}.")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error(f"--jobs must be between 1 and the CPU count, got {args.jobs}")
    box = regime_tuples(TOP)
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            results = pool.map(check_tuple, box, chunksize=256)
    else:
        results = list(map(check_tuple, box))
    failing = [[*p.as_dict().values(), failed] for p, (failed, _) in zip(box, results) if failed]
    print(json.dumps({
        "total": len(box),
        "readings_differ": sum(differ for _, differ in results),
        "failing": failing,
    }))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
