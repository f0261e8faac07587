"""The basis loop and reducer scans as the engine first ran them.

`seed_nf_mora` is Mora's weak normal form as the engine first ran it: every
reducer is tested with `divides`, leads and ecarts are read off the terms,
the first divisor of least ecart in the given order wins, and h joins the
reducers when the chosen ecart exceeds its own.  On input that is
homogeneous for positive weights an appended h can never be chosen: every h
of one normal form has the same weighted degree, and of two distinct
monomials of one positive degree neither divides the other.
`seed_nf_global` is plain first-divisor reduction.  Both reduce with
`seed_reduce_step`, and `seed_closure` forms pairs with `seed_spoly` and
skips them with `coprime`: the formulas of `poly.reduce_step`, `poly.spoly`
and the product criterion as the engine first ran them, with generic
`map` arithmetic over the exponents, results built by the validating
`Polynomial` constructor, and no support masks.

`seed_closure` is the basis loop frozen as it was when the normal form
still chose the reducer itself: it hands the normal form the elements in
creation order.  The engine's `stdbasis._closure` hands `nf_mora`, a plain
first-divisor scan, a reducer list kept in stable ecart order instead, and
must build the same closure, element by element, on both routes, with its
four-wide divisor scan, lcm, shift and support-mask product criterion:

* the local route, the curve's binomials against `seed_nf_mora`;
* the CM route, taken where the tangent cone is not monomial: the cone's
  lowest forms under `cm.CM_ORDER` against `seed_nf_global`.

Run as a script, it compares the closures on every coprime tuple with
alpha1..3 in 2..10, alpha4 in 2..5 and alpha21 in 1..9 (10,189 tuples),
prints a one-line JSON summary (the tuple count, how many of them take the
CM route, and each differing tuple with the route that differs) and exits 1
on any difference:

    PYTHONPATH=src python tests/seed_engine.py --jobs 2
"""

import argparse
import json
import multiprocessing
import os
import sys
from collections import deque
from operator import add, le, mul, sub

from pseudosym import stdbasis
from pseudosym.cm import CM_ORDER
from pseudosym.poly import Polynomial, normalize, with_order
from pseudosym.toric import toric_generators

from conftest import engine_box

CLOSURE_BOX_RANGES = (range(2, 11), range(2, 11), range(2, 11), range(2, 6), range(1, 10))


def divides(a, b):
    """True iff the monomial with exponents a divides the one with exponents b."""
    return all(map(le, a, b))


def coprime(a, b):
    """True iff no variable divides both monomials."""
    return not any(map(mul, a, b))


def seed_spoly(f, g):
    """lcm-cancellation of the leading terms: x^(d+L-c) - x^(b+L-a), a term absent for a monomial."""
    a, c = f.terms[0].mono, g.terms[0].mono
    lcm = tuple(map(max, a, c))
    terms = []
    if g.tail is not None:
        terms.append((1, tuple(map(sub, map(add, g.tail, lcm), c))))
    if f.tail is not None:
        terms.append((-1, tuple(map(sub, map(add, f.tail, lcm), a))))
    return Polynomial(terms, f.order)


def seed_reduce_step(h, g):
    """h less the multiple of g that cancels LM(h); LM(g) must divide LM(h)."""
    shift = tuple(map(sub, h.terms[0].mono, g.terms[0].mono))
    if min(shift) < 0:
        raise ValueError("the reducer's lead does not divide")
    ratio = h.terms[0].coeff * g.terms[0].coeff  # lc(h) / lc(g), as both are ±1
    terms = [(-ratio * t.coeff, tuple(map(add, t.mono, shift))) for t in g.terms[1:]]
    terms += h.terms[1:]
    return Polynomial(terms, h.order)


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
        h = seed_reduce_step(h, chosen)
    return h


def seed_nf_global(h, basis):
    while not h.is_zero:
        for g in basis:
            if divides(g.terms[0].mono, h.terms[0].mono):
                h = seed_reduce_step(h, g)
                break
        else:
            return h
    return h


def seed_closure(gens, nf):
    G = []
    for f in gens:
        if not f.is_zero:
            nf_f = normalize(f)
            if nf_f not in G:
                G.append(nf_f)
    pairs = deque((i, j) for j in range(len(G)) for i in range(j))
    while pairs:
        i, j = pairs.popleft()
        if coprime(G[i].lead, G[j].lead):
            continue
        h = nf(seed_spoly(G[i], G[j]), G)
        if h.is_zero:
            continue
        G.append(normalize(h))
        new = len(G) - 1
        pairs.extend((i, new) for i in range(new))
    return G


def terms(G):
    return [g.terms for g in G]


def closure_differs(params) -> dict[str, bool]:
    """Each route the tuple takes, mapped to whether its closure differs from the frozen loop's."""
    gens = toric_generators(params).generators
    local = stdbasis._closure(gens, stdbasis.nf_mora)
    routes = {"local": terms(local) != terms(seed_closure(gens, seed_nf_mora))}
    cone = stdbasis.tangent_cone_ideal(stdbasis.minimalize(local))
    if not all(g.tail is None for g in cone):
        cone = [with_order(g, CM_ORDER) for g in cone]
        routes["cm"] = terms(stdbasis._closure(cone, stdbasis.nf_global)) != terms(seed_closure(cone, seed_nf_global))
    return routes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Closure identity of the engine's basis loop and the frozen one, on both routes of the 10,189-tuple box.")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= (os.cpu_count() or 1):
        parser.error(f"--jobs must be between 1 and the CPU count, got {args.jobs}")
    box = engine_box(CLOSURE_BOX_RANGES)
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            results = pool.map(closure_differs, box, chunksize=64)
    else:
        results = list(map(closure_differs, box))
    differing = [[*p.as_dict().values(), route]
                 for p, routes in zip(box, results) for route, bad in routes.items() if bad]
    print(json.dumps({"total": len(box), "cm_route": sum("cm" in routes for routes in results),
                      "differing": differing}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
