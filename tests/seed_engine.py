"""The basis loop and reducer scans as the engine first ran them.

`seed_nf_mora` is Mora's weak normal form as the engine first ran it: every
reducer is tested with `divides`, leads and ecarts are read off the terms
that `reference.terms` lists, the first divisor of least ecart in the given
order wins, and h joins the reducers when the chosen ecart exceeds its own.
On input that is homogeneous for positive weights an appended h can never
be chosen: every h of one normal form has the same weighted degree, and of
two distinct monomials of one positive degree neither divides the other.
`seed_nf_global` is plain first-divisor reduction.  Both reduce with
`seed_reduce_step`, and `seed_closure` forms pairs with `seed_spoly` and
skips them with `coprime`: the formulas of `poly.reduce_step`, `poly.spoly`
and the product criterion as the engine first ran them, with generic
`map` arithmetic over the exponents, signed terms, results built by the
validating `Polynomial` constructor under the order each function is
given, and no support masks.  `seed_closure` rebuilds every generator
under its order with `reference.with_order`, as the engine did while a
polynomial still carried its order.

`seed_closure` is the basis loop frozen as it was when the normal form
still chose the reducer itself: it hands the normal form the elements in
creation order.  The engine's `stdbasis._closure` hands `nf_mora`, a plain
first-divisor scan, a reducer list kept in stable ecart order instead,
re-decides each generator's lead itself, and must build the same closure,
element by element (each element's lead and tail), on both routes, with
its four-wide divisor scan, lcm, shift and support-mask product criterion:

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

import json
import sys
from collections import deque
from operator import add, le, mul, sub

import reference as ref
from pseudosym import stdbasis
from pseudosym.cm import CM_ORDER
from pseudosym.poly import LOCAL, Polynomial
from pseudosym.toric import toric_generators

from conftest import engine_box, map_box

CLOSURE_BOX_RANGES = (range(2, 11), range(2, 11), range(2, 11), range(2, 6), range(1, 10))


def divides(a, b):
    """True iff the monomial with exponents a divides the one with exponents b."""
    return all(map(le, a, b))


def coprime(a, b):
    """True iff no variable divides both monomials."""
    return not any(map(mul, a, b))


def lead_mono(f):
    """The exponents of f's leading term, the first that `reference.terms` lists."""
    return ref.terms(f)[0][1]


def seed_spoly(f, g, order):
    """lcm-cancellation of the leading terms: x^(d+L-c) - x^(b+L-a), a term absent for a monomial."""
    a, c = lead_mono(f), lead_mono(g)
    lcm = tuple(map(max, a, c))
    terms = []
    if g.tail is not None:
        terms.append((1, tuple(map(sub, map(add, g.tail, lcm), c))))
    if f.tail is not None:
        terms.append((-1, tuple(map(sub, map(add, f.tail, lcm), a))))
    return Polynomial(terms, order)


def seed_reduce_step(h, g, order):
    """h less the multiple of g that cancels LM(h); LM(g) must divide LM(h)."""
    (hc, hm), *h_rest = ref.terms(h)
    (gc, gm), *g_rest = ref.terms(g)
    shift = tuple(map(sub, hm, gm))
    if min(shift) < 0:
        raise ValueError("the reducer's lead does not divide")
    ratio = hc * gc  # lc(h) / lc(g), as both are ±1
    terms = [(-ratio * c, tuple(map(add, m, shift))) for c, m in g_rest]
    return Polynomial(terms + h_rest, order)


def seed_ecart(f):
    return max(sum(m) for _, m in ref.terms(f)) - sum(lead_mono(f))


def seed_nf_mora(h, basis, order):
    reducers = list(basis)
    while not h.is_zero:
        lm = lead_mono(h)
        chosen = None
        chosen_ecart = -1
        for g in reducers:
            if divides(lead_mono(g), lm):
                e = seed_ecart(g)
                if chosen is None or e < chosen_ecart:
                    chosen, chosen_ecart = g, e
        if chosen is None:
            break
        if chosen_ecart > seed_ecart(h):
            reducers.append(h)
        h = seed_reduce_step(h, chosen, order)
    return h


def seed_nf_global(h, basis, order):
    while not h.is_zero:
        for g in basis:
            if divides(lead_mono(g), lead_mono(h)):
                h = seed_reduce_step(h, g, order)
                break
        else:
            return h
    return h


def seed_closure(gens, nf, order):
    G = []
    for f in gens:
        if not f.is_zero:
            f = ref.with_order(f, order)
            if f not in G:
                G.append(f)
    pairs = deque((i, j) for j in range(len(G)) for i in range(j))
    while pairs:
        i, j = pairs.popleft()
        if coprime(G[i].lead, G[j].lead):
            continue
        h = nf(seed_spoly(G[i], G[j], order), G, order)
        if h.is_zero:
            continue
        G.append(h)
        new = len(G) - 1
        pairs.extend((i, new) for i in range(new))
    return G


def parts(G):
    return [(g.lead, g.tail) for g in G]


def closure_differs(params) -> dict[str, bool]:
    """Each route the tuple takes, mapped to whether its closure differs from the frozen loop's."""
    gens = toric_generators(params).generators
    local = stdbasis._closure(gens, stdbasis.nf_mora, LOCAL.greater)
    routes = {"local": parts(local) != parts(seed_closure(gens, seed_nf_mora, LOCAL))}
    cone = stdbasis.tangent_cone_ideal(stdbasis.minimalize(local, LOCAL.greater))
    if not all(g.tail is None for g in cone):
        engine = stdbasis._closure(cone, stdbasis.nf_global, CM_ORDER.greater)
        routes["cm"] = parts(engine) != parts(seed_closure(cone, seed_nf_global, CM_ORDER))
    return routes


def main(argv=None) -> int:
    box, results = map_box(
        "Closure identity of the engine's basis loop and the frozen one, on both routes of the 10,189-tuple box.",
        lambda: engine_box(CLOSURE_BOX_RANGES), closure_differs, 64, argv)
    differing = [[*p.as_dict().values(), route]
                 for p, routes in zip(box, results) for route, bad in routes.items() if bad]
    print(json.dumps({"total": len(box), "cm_route": sum("cm" in routes for routes in results),
                      "differing": differing}))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
