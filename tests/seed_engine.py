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

`check` also compares `cm.cm_verdict` with `forced_verdict`, the verdict
read off the Groebner basis under `CM_ORDER` of the tangent cone, which
`buchberger_homogeneous` computes whatever the cone's leads.  `cm_verdict`
skips that computation when no binomial of the cone leads differently
under `CM_ORDER` (the lemma of `cm`), and must give the same verdict and
witness on every tuple.

Run as a script, it compares the closures on every coprime tuple with
alpha1..3 in 2..10, alpha4 in 2..5 and alpha21 in 1..9 (10,189 tuples),
prints a one-line JSON summary (the tuple count, how many of them take the
CM route, how many of those `cm_verdict` decides from the local leads,
each tuple whose verdict differs from the forced route's, and each
differing tuple with the route that differs) and exits 1 on any
difference:

    PYTHONPATH=src python tests/seed_engine.py --jobs 2
"""

import json
import sys
from collections import deque
from operator import add, le, mul, sub

import reference as ref
from pseudosym import stdbasis
from pseudosym.cm import CM_ORDER, CmVerdict, cm_verdict
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


def forced_verdict(G) -> CmVerdict:
    """The verdict from the Groebner basis under CM_ORDER of G's tangent cone, however it leads."""
    cone = stdbasis.tangent_cone_ideal(G)
    leads = stdbasis.leading_ideal(stdbasis.buchberger_homogeneous(cone, CM_ORDER))
    bad = [m for m in leads if m[0] > 0]
    return CmVerdict(not bad, min(bad, default=None))


def leads_alike(cone) -> bool:
    """Whether every binomial of `cone` leads under CM_ORDER as it does under the local order."""
    return not any(g.tail is not None and CM_ORDER.greater(g.tail, g.lead) for g in cone)


def check(params) -> tuple[dict[str, bool], bool, bool]:
    """The tuple's routes, each mapped to whether its closure differs from the frozen loop's;
    whether its cone is binomial and `cm_verdict` reads it off the local leads; and whether
    `cm_verdict` differs from `forced_verdict`."""
    gens = toric_generators(params).generators
    local = stdbasis._closure(gens, stdbasis.nf_mora, LOCAL.greater)
    routes = {"local": parts(local) != parts(seed_closure(gens, seed_nf_mora, LOCAL))}
    basis = stdbasis.minimalize(local, LOCAL.greater)
    cone = stdbasis.tangent_cone_ideal(basis)
    binomial = not all(g.tail is None for g in cone)
    if binomial:
        engine = stdbasis._closure(cone, stdbasis.nf_global, CM_ORDER.greater)
        routes["cm"] = parts(engine) != parts(seed_closure(cone, seed_nf_global, CM_ORDER))
    return routes, binomial and leads_alike(cone), cm_verdict(basis) != forced_verdict(basis)


def main(argv=None) -> int:
    box, results = map_box(
        "Closure identity of the engine's basis loop and the frozen one, on both routes of the "
        "10,189-tuple box, and the CM verdict against the forced Buchberger route.",
        lambda: engine_box(CLOSURE_BOX_RANGES), check, 64, argv)
    differing = [[*p.as_dict().values(), route]
                 for p, (routes, _, _) in zip(box, results) for route, bad in routes.items() if bad]
    verdict_differing = [list(p.as_dict().values()) for p, (_, _, bad) in zip(box, results) if bad]
    print(json.dumps({"total": len(box), "cm_route": sum("cm" in routes for routes, _, _ in results),
                      "cm_shortcut": sum(read for _, read, _ in results),
                      "cm_shortcut_differing": verdict_differing, "differing": differing}))
    return 1 if differing or verdict_differing else 0


if __name__ == "__main__":
    sys.exit(main())
