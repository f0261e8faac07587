"""Standard bases for local orderings, tangent cones, and leading ideals.

The reduction engine is the ecart-guided weak normal form: among the current
reducers whose leading monomial divides LM(h), one of minimal ecart is used
(ties broken by insertion order), and when even that reducer has larger
ecart than h itself, h joins the reducer list before the cancellation.  The
growing reducer list is what makes reduction terminate under local
orderings, where plain division may loop forever.

A `Polynomial` is stored as its parts, lead, tail and ecart among them, so
the reducer scan reads them off the reducers directly: exponent lengths are
checked once per normal form, a reducer whose ecart cannot beat the current
choice is skipped before its lead is compared, and the scan stops at the
first divisor of ecart 0.  Under a global ordering every ecart is 0, so the
same scan is plain leading-term reduction: `nf_global` is `nf_mora`.
`minimalize` keeps the elements whose leads `poly.minimalize_monomials`
keeps, so one divisibility scan serves bases, leading ideals and monomial
colons.

The basis loop processes s-polynomial pairs in FIFO creation order and skips
pairs with coprime leading monomials (the product criterion).  The returned
basis is minimal: no leading monomial divides another.

The lowest forms of a local standard basis generate the tangent-cone ideal.
A ±1 monomial or homogeneous binomial is its own lowest form; any other
binomial's is its lower-degree term, the lead under the local ordering.
"""

from __future__ import annotations

from collections import deque
from math import inf
from operator import le
from typing import Sequence

from .errors import InconsistencyError
from .poly import (
    Exponent,
    Polynomial,
    _pair,
    check_lengths,
    coprime,
    minimalize_monomials,
    normalize,
    reduce_step,
    spoly,
)

# Safety valve only; the ecart argument guarantees termination long before this.
MAX_REDUCTION_STEPS = 1_000_000


def nf_mora(h: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Weak normal form of h against `basis`.

    Returns 0 or a polynomial whose leading monomial no leading monomial of
    `basis` divides.  The result represents u*h modulo the ideal for some
    unit u, which is exactly what membership tests and the basis loop need.
    """
    if h.is_zero:
        return h
    # One length check lets the scan compare exponents without `divides`.
    check_lengths([h.lm, *(g.lm for g in basis)])
    reducers = list(basis)
    steps = 0
    while not h.is_zero:
        lm = h.lead
        chosen = None
        chosen_ecart = inf
        for g in reducers:
            # Only a strictly smaller ecart displaces the current choice, so
            # the first divisor of minimal ecart wins; ecart is never below 0.
            e = g.ecart
            if e < chosen_ecart and all(map(le, g.lead, lm)):
                chosen, chosen_ecart = g, e
                if not e:
                    break
        if chosen is None:
            break
        if chosen_ecart > h.ecart:
            reducers.append(h)
        h = reduce_step(h, chosen)
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise InconsistencyError("reduction exceeded the step budget; ordering bug?")
    return h


def minimalize(G: Sequence[Polynomial]) -> list[Polynomial]:
    """The first element of `G` for each minimal generator of its leading ideal.

    They are returned with the largest leading monomial first, which for a
    local ordering puts the lowest-degree elements at the front.
    """
    if not G:
        return []
    first = {g.lm: g for g in reversed(G)}  # earlier elements overwrite later
    order = G[0].order
    kept = [first[lm] for lm in minimalize_monomials(first)]
    kept.sort(key=lambda g: order.sort_key(g.lm), reverse=True)
    return kept


def _closure(gens: Sequence[Polynomial], nf) -> list[Polynomial]:
    G = []
    for f in gens:
        if not f.is_zero:
            nf_f = normalize(f)
            if nf_f not in G:
                G.append(nf_f)
    if not G:
        raise ValueError("need at least one nonzero polynomial")
    pairs: deque[tuple[int, int]] = deque(
        (i, j) for j in range(len(G)) for i in range(j)
    )
    while pairs:
        i, j = pairs.popleft()
        if coprime(G[i].lead, G[j].lead):
            continue
        h = nf(spoly(G[i], G[j]), G)
        if h.is_zero:
            continue
        G.append(normalize(h))
        new = len(G) - 1
        pairs.extend((i, new) for i in range(new))
    return G


def standard_basis(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Minimal standard basis of the ideal generated by `gens` (local ordering)."""
    return minimalize(_closure(gens, nf_mora))


# Under a global ordering the lead has the highest degree, so every ecart is
# 0: Mora's scan takes the first divisor, never adds h to the reducers, and
# is plain leading-term reduction.  The name stays for the global route.
nf_global = nf_mora


def buchberger_homogeneous(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Minimal Groebner basis of a homogeneous ideal under a global ordering.

    For homogeneous input the Groebner basis is also a standard basis, so
    this is the fallback route when tangent-cone generators fail to be
    monomials.
    """
    for f in gens:
        if not f.is_zero and f.order.local:
            raise ValueError("buchberger_homogeneous needs a global ordering")
        if not f.is_homogeneous():
            raise ValueError(f"non-homogeneous input: {f!r}")
    return minimalize(_closure(gens, nf_global))


def leading_ideal(G: Sequence[Polynomial]) -> list[Exponent]:
    """Minimal monomial generators of <LM(g) : g in G>."""
    if not G:
        raise ValueError("leading ideal of an empty basis is undefined")
    return minimalize_monomials(g.lm for g in G)


def tangent_cone_ideal(G: Sequence[Polynomial]) -> list[Polynomial]:
    """Normalized lowest forms of a standard basis, by the ±1 rule above."""
    cone = []
    for g in G:
        if g.is_zero:
            raise ValueError("zero polynomial has no lowest form")
        if not g.is_homogeneous():
            g = _pair(1, min(g.lead, g.tail, key=sum), None, g.order)
        cone.append(normalize(g))
    return cone
