"""Standard bases for local orderings, tangent cones, and leading ideals.

The reduction engine is the ecart-guided weak normal form: among the current
reducers whose leading monomial divides LM(h), one of minimal ecart is used
(ties broken by insertion order), and when even that reducer has larger
ecart than h itself, h joins the reducer list before the cancellation.  The
growing reducer list is what makes reduction terminate under local
orderings, where plain division may loop forever.

The basis loop processes s-polynomial pairs in FIFO creation order and skips
pairs with coprime leading monomials (the product criterion).  The returned
basis is minimal: no leading monomial divides another.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import InconsistencyError
from .poly import (
    Exponent,
    Polynomial,
    coprime,
    divides,
    ecart,
    minimalize_monomials,
    normalize,
    reduce_step,
    spoly,
    total_deg,
)

# Safety valve only; the ecart argument guarantees termination long before this.
MAX_REDUCTION_STEPS = 1_000_000


@dataclass(frozen=True)
class TangentConeIdeal:
    """Lowest-degree forms of a basis; monomial_flag marks the all-monomial case."""

    generators: tuple[Polynomial, ...]
    monomial_flag: bool


def lowest_form(f: Polynomial) -> Polynomial:
    """The terms of minimal total degree: f itself or its lower monomial."""
    if f.is_zero:
        raise ValueError("zero polynomial has no lowest form")
    d = f.min_degree
    return Polynomial([t for t in f.terms if total_deg(t.mono) == d], f.order)


def nf_mora(h: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Weak normal form of h against `basis`.

    Returns 0 or a polynomial whose leading monomial no leading monomial of
    `basis` divides.  The result represents u*h modulo the ideal for some
    unit u, which is exactly what membership tests and the basis loop need.
    """
    reducers = list(basis)
    steps = 0
    while not h.is_zero:
        lm = h.lm
        chosen = None
        chosen_ecart = -1
        for g in reducers:
            if divides(g.lm, lm):
                e = ecart(g)
                if chosen is None or e < chosen_ecart:
                    chosen, chosen_ecart = g, e
        if chosen is None:
            break
        if chosen_ecart > ecart(h):
            reducers.append(h)
        h = reduce_step(h, chosen)
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise InconsistencyError("reduction exceeded the step budget; ordering bug?")
    return h


def minimalize(G: Sequence[Polynomial]) -> list[Polynomial]:
    """Drop elements whose leading monomial is divisible by another's.

    Candidates are scanned by increasing leading-monomial degree so that a
    divisor is always seen before its multiples; the survivors are returned
    with the largest leading monomial first, which for a local ordering puts
    the lowest-degree elements at the front.
    """
    if not G:
        return []
    order = G[0].order
    ranked = sorted(
        enumerate(G),
        key=lambda ig: (total_deg(ig[1].lm), ig[1].order.sort_key(ig[1].lm), ig[0]),
    )
    kept: list[Polynomial] = []
    for _, g in ranked:
        if not any(divides(other.lm, g.lm) for other in kept):
            kept.append(g)
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
        if coprime(G[i].lm, G[j].lm):
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


def nf_global(h: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Leading-term reduction under a global ordering; always terminates."""
    while not h.is_zero:
        for g in basis:
            if divides(g.lm, h.lm):
                h = reduce_step(h, g)
                break
        else:
            return h
    return h


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


def tangent_cone_ideal(G: Sequence[Polynomial]) -> TangentConeIdeal:
    """Lowest forms of a standard basis; they generate the tangent-cone ideal."""
    lows = tuple(normalize(lowest_form(g)) for g in G)
    return TangentConeIdeal(lows, all(len(g.terms) == 1 for g in lows))
