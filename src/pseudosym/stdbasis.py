"""Standard bases for local orderings, tangent cones, and leading ideals.

The reduction engine is the ecart-guided weak normal form: among the current
reducers whose leading monomial divides LM(h), one of minimal ecart is used
(ties broken by insertion order), and when even that reducer has larger
ecart than h itself, h joins the reducer list before the cancellation.  The
growing reducer list is what makes reduction terminate under local
orderings, where plain division may loop forever.

A `Polynomial` stores its leading monomial and ecart when it is built, so
the reducer scan runs over ``(lead, ecart, reducer)`` records: exponent
lengths are checked once per normal form, a reducer whose ecart cannot beat
the current choice is skipped before its lead is compared, and the scan
stops at the first divisor of ecart 0.  `minimalize` and
`poly.minimalize_monomials` likewise check lengths once per call and then
test divisibility with a plain exponent comparison.

The basis loop processes s-polynomial pairs in FIFO creation order and skips
pairs with coprime leading monomials (the product criterion).  The returned
basis is minimal: no leading monomial divides another.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from operator import le
from typing import Sequence

from .errors import InconsistencyError
from .poly import (
    Exponent,
    Polynomial,
    check_lengths,
    coprime,
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


def _lead_records(h: Polynomial, basis: Sequence[Polynomial]) -> list[tuple]:
    """(LM(g), ecart(g), g) for each g in `basis`, in order.

    Every leading monomial must have the length of LM(h); checking once here
    lets the reducer scans compare exponents without a length check.
    """
    leads = [g.lm for g in basis]
    check_lengths([h.lm, *leads])
    return list(zip(leads, map(ecart, basis), basis))


def nf_mora(h: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Weak normal form of h against `basis`.

    Returns 0 or a polynomial whose leading monomial no leading monomial of
    `basis` divides.  The result represents u*h modulo the ideal for some
    unit u, which is exactly what membership tests and the basis loop need.
    """
    if h.is_zero:
        return h
    reducers = _lead_records(h, basis)
    steps = 0
    while not h.is_zero:
        lm = h.lm
        chosen = None
        chosen_ecart = inf
        for lead, e, g in reducers:
            # Only a strictly smaller ecart displaces the current choice, so
            # the first divisor of minimal ecart wins; ecart is never below 0.
            if e < chosen_ecart and all(map(le, lead, lm)):
                chosen, chosen_ecart = g, e
                if not e:
                    break
        if chosen is None:
            break
        h_ecart = ecart(h)
        if chosen_ecart > h_ecart:
            reducers.append((lm, h_ecart, h))
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
    check_lengths(g.lm for g in G)
    order = G[0].order
    ranked = sorted(
        enumerate(G),
        key=lambda ig: (total_deg(ig[1].lm), ig[1].order.sort_key(ig[1].lm), ig[0]),
    )
    kept: list[Polynomial] = []
    kept_leads: list[Exponent] = []
    for _, g in ranked:
        lm = g.lm
        for lead in kept_leads:
            if all(map(le, lead, lm)):
                break
        else:
            kept.append(g)
            kept_leads.append(lm)
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
    leads = [g.lm for g in G]
    pairs: deque[tuple[int, int]] = deque(
        (i, j) for j in range(len(G)) for i in range(j)
    )
    while pairs:
        i, j = pairs.popleft()
        if coprime(leads[i], leads[j]):
            continue
        h = nf(spoly(G[i], G[j]), G)
        if h.is_zero:
            continue
        G.append(normalize(h))
        leads.append(G[-1].lm)
        new = len(G) - 1
        pairs.extend((i, new) for i in range(new))
    return G


def standard_basis(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Minimal standard basis of the ideal generated by `gens` (local ordering)."""
    return minimalize(_closure(gens, nf_mora))


def nf_global(h: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Leading-term reduction under a global ordering; always terminates.

    The first element of `basis` whose leading monomial divides LM(h) reduces it.
    """
    if h.is_zero:
        return h
    reducers = _lead_records(h, basis)
    while not h.is_zero:
        lm = h.lm
        for lead, _, g in reducers:
            if all(map(le, lead, lm)):
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
