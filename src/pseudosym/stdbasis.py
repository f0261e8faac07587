"""Standard bases, tangent cones, and leading ideals.

Every ideal the engine is given is homogeneous for a positive weight
vector: the curve's binomials for Xi -> ni, a tangent cone for the standard
grading; `check_graded` checks that where input enters.  A reduction step
keeps the weighted degree and lowers the lead, and one weighted degree
holds finitely many monomials, so plain division terminates even though
every ordering is local (see `poly`): `nf_mora` cancels LM(h) by the first
reducer whose lead divides it, and needs none of Mora's bookkeeping.

A computation runs under one order, given once: `standard_basis` takes it
as `order=`, `LOCAL` by default, and `buchberger_homogeneous` as its second
argument.  Each re-decides the lead of every input under that order, and
`nf_mora`, `spoly`, `reduce_step` and `minimalize` are handed its
`MonomialOrder.greater`; a polynomial carries no order and no sign.

Mora's choice survives only as the order of the reducers.  The basis loop
keeps its elements in creation order, for pairs and `minimalize`, and a
reducer list sorted stably by `_ecart`, so the first divisor is the first
of least ecart in creation order: the reducer Mora's rule picks.  On
homogeneous input, such as the tangent cone `buchberger_homogeneous` is
given, every ecart is 0, and `nf_global` is `nf_mora`.  Pairs run in FIFO
creation order; the product criterion skips those with coprime
leads, and a pair of two monomials, whose s-polynomial is 0, is never
formed.  `minimalize` keeps the elements whose leads
`poly.minimalize_monomials` keeps, so the returned basis is minimal.  It
lists them largest lead first, so lowest degree first, sorted by the one
comparison of the order, `MonomialOrder.greater`, through
`functools.cmp_to_key`.

Every monomial has four exponents (see `poly`), so the divisor scan of
`nf_mora` is four ``<=`` comparisons per reducer, and the basis loop keeps
each element's `poly.support` mask beside it: two leads are coprime exactly
when their masks share no bit, so the product criterion is one ``&``.
`nf_mora` takes each step through `poly.reduce_step` on the parts of the
remainder, its lead and tail, with `greater` deciding each new lead, and
builds one polynomial per call.  The basis loop drops a repeated input,
once its lead is decided, as an equal polynomial: the same lead and tail.

The lowest forms of a standard basis generate the tangent-cone ideal.  A
monomial or homogeneous binomial is its own lowest form; any other
binomial's is its lower-degree term, which every local ordering makes the
lead.  `_lowest_forms` applies that rule and returns parts;
`tangent_cone_ideal` builds them into polynomials, and `cm.cm_verdict`
reads them directly.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from functools import cmp_to_key
from typing import Sequence

from .errors import InconsistencyError
from .poly import (
    LOCAL,
    N_VARS,
    STANDARD_GRADING,
    Exponent,
    MonomialOrder,
    Polynomial,
    _lead_first,
    _pair,
    minimalize_monomials,
    reduce_step,
    spoly,
    support,
)

# Safety valve only: on graded input every normal form ends within the
# monomials of one weighted degree, long before this many steps.
MAX_REDUCTION_STEPS = 1_000_000


def check_graded(gens: Sequence[Polynomial], weights: Sequence[int]) -> None:
    """Raise `ValueError` unless `weights` are four positive integers and
    every element of `gens` is homogeneous for the grading Xi -> weights[i].
    """
    if len(weights) != N_VARS or not all(isinstance(w, int) and w > 0 for w in weights):
        raise ValueError(f"weights must be {N_VARS} positive integers, got {weights!r}")
    for f in gens:
        if not f.is_homogeneous(weights):
            raise ValueError(f"non-homogeneous input for weights {tuple(weights)}: {f!r}")


def _ecart(g: Polynomial) -> int:
    """Total degree of g above that of its lead: 0 for a monomial and a homogeneous binomial."""
    return 0 if g.tail is None else sum(g.tail) - sum(g.lead)


def nf_mora(h: Polynomial, reducers: Sequence[Polynomial], greater) -> Polynomial:
    """Weak normal form of h: cancel LM(h) by the first of `reducers` whose lead divides it.

    Returns 0 or a polynomial whose leading monomial no leading monomial of
    `reducers` divides.  The result represents u*h modulo the ideal for some
    unit u, which is exactly what membership tests and the basis loop need.
    h and `reducers` must lead under the order whose `MonomialOrder.greater`
    is `greater`, and be homogeneous for one positive weight vector; on
    other input the division may never end, and the step budget raises
    `InconsistencyError`.

    Each step is `poly.reduce_step` on h's parts, the lead and tail, and
    one polynomial is built at the end; h itself comes back when no step is
    taken.
    """
    lead, tail = h.lead, h.tail
    steps = 0
    while lead is not None:
        a0, a1, a2, a3 = lead
        for g in reducers:
            b = g.lead
            if b[0] <= a0 and b[1] <= a1 and b[2] <= a2 and b[3] <= a3:
                break
        else:
            break
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise InconsistencyError(
                "reduction exceeded the step budget; is the input homogeneous for positive weights?"
            )
        lead, tail = reduce_step(lead, tail, g, greater)
    if not steps:
        return h
    return _pair(lead, tail)


def minimalize(G: Sequence[Polynomial], greater) -> list[Polynomial]:
    """The first element of `G` for each minimal generator of its leading ideal.

    They are returned with the largest leading monomial under `greater`
    first, which puts the lowest-degree elements at the front.
    """
    first = {g.lm: g for g in reversed(G)}  # earlier elements overwrite later
    kept = [first[lm] for lm in minimalize_monomials(first)]
    # The kept leads are distinct, so `greater` is strict on them.
    kept.sort(key=cmp_to_key(lambda f, g: -1 if greater(f.lm, g.lm) else 1))
    return kept


def _closure(gens: Sequence[Polynomial], nf, greater) -> list[Polynomial]:
    """The basis loop: `gens` and every nonzero reduced s-polynomial, in creation order.

    Each element of `gens` is taken with its lead re-decided by `greater`.
    """
    G = []
    seen = set()
    for f in gens:
        if f.lead is not None:
            f = _pair(*_lead_first(f.lead, f.tail, greater))
            if f not in seen:
                seen.add(f)
                G.append(f)
    if not G:
        raise ValueError("need at least one nonzero polynomial")
    reducers = sorted(G, key=_ecart)
    masks: list[int] = []
    binomial: list[bool] = []
    pairs: deque[tuple[int, int]] = deque()
    for g in G:
        _add_pairs(g, masks, binomial, pairs)
    while pairs:
        i, j = pairs.popleft()
        h = nf(spoly(G[i], G[j], greater), reducers, greater)
        if h.lead is None:
            continue
        G.append(h)
        insort(reducers, h, key=_ecart)
        _add_pairs(h, masks, binomial, pairs)
    return G


def _add_pairs(g: Polynomial, masks: list[int], binomial: list[bool], pairs: deque) -> None:
    """Queue the pairs of the new element g with every earlier one, and record g.

    A pair is skipped when its leads are coprime (the product criterion) or
    when both elements are monomials, whose s-polynomial is 0.
    """
    new = len(masks)
    mask = support(g.lead)
    is_binomial = g.tail is not None
    pairs.extend((i, new) for i in range(new) if masks[i] & mask and (is_binomial or binomial[i]))
    masks.append(mask)
    binomial.append(is_binomial)


def standard_basis(gens: Sequence[Polynomial], weights: Sequence[int],
                   order: MonomialOrder = LOCAL) -> list[Polynomial]:
    """Minimal standard basis under `order` of the ideal generated by `gens`.

    `gens` must be homogeneous for the positive `weights`, for a monomial
    curve its generators n; other input raises `ValueError`.
    """
    check_graded(gens, weights)
    return minimalize(_closure(gens, nf_mora, order.greater), order.greater)


# On the homogeneous input of `buchberger_homogeneous` every ecart is 0 and
# the reducers stay in creation order.  The name stays for that route.
nf_global = nf_mora


def buchberger_homogeneous(gens: Sequence[Polynomial], order: MonomialOrder) -> list[Polynomial]:
    """Minimal standard basis under `order` of an ideal homogeneous for the standard grading.

    Every s-polynomial and remainder is homogeneous too, so the degree rule
    of the order never decides a comparison, and the result is the Groebner
    basis under the global ordering with the same precedence.  This is the
    route taken when tangent-cone generators fail to be monomials.  Input
    that is not homogeneous raises `ValueError`.
    """
    check_graded(gens, STANDARD_GRADING)
    return minimalize(_closure(gens, nf_global, order.greater), order.greater)


def leading_ideal(G: Sequence[Polynomial]) -> list[Exponent]:
    """Minimal monomial generators of <LM(g) : g in G>."""
    if not G:
        raise ValueError("leading ideal of an empty basis is undefined")
    return minimalize_monomials(g.lm for g in G)


def _lowest_forms(G: Sequence[Polynomial]) -> list[tuple[Exponent, Exponent | None]]:
    """The lowest form of each element of G as parts (plus, minus): x^plus - x^minus.

    A monomial or a homogeneous binomial is its own lowest form, read with
    its lead first; any other binomial's is its lead, the lower-degree term,
    with minus None.  A zero element raises `ValueError`.
    """
    forms = []
    for g in G:
        lead, tail = g.lead, g.tail
        if lead is None:
            raise ValueError("zero polynomial has no lowest form")
        if tail is not None and sum(lead) != sum(tail):
            tail = None
        forms.append((lead, tail))
    return forms


def tangent_cone_ideal(G: Sequence[Polynomial]) -> list[Polynomial]:
    """Lowest forms of a standard basis, by the rule above, each led as in G."""
    return [_pair(plus, minus) for plus, minus in _lowest_forms(G)]
