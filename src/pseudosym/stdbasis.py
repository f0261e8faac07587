"""Standard bases for local orderings, tangent cones, and leading ideals.

Every ideal the engine is given is homogeneous for a positive weight
vector: the curve's binomials for Xi -> ni, a tangent cone for the standard
grading; `check_graded` checks that where input enters.  A reduction step
keeps the weighted degree and lowers the lead, and one weighted degree
holds finitely many monomials, so plain division terminates even under the
local ordering: `nf_mora` cancels LM(h) by the first reducer whose lead
divides it, and needs none of Mora's bookkeeping.

Mora's choice survives only as the order of the reducers.  The basis loop
keeps its elements in creation order, for pairs and `minimalize`, and a
reducer list sorted stably by `_ecart`, so the first divisor is the first
of least ecart in creation order: the reducer Mora's rule picks.  Under a
global ordering every ecart is 0, and `nf_global` is `nf_mora`.  Pairs run
in FIFO creation order, the product criterion skips those with coprime
leads, and `minimalize` keeps the elements whose leads
`poly.minimalize_monomials` keeps, so the returned basis is minimal.

Every monomial has four exponents (see `poly`), so the divisor scan of
`nf_mora` is four ``<=`` comparisons per reducer, and the basis loop keeps
each element's `poly.support` mask beside it: two leads are coprime exactly
when their masks share no bit, so the product criterion is one ``&``.

The lowest forms of a local standard basis generate the tangent-cone ideal.
A ±1 monomial or homogeneous binomial is its own lowest form; any other
binomial's is its lower-degree term, the lead under the local ordering.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Sequence

from .errors import InconsistencyError
from .poly import (
    N_VARS,
    STANDARD_GRADING,
    Exponent,
    Polynomial,
    _pair,
    minimalize_monomials,
    normalize,
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
    """Total degree of g above that of its lead: 0 for a monomial and under a global ordering."""
    return 0 if g.tail is None else max(sum(g.tail) - sum(g.lead), 0)


def nf_mora(h: Polynomial, reducers: Sequence[Polynomial]) -> Polynomial:
    """Weak normal form of h: cancel LM(h) by the first of `reducers` whose lead divides it.

    Returns 0 or a polynomial whose leading monomial no leading monomial of
    `reducers` divides.  The result represents u*h modulo the ideal for some
    unit u, which is exactly what membership tests and the basis loop need.
    h and `reducers` must be homogeneous for one positive weight vector; on
    other input under the local ordering the division may never end, and
    the step budget raises `InconsistencyError`.
    """
    steps = 0
    while h.lead is not None:
        a0, a1, a2, a3 = h.lead
        for g in reducers:
            b = g.lead
            if b[0] <= a0 and b[1] <= a1 and b[2] <= a2 and b[3] <= a3:
                break
        else:
            break
        h = reduce_step(h, g)
        steps += 1
        if steps > MAX_REDUCTION_STEPS:
            raise InconsistencyError(
                "reduction exceeded the step budget; is the input homogeneous for positive weights?"
            )
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
    """The basis loop: `gens` and every nonzero reduced s-polynomial, in creation order."""
    G = []
    for f in gens:
        if not f.is_zero:
            nf_f = normalize(f)
            if nf_f not in G:
                G.append(nf_f)
    if not G:
        raise ValueError("need at least one nonzero polynomial")
    reducers = sorted(G, key=_ecart)
    masks = [support(g.lead) for g in G]
    pairs: deque[tuple[int, int]] = deque(
        (i, j) for j in range(len(G)) for i in range(j)
    )
    while pairs:
        i, j = pairs.popleft()
        if not masks[i] & masks[j]:
            continue
        h = nf(spoly(G[i], G[j]), reducers)
        if h.lead is None:
            continue
        g = normalize(h)
        G.append(g)
        masks.append(support(g.lead))
        insort(reducers, g, key=_ecart)
        new = len(G) - 1
        pairs.extend((i, new) for i in range(new))
    return G


def standard_basis(gens: Sequence[Polynomial], weights: Sequence[int]) -> list[Polynomial]:
    """Minimal standard basis of the ideal generated by `gens` (local ordering).

    `gens` must be homogeneous for the positive `weights`, for a monomial
    curve its generators n; other input raises `ValueError`.
    """
    check_graded(gens, weights)
    return minimalize(_closure(gens, nf_mora))


# Under a global ordering the lead has the highest degree, so every ecart is
# 0 and the reducers stay in creation order.  The name stays for the global
# route.
nf_global = nf_mora


def buchberger_homogeneous(gens: Sequence[Polynomial]) -> list[Polynomial]:
    """Minimal Groebner basis of a homogeneous ideal under a global ordering.

    For homogeneous input the Groebner basis is also a standard basis, so
    this is the fallback route when tangent-cone generators fail to be
    monomials.
    """
    if any(not f.is_zero and f.order.local for f in gens):
        raise ValueError("buchberger_homogeneous needs a global ordering")
    check_graded(gens, STANDARD_GRADING)
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
