"""Cohen-Macaulayness of the tangent cone via the multiplicity-variable test.

The associated graded ring is Cohen-Macaulay exactly when X1 (the initial
form of the multiplicity element) is a nonzerodivisor.  For a monomial ideal
that is a divisibility check on the minimal generators: X1 divides none.

The test runs on the minimal generators of in(I*), the initial ideal of
the tangent-cone ideal I* under `CM_ORDER`, degrevlex with X1 last in
precedence.  With X1 smallest, the initial ideal commutes with the colon by
X1, so the divisibility test on it is exact.  `cm_verdict` reads the lowest
forms F of the local standard basis as parts from `stdbasis._lowest_forms`,
and most often in(I*) is already there:

Lemma.  If every element of F has the same lead under `CM_ORDER` as under
the local order, then <LM(F)> = in_CM(I*).  Proof: the lowest forms of a
local standard basis are a standard basis of I* under the same order, so
<LM(F)> = in_LOCAL(I*).  Each LM(f) is f's lead under `CM_ORDER` too, so
in_LOCAL(I*) is contained in in_CM(I*).  I* is homogeneous, so each of
the two initial ideals is spanned by the leads of I*'s homogeneous
elements, and in each degree d the distinct leads of the degree-d part of
I* are as many as its dimension.  So both have the Hilbert function of
I*, and a containment of two monomial ideals with one Hilbert function is
an equality (Sturmfels, Groebner Bases and Convex Polytopes, 1996,
ch. 1-2).

A monomial leads alike under every order, so a monomial cone is one case
of the lemma.  When it holds, the minimal leads of F are read with no
polynomial built.  Only when some binomial of F leads differently under
`CM_ORDER` is the cone built once from the parts and handed to
`buchberger_homogeneous` with `CM_ORDER`, which re-decides each lead; the
cone is homogeneous, so that standard basis is the Groebner basis under
the global degrevlex with the same precedence.

Known defect: the criterion needs the variable of the smallest generator,
and this module always tests X1.  That is right whenever n1 is the smallest
generator, as on every sorted tuple, but `verify` and `sweep
--allow-unsorted` accept tuples where it is not, and there the verdict can
be wrong.  (3,2,2,4,1), with generators (13,11,12,9), is reported not
Cohen-Macaulay with witness X1*X2*X3, though its tangent cone is
Cohen-Macaulay.  The fix changes reported verdicts and witnesses, so it
waits for the change that re-records the benchmark's output digests.
"""

from __future__ import annotations

from typing import Sequence

from .poly import Exponent, MonomialOrder, _pair, minimalize_monomials
from .stdbasis import _lowest_forms, buchberger_homogeneous

# Local degrevlex with precedence X2 > X3 > X4 > X1 (X1 least significant).  On
# the homogeneous cone it compares every pair as the global degrevlex would.
CM_ORDER = MonomialOrder(precedence=(1, 2, 3, 0))


def cm_verdict(standard_basis_elements: Sequence) -> tuple[bool, Exponent | None]:
    """The pair (cohen_macaulay, witness) from a local standard basis.

    The witness is the least minimal generator that X1 divides, None when
    there is none, that is when the tangent cone is Cohen-Macaulay.

    The test runs on the minimal leads of the lowest forms when no lowest
    form leads differently under `CM_ORDER` (the lemma above), and otherwise
    on the leading ideal of the standard basis under `CM_ORDER` of the
    lowest forms, built once.
    """
    forms = _lowest_forms(standard_basis_elements)
    greater = CM_ORDER.greater
    if any(minus is not None and greater(minus, plus) for plus, minus in forms):
        cone = [_pair(plus, minus) for plus, minus in forms]
        # its minimal basis keeps one element per minimal lead
        leads = [g.lead for g in buchberger_homogeneous(cone, CM_ORDER)]
    else:
        # an empty basis is the zero ideal, whose quotient X1 never kills
        leads = minimalize_monomials(plus for plus, _ in forms)
    var = 0  # X1, last in CM_ORDER's precedence
    bad = [m for m in leads if m[var] > 0]
    return not bad, min(bad, default=None)
