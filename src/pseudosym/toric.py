"""Defining binomials of the monomial curve and the closed-form basis family.

`toric_generators` builds the five binomials f1..f5 cutting out the curve
(t^n1, t^n2, t^n3, t^n4); both monomials of each binomial are checked to have
the same weighted degree under the grading Xi -> ni, which certifies ideal
membership without any reduction.  f1..f5 are built once per tuple: the
engine starts from them, and `closed_form_basis` extends the same f1..f5.

For alpha4 = 2 the standard basis is known in closed form: f1..f5 together
with f6 = X1^(a1+a21) - X2^a2*X3 and a tail f_{6+j}, j = 1..k, whose length k
is the smallest positive integer with

    k*(a2+1) <= (k-1)*a1 + (k+1)*a21 + a3.

The paper states the strict reading (<).  The basis is built from the
non-strict one: the readings differ where the two sides tie, and there
the engine's basis has 6 + k_nonstrict elements.  `compute_k(strict=True)`
gives the strict reading, which `verify` reports next to the other one.

On the closed-form regime (`check_closed_form_regime`, the only gate in
front of `compute_k` and `closed_form_basis`) both readings of k exist, and
the non-strict tail always leads as the closed form presumes (the README's
lemma); a tail that does not is a construction bug.
"""

from __future__ import annotations

from .errors import InconsistencyError, ParameterError, Record
from .poly import LOCAL, Exponent, Polynomial, _lead_first, _pair, weighted_degree
from .semigroup import NumericalSemigroup, PseudoSymmetricParams


class ClosedFormBasis(Record):
    _fields = ("k", "elements")
    __slots__ = _fields

    def __init__(self, k: int, elements: tuple[Polynomial, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "elements", elements)


def _check_sdegrees(f: Polynomial, S: NumericalSemigroup, label: str) -> None:
    """Raise `InconsistencyError` unless f is homogeneous for the grading Xi -> ni."""
    if not f.is_homogeneous(S.generators):
        degs = sorted(weighted_degree(m, S.generators) for m in (f.lead, f.tail))
        raise InconsistencyError(f"S-degree mismatch in {label}: monomials grade to {degs}")


def generator_monomials(params: PseudoSymmetricParams) -> list[tuple[Exponent, Exponent]]:
    """Exponent pairs (plus, minus) for f1..f5."""
    a1, a2, a3, a4, a21 = (
        params.alpha1,
        params.alpha2,
        params.alpha3,
        params.alpha4,
        params.alpha21,
    )
    return [
        ((a1, 0, 0, 0), (0, 0, 1, a4 - 1)),
        ((0, a2, 0, 0), (a21, 0, 0, 1)),
        ((0, 0, a3, 0), (a1 - a21 - 1, 1, 0, 0)),
        ((0, 0, 0, a4), (1, a2 - 1, a3 - 1, 0)),
        ((a21 + 1, 0, a3 - 1, 0), (0, 1, 0, a4 - 1)),
    ]


def toric_generators(params: PseudoSymmetricParams) -> tuple[Polynomial, ...]:
    """f1..f5, each checked homogeneous under the grading by `params.semigroup`."""
    S = params.semigroup
    polys = []
    for i, (plus, minus) in enumerate(generator_monomials(params), start=1):
        # two distinct monomials by construction: built without the constructor's checks
        f = _pair(*_lead_first(plus, minus, LOCAL.greater))
        _check_sdegrees(f, S, f"f{i}")
        polys.append(f)
    return tuple(polys)


def compute_k(params: PseudoSymmetricParams, strict: bool = False) -> int:
    """Length of the closed-form tail.

    Smallest positive k with k*(a2+1) <= (k-1)*a1 + (k+1)*a21 + a3 (strict
    mode uses <).  Preconditions: those of `check_closed_form_regime`.  On
    the regime k = alpha3 satisfies even the strict inequality (lemma (ii)
    of the README), so both readings exist and neither exceeds alpha3, which
    keeps every tail element's X3 exponent nonnegative.
    """
    check_closed_form_regime(params)
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    for k in range(1, a3):
        lhs = k * (a2 + 1)
        rhs = (k - 1) * a1 + (k + 1) * a21 + a3
        if (lhs < rhs) if strict else (lhs <= rhs):
            return k
    return a3


def tail_monomials(params: PseudoSymmetricParams, j: int) -> tuple[Exponent, Exponent]:
    """Exponent pair (plus, minus) for f_{6+j}."""
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    plus = ((j - 1) * a1 + (j + 1) * a21 + 1, 0, a3 - j, 0)
    minus = (0, j * a2 + 1, 0, 0)
    return plus, minus


def check_closed_form_regime(params: PseudoSymmetricParams) -> None:
    """Raise `ParameterError` unless the closed forms' preconditions hold.

    They are alpha4 = 2, conditions (1)-(4), and sorted, coprime generators.
    """
    if params.alpha4 != 2:
        raise ParameterError(f"alpha4 = 2 violated (alpha4={params.alpha4})")
    conds = params.conditions
    for c in ("c1", "c2", "c3", "c4"):
        if not conds[c]:
            raise ParameterError(f"condition ({c[1]}) violated for {params.as_dict()}")
    if not conds["sorted"]:
        raise ParameterError(f"n1 < n2 < n3 < n4 violated for {params.as_dict()}")
    if not conds["coprime"]:
        raise ParameterError(f"gcd of generators is not 1 for {params.as_dict()}")


def closed_form_basis(params: PseudoSymmetricParams,
                      generators: tuple[Polynomial, ...]) -> ClosedFormBasis:
    """The predicted standard basis {f1, ..., f_{6+k}} for alpha4 = 2, k non-strict.

    `generators` are f1..f5 as `toric_generators(params)` returns them; f6
    and the tail are appended to them.  Preconditions: those of
    `check_closed_form_regime` on `params`.  On the regime f6 leads with
    X2^a2*X3, and every tail element f_{6+j} leads with its X1-X3 monomial
    for j < k and with its X2 power for j = k (lemmas (i) and (iii) of the
    README).  The tail's leads are still checked: one that breaks the
    pattern raises `InconsistencyError`.
    """
    S = params.semigroup
    k = compute_k(params)
    a1, a2, a21 = params.alpha1, params.alpha2, params.alpha21

    # two distinct monomials by construction, as for f1..f5
    f6 = _pair(*_lead_first((a1 + a21, 0, 0, 0), (0, a2, 1, 0), LOCAL.greater))
    _check_sdegrees(f6, S, "f6")
    elements = [*generators, f6]
    for j in range(1, k + 1):
        plus, minus = tail_monomials(params, j)
        f = _pair(*_lead_first(plus, minus, LOCAL.greater))
        _check_sdegrees(f, S, f"f{6 + j}")
        if f.lm != (minus if j == k else plus):
            raise InconsistencyError(
                f"LM(f{6 + j}) = {f.lm} breaks the closed-form leading pattern"
            )
        elements.append(f)

    return ClosedFormBasis(k, tuple(elements))
