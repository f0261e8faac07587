"""Defining binomials of the monomial curve and the closed-form basis family.

`toric_generators` builds the five binomials f1..f5 cutting out the curve
(t^n1, t^n2, t^n3, t^n4); both monomials of each binomial are checked to have
the same weighted degree under the grading Xi -> ni, which certifies ideal
membership without any reduction.

For alpha4 = 2 the standard basis is known in closed form: f1..f5 together
with f6 = X1^(a1+a21) - X2^a2*X3 and a tail f_{6+j}, j = 1..k, whose length k
is the smallest positive integer with

    k*(a2+1) <= (k-1)*a1 + (k+1)*a21 + a3.

The comparison defaults to non-strict: the strict reading disagrees with the
basis sizes the engine computes whenever the two sides tie (see
`compute_k(strict=True)`), and `verify` reports both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InconsistencyError, ParameterError, UnsupportedParametersError
from .poly import Exponent, Polynomial, binomial, normalize
from .semigroup import NumericalSemigroup, PseudoSymmetricParams, check_conditions, construct_generators


@dataclass(frozen=True)
class ToricSystem:
    params: PseudoSymmetricParams
    semigroup: NumericalSemigroup
    generators: tuple[Polynomial, ...]


@dataclass(frozen=True)
class ClosedFormBasis:
    k: int
    elements: tuple[Polynomial, ...]


def sdegree(m: Exponent, S: NumericalSemigroup) -> int:
    """Weighted degree of a monomial under the grading Xi -> ni."""
    return sum(e * n for e, n in zip(m, S.generators))


def _check_sdegrees(f: Polynomial, S: NumericalSemigroup, label: str) -> None:
    degs = {sdegree(t.mono, S) for t in f.terms}
    if len(degs) > 1:
        raise InconsistencyError(
            f"S-degree mismatch in {label}: monomials grade to {sorted(degs)}"
        )


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


def toric_generators(params: PseudoSymmetricParams) -> ToricSystem:
    S = construct_generators(params)
    polys = []
    for i, (plus, minus) in enumerate(generator_monomials(params), start=1):
        f = binomial(plus, minus)
        _check_sdegrees(f, S, f"f{i}")
        polys.append(f)
    return ToricSystem(params, S, tuple(polys))


def compute_k(params: PseudoSymmetricParams, strict: bool = False) -> int:
    """Length of the closed-form tail.

    Smallest positive k with k*(a2+1) <= (k-1)*a1 + (k+1)*a21 + a3 (strict
    mode uses <).  k never exceeds alpha3, otherwise the tail element would
    need a negative X3 exponent; inputs without an admissible k are rejected.
    """
    if params.alpha4 != 2:
        raise ParameterError(f"alpha4 = 2 violated (alpha4={params.alpha4})")
    if params.alpha2 <= params.alpha21 + 1:
        raise ParameterError(
            f"alpha2 > alpha21 + 1 violated (alpha2={params.alpha2}, alpha21={params.alpha21})"
        )
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    for k in range(1, a3 + 1):
        lhs = k * (a2 + 1)
        rhs = (k - 1) * a1 + (k + 1) * a21 + a3
        if (lhs < rhs) if strict else (lhs <= rhs):
            return k
    raise UnsupportedParametersError(
        f"no admissible k <= alpha3 = {a3}; the tail would need a negative X3 exponent"
    )


def tail_monomials(params: PseudoSymmetricParams, j: int) -> tuple[Exponent, Exponent]:
    """Exponent pair (plus, minus) for f_{6+j}."""
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
    plus = ((j - 1) * a1 + (j + 1) * a21 + 1, 0, a3 - j, 0)
    minus = (0, j * a2 + 1, 0, 0)
    return plus, minus


def has_c6_tie(params: PseudoSymmetricParams) -> bool:
    """Equality in condition (6), which makes LM(f6) fall to a degree tie."""
    return params.alpha1 + params.alpha21 + 1 == params.alpha2 + params.alpha4


def closed_form_basis(params: PseudoSymmetricParams, strict: bool = False) -> ClosedFormBasis:
    """The predicted standard basis {f1, ..., f_{6+k}} for alpha4 = 2.

    Preconditions: alpha4 = 2, conditions (1)-(4), sorted generators.  Inputs
    where the leading monomials do not follow the pattern the formula
    presumes are rejected with `UnsupportedParametersError`: equality in
    condition (6), and any tail element whose leading monomial lands on the
    wrong side of a degree tie.  Such inputs are reported rather than
    silently mispredicted.
    """
    if params.alpha4 != 2:
        raise ParameterError(f"alpha4 = 2 violated (alpha4={params.alpha4})")
    conds = check_conditions(params)
    for c in ("c1", "c2", "c3", "c4"):
        if not conds[c]:
            raise ParameterError(f"condition ({c[1]}) violated for {params.as_dict()}")
    if not conds["sorted"]:
        raise ParameterError(f"n1 < n2 < n3 < n4 violated for {params.as_dict()}")
    if not conds["coprime"]:
        raise ParameterError(f"gcd of generators is not 1 for {params.as_dict()}")
    if has_c6_tie(params):
        raise UnsupportedParametersError(
            "equality in condition (6): LM(f6) is decided by a degree tie, "
            "outside the closed-form regime"
        )

    k = compute_k(params, strict=strict)
    system = toric_generators(params)
    S = system.semigroup
    a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21

    f6 = binomial((a1 + a21, 0, 0, 0), (0, a2, 1, 0))
    elements = list(system.generators) + [f6]
    for j in range(1, k + 1):
        plus, minus = tail_monomials(params, j)
        elements.append(binomial(plus, minus))

    for i, f in enumerate(elements, start=1):
        _check_sdegrees(f, S, f"f{i}")

    if f6.lm != (0, a2, 1, 0):
        raise UnsupportedParametersError(
            f"LM(f6) = {f6.lm} is not the X2^a2*X3 monomial"
        )
    for j in range(1, k + 1):
        f = elements[5 + j]
        plus, minus = tail_monomials(params, j)
        expected = minus if j == k else plus
        if f.lm != expected:
            raise UnsupportedParametersError(
                f"LM(f{6 + j}) = {f.lm} breaks the closed-form leading pattern"
            )

    return ClosedFormBasis(k, tuple(normalize(f) for f in elements))
