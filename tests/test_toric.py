"""Defining binomials, the tail-length k, and the closed-form basis family."""

import pytest

from pseudosym.errors import InconsistencyError, ParameterError
from pseudosym.poly import LOCAL, binomial, normalize, parse_poly, weighted_degree
from pseudosym.semigroup import PseudoSymmetricParams, construct_generators
from pseudosym.toric import (
    _check_sdegrees,
    closed_form_basis,
    compute_k,
    tail_monomials,
    toric_generators,
)

from conftest import FAMILY_TUPLES, TUPLE_41, TUPLE_42, TUPLE_43, TUPLE_44, TUPLE_A4_3


def B(text):
    return normalize(parse_poly(text, LOCAL))


class TestToricGenerators:
    def test_first_example_binomials(self):
        system = toric_generators(TUPLE_41)
        expected = [
            "X1^16-X3*X4",
            "X2^20-X1^8*X4",
            "X3^7-X1^7*X2",
            "X4^2-X1*X2^19*X3^6",
            "X1^9*X3^6-X2*X4",
        ]
        assert [normalize(f) for f in system.generators] == [B(t) for t in expected]

    def test_alpha4_3_third_binomial(self):
        system = toric_generators(TUPLE_A4_3)
        assert normalize(system.generators[2]) == B("X3^3-X1^6*X2")

    def test_all_binomials_lie_in_the_kernel(self):
        for params in FAMILY_TUPLES + [TUPLE_A4_3]:
            system = toric_generators(params)
            for f in system.generators:
                assert f.is_homogeneous(system.semigroup.generators), (params, f)

    def test_f2_sdegree_identity(self):
        n = construct_generators(TUPLE_41).generators
        assert weighted_degree((0, 20, 0, 0), n) == weighted_degree((8, 0, 0, 1), n) == 20 * 161


class TestSdegree:
    def test_empty_monomial(self):
        assert weighted_degree((0, 0, 0, 0), construct_generators(TUPLE_41).generators) == 0

    def test_tail_element_membership(self):
        n = construct_generators(TUPLE_41).generators
        assert weighted_degree((0, 21, 0, 0), n) == 21 * 161 == 3381
        assert weighted_degree((17, 0, 6, 0), n) == 17 * 141 + 6 * 164 == 3381

    def test_check_names_the_unequal_degrees(self):
        S = construct_generators(TUPLE_41)
        _check_sdegrees(B("X2^20-X1^8*X4"), S, "f2")
        with pytest.raises(InconsistencyError, match=r"in f2: monomials grade to \[141, 161\]"):
            _check_sdegrees(B("X1-X2"), S, "f2")


class TestComputeK:
    @pytest.mark.parametrize("params,nonstrict,strict", [
        (TUPLE_41, 1, 1),
        (TUPLE_42, 2, 2),
        (TUPLE_43, 3, 4),
        (TUPLE_44, 4, 5),
    ])
    def test_known_values(self, params, nonstrict, strict):
        assert compute_k(params) == nonstrict
        assert compute_k(params, strict=True) == strict

    def test_requires_alpha4_two(self):
        with pytest.raises(ParameterError, match="alpha4"):
            compute_k(TUPLE_A4_3)

    def test_requires_large_alpha2(self):
        with pytest.raises(ParameterError, match="alpha2"):
            compute_k(PseudoSymmetricParams(9, 3, 3, 2, 4))


class TestClosedFormBasis:
    @pytest.mark.parametrize("params,size,last", [
        (TUPLE_41, 7, "X1^17*X3^6-X2^21"),
        (TUPLE_42, 8, "X1^35*X3^3-X2^27"),
        (TUPLE_44, 10, "X1^55*X3^2-X2^57"),
    ])
    def test_sizes_and_last_elements(self, params, size, last):
        basis = closed_form_basis(toric_generators(params))
        assert len(basis.elements) == size
        assert basis.elements[-1] == B(last)

    def test_every_element_is_a_kernel_binomial(self):
        S = construct_generators(TUPLE_44)
        for f in closed_form_basis(toric_generators(TUPLE_44)).elements:
            assert len(f.terms) == 2
            assert f.is_homogeneous(S.generators)

    def test_leading_pattern_below_and_at_k(self):
        # j < k leads with the X1-X3 monomial, j = k with the pure X2 power
        basis = closed_form_basis(toric_generators(TUPLE_44))
        k = basis.k
        for j in range(1, k + 1):
            f = basis.elements[5 + j]
            plus, minus = tail_monomials(TUPLE_44, j)
            assert f.lm == (plus if j < k else minus)

    def test_tail_exponent_inequality(self):
        # S_j >= 0 at the exponent level: j*a2+1 >= (j-1)*a1+(j+1)*a21+a3+1-j
        for params in FAMILY_TUPLES:
            k = compute_k(params)
            a1, a2, a3, a21 = params.alpha1, params.alpha2, params.alpha3, params.alpha21
            for j in range(1, k):
                assert j * a2 + 1 >= (j - 1) * a1 + (j + 1) * a21 + a3 + 1 - j

    def test_rejects_non_family_inputs(self):
        # the system exists for any tuple; the closed form only on the regime
        system = toric_generators(TUPLE_A4_3)
        with pytest.raises(ParameterError, match="alpha4 = 2 violated"):
            closed_form_basis(system)

    @pytest.mark.parametrize("params", [TUPLE_43, TUPLE_44])
    def test_tie_element_leads_with_its_x2_power(self, params):
        # the readings differ here: the degree tie sits at j = k_nonstrict,
        # where a strict tail would need the X1-X3 monomial to lead
        k = compute_k(params)
        assert compute_k(params, strict=True) == k + 1
        plus, minus = tail_monomials(params, k)
        assert sum(plus) == sum(minus)
        assert binomial(plus, minus).lm == minus
