"""Ordering comparators, the binomial type and its formulas, ecart, text format."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pseudosym.cm import CM_ORDER
from pseudosym.poly import (
    EQUAL,
    GLOBAL,
    GREATER,
    LESS,
    LOCAL,
    DimensionError,
    Polynomial,
    Term,
    binomial,
    divides,
    ecart,
    minimalize_monomials,
    mono_lcm,
    monomial,
    normalize,
    parse_poly,
    reduce_step,
    render_poly,
    spoly,
    with_order,
    zero,
)
from pseudosym.stdbasis import lowest_form

monos = st.tuples(*([st.integers(0, 6)] * 4))


def P(text: str, order=LOCAL) -> Polynomial:
    return parse_poly(text, order)


class TestCompare:
    def test_local_prefers_lower_degree(self):
        # X3*X4 beats X1^alpha1 whenever alpha1 > 2
        assert LOCAL.compare((0, 0, 1, 1), (16, 0, 0, 0)) == GREATER

    def test_reflexive(self):
        m = (3, 1, 4, 1)
        assert LOCAL.compare(m, m) == EQUAL
        assert GLOBAL.compare(m, m) == EQUAL

    def test_degree_tie_reverse_lex(self):
        # equal degree 76: X2^76 beats X1^75*X3 on the X1>X2>X3>X4 precedence
        assert LOCAL.compare((0, 76, 0, 0), (75, 0, 1, 0)) == GREATER

    def test_local_one_is_largest(self):
        one = (0, 0, 0, 0)
        assert LOCAL.compare(one, (0, 1, 0, 0)) == GREATER
        assert GLOBAL.compare(one, (0, 1, 0, 0)) == LESS

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            LOCAL.compare((1, 2, 3), (1, 2, 3, 4))

    @given(monos, monos)
    def test_antisymmetric_total(self, a, b):
        assert LOCAL.compare(a, b) == -LOCAL.compare(b, a)
        assert (LOCAL.compare(a, b) == EQUAL) == (a == b)

    @given(monos, monos, monos)
    def test_multiplicative(self, a, b, q):
        shifted = tuple(x + y for x, y in zip(a, q)), tuple(x + y for x, y in zip(b, q))
        assert LOCAL.compare(a, b) == LOCAL.compare(*shifted)
        assert GLOBAL.compare(a, b) == GLOBAL.compare(*shifted)

    @given(monos)
    def test_one_is_extremal(self, m):
        one = (0, 0, 0, 0)
        if m == one:
            return
        assert LOCAL.compare(one, m) == GREATER
        assert GLOBAL.compare(one, m) == LESS


class TestLeadingTermAndEcart:
    def test_f2_leading_term(self):
        # alpha2 = 20 > alpha21 + 1 = 9 puts the mixed monomial in front
        f2 = P("X2^20-X1^8*X4")
        assert f2.leading_term == Term(Fraction(-1), (8, 0, 0, 1))

    def test_single_term(self):
        f = -monomial((2, 1, 0, 0), LOCAL)
        assert f.leading_term == Term(-1, (2, 1, 0, 0))

    def test_f6_leading_term_by_degree(self):
        # degree 21 beats degree 24 under the local ordering
        f6 = P("X1^24-X2^20*X3")
        assert f6.lm == (0, 20, 1, 0)
        assert f6.lc == -1

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            zero(LOCAL).leading_term
        with pytest.raises(ValueError):
            zero(LOCAL).lm
        with pytest.raises(ValueError):
            ecart(zero(LOCAL))

    def test_ecart_values(self):
        assert ecart(P("X1^16-X3*X4")) == 14
        assert ecart(monomial((5, 0, 0, 0), LOCAL)) == 0
        assert ecart(P("X1^24-X2^20*X3")) == 3


class TestSpoly:
    def test_cancels_into_f6(self):
        f1 = P("X1^16-X3*X4")
        f2 = P("X2^20-X1^8*X4")
        f6 = P("X1^24-X2^20*X3")
        assert normalize(spoly(f1, f2)) == normalize(f6)

    def test_self_spoly_vanishes(self):
        f = P("X1^16-X3*X4")
        assert spoly(f, f).is_zero

    def test_f2_f5_gives_the_first_tail_element(self):
        f2 = P("X2^20-X1^8*X4")
        f5 = P("X1^9*X3^6-X2*X4")
        f7 = P("X1^17*X3^6-X2^21")
        assert normalize(spoly(f2, f5)) == normalize(f7)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            spoly(zero(LOCAL), P("X1^2-X2"))

    @given(monos, monos, monos, monos)
    def test_lcm_monomial_cancelled(self, a1, a2, b1, b2):
        f = Polynomial([(1, a1), (-1, a2)], LOCAL)
        g = Polynomial([(1, b1), (-1, b2)], LOCAL)
        if f.is_zero or g.is_zero:
            return
        lcm = mono_lcm(f.lm, g.lm)
        s = spoly(f, g)
        assert all(t.mono != lcm for t in s.terms)


class TestArithmetic:
    def test_additive_identity(self):
        # the constructor's collection of like terms is the only addition left
        f = P("X1^2-X2*X3")
        assert Polynomial([*f.terms, *zero(LOCAL).terms], LOCAL) == f
        assert Polynomial([*f.terms, *(-f).terms], LOCAL).is_zero

    def test_term_multiple_stays_sorted(self):
        f3 = P("X3^7-X1^7*X2")
        shifted = f3.mul_term((1, 0, 0, 0))
        assert shifted == P("X1*X3^7-X1^8*X2")
        ks = [f3.order.sort_key(t.mono) for t in shifted.terms]
        assert ks == sorted(ks, reverse=True)

    def test_normalize_flips_sign_once(self):
        f = P("X1^24-X2^20*X3")  # leading coefficient -1
        g = normalize(f)
        assert g.lc > 0
        assert normalize(g) == g
        assert g == -f


# A reference for the binomial formulas: polynomials as {exponents: coefficient}
# dicts with general rational arithmetic, and degrevlex written out again.
# It shares no code with `pseudosym.poly`.

def ref_key(m, local):
    deg = sum(m)
    return (-deg if local else deg, -m[3], -m[2], -m[1], -m[0])


def ref_lead(f, local):
    return max(f, key=lambda m: ref_key(m, local))


def ref_combine(*parts):
    out = {}
    for coeff, shift, f in parts:
        for m, c in f.items():
            moved = tuple(x + y for x, y in zip(m, shift))
            out[moved] = out.get(moved, 0) + coeff * c
    return {m: c for m, c in out.items() if c}


def ref_spoly(f, g, local):
    a, b = ref_lead(f, local), ref_lead(g, local)
    lcm = tuple(max(x, y) for x, y in zip(a, b))
    return ref_combine(
        (Fraction(1, f[a]), tuple(x - y for x, y in zip(lcm, a)), f),
        (Fraction(-1, g[b]), tuple(x - y for x, y in zip(lcm, b)), g),
    )


def ref_reduce(h, g, local):
    a, b = ref_lead(h, local), ref_lead(g, local)
    return ref_combine(
        (1, (0, 0, 0, 0), h),
        (-Fraction(h[a], g[b]), tuple(x - y for x, y in zip(a, b)), g),
    )


def as_dict(f):
    return {t.mono: t.coeff for t in f.terms}


@st.composite
def shapes(draw):
    """A signed monomial or a +-1 binomial with terms of opposite sign, as a dict."""
    sign = draw(st.sampled_from([1, -1]))
    a = draw(monos)
    if draw(st.booleans()):
        return {a: sign}
    return {a: sign, draw(monos.filter(lambda b: b != a)): -sign}


orders = st.sampled_from([LOCAL, GLOBAL])


def build(f, order):
    return Polynomial([(c, m) for m, c in f.items()], order)


class TestBinomialFormulas:
    @given(shapes(), orders)
    def test_terms_sorted_leading_first(self, f, order):
        F = build(f, order)
        assert as_dict(F) == f
        assert F.lm == ref_lead(f, order.local)

    @given(shapes(), shapes(), orders)
    def test_spoly_matches_reference(self, f, g, order):
        S = spoly(build(f, order), build(g, order))
        expected = ref_spoly(f, g, order.local)
        assert as_dict(S) == expected
        if expected:
            assert S.lm == ref_lead(expected, order.local)

    @given(shapes(), shapes(), orders)
    def test_reduce_step_matches_reference(self, h0, g, order):
        # h = x^LM(g) * h0, so LM(g) divides LM(h) under any monomial ordering
        shift = ref_lead(g, order.local)
        h = ref_combine((1, shift, h0))
        R = reduce_step(build(h, order), build(g, order))
        expected = ref_reduce(h, g, order.local)
        assert as_dict(R) == expected
        if expected:
            assert R.lm == ref_lead(expected, order.local)

    def test_reduce_step_needs_a_dividing_lead(self):
        with pytest.raises(ValueError, match="does not divide"):
            reduce_step(P("X1-X2^2"), P("X2-X3^2"))

    @given(shapes(), orders)
    def test_normalize_matches_reference(self, f, order):
        sign = f[ref_lead(f, order.local)]
        assert as_dict(normalize(build(f, order))) == {m: sign * c for m, c in f.items()}

    @given(shapes(), orders)
    def test_lowest_form_matches_reference(self, f, order):
        low = min(sum(m) for m in f)
        expected = {m: c for m, c in f.items() if sum(m) == low}
        assert as_dict(lowest_form(build(f, order))) == expected

    @given(shapes(), orders)
    def test_ecart_matches_reference(self, f, order):
        assert ecart(build(f, order)) == max(map(sum, f)) - sum(ref_lead(f, order.local))

    @given(shapes(), orders, monos)
    def test_stored_lead_and_ecart_match_terms(self, f, order, m):
        # lm and ecart are fixed at construction; every way of making a new
        # polynomial must leave them equal to what its terms say
        F = build(f, order)
        other = GLOBAL if order.local else LOCAL
        for G in (F, -F, F.mul_term(m), with_order(F, other), normalize(F)):
            local = G.order.local
            terms = {t.mono: t.coeff for t in G.terms}
            assert G.lm == G.terms[0].mono == ref_lead(terms, local)
            assert ecart(G) == max(map(sum, terms)) - sum(ref_lead(terms, local))


class TestDivides:
    def test_basic(self):
        assert divides((0, 0, 1, 1), (0, 0, 2, 1))
        assert not divides((0, 0, 0, 2), (0, 0, 1, 1))

    def test_minimalize_monomials(self):
        assert minimalize_monomials([(0, 0, 1, 1), (0, 0, 2, 1)]) == [(0, 0, 1, 1)]
        # a unit generator absorbs everything
        assert minimalize_monomials([(0, 0, 0, 0), (1, 0, 0, 0)]) == [(0, 0, 0, 0)]

    def test_minimalize_monomials_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            minimalize_monomials([(1, 0, 0, 0), (1, 0, 0)])


# The engine builds its results without the validating constructor; each
# must equal what the constructor makes of the same terms and ordering.

all_orders = st.sampled_from([LOCAL, GLOBAL, CM_ORDER])


def assert_as_validated(R):
    V = Polynomial(R.terms, R.order)
    assert R.terms == V.terms and all(type(t) is Term for t in R.terms)
    assert R.order == V.order
    if V.is_zero:
        assert R.is_zero
        with pytest.raises(ValueError):
            R.lm
        with pytest.raises(ValueError):
            ecart(R)
    else:
        assert (R.lm, ecart(R)) == (V.lm, ecart(V))


def engine_results(F, G):
    """spoly, reduce_step, negation, normalize and with_order on F and G."""
    H = F.mul_term(G.lm)  # LM(G) divides LM(H)
    yield spoly(F, G)
    yield spoly(F, F)  # cancels to zero
    yield reduce_step(H, G)
    yield reduce_step(F, F)  # cancels to zero
    yield -F
    yield -zero(F.order)
    yield normalize(F)
    for order in (LOCAL, GLOBAL, CM_ORDER):
        yield with_order(F, order)
    yield with_order(zero(F.order), LOCAL)


class TestTrustedConstructor:
    @given(all_orders, monos, monos)
    def test_greater_agrees_with_sort_key(self, order, a, b):
        assert order.greater(a, b, sum(a), sum(b)) == (order.sort_key(a) > order.sort_key(b))

    @given(shapes(), shapes(), all_orders)
    def test_engine_results_match_constructor(self, f, g, order):
        F, G = build(f, order), build(g, order)
        for R in engine_results(F, G):
            assert_as_validated(R)

    @pytest.mark.parametrize("order", [LOCAL, GLOBAL, CM_ORDER], ids=["local", "global", "cm"])
    @pytest.mark.parametrize("h, g, expect", [
        # the moved tail of g is the tail of h: zero
        ("X1*X2-X2*X3", "X1-X3", "0"),
        # a monomial reduced by a binomial, and a monomial spoly
        ("X1*X2^2", "X1-X2^2", "monomial"),
        # equal degrees: the leads are decided by reverse-lex, which LOCAL
        # (X4 least significant) and CM_ORDER (X1 least) decide differently
        ("X1^2*X2-X1*X3*X4", "X1-X3", "binomial"),
    ])
    def test_cancellation_monomials_and_ties(self, order, h, g, expect):
        H, G = P(h, order), P(g, order)
        for R in (reduce_step(H, G), spoly(H, G), -H, normalize(H)):
            assert_as_validated(R)
        R = reduce_step(H, G)
        assert len(R.terms) == {"0": 0, "monomial": 1, "binomial": 2}[expect]

    def test_degree_tie_follows_precedence(self):
        f = P("X1*X2-X3*X4")
        assert with_order(f, LOCAL).lm == (1, 1, 0, 0)
        assert with_order(f, CM_ORDER).lm == (0, 0, 1, 1)
        assert with_order(with_order(f, CM_ORDER), GLOBAL).lm == (1, 1, 0, 0)

    @pytest.mark.parametrize("order", [LOCAL, GLOBAL, CM_ORDER], ids=["local", "global", "cm"])
    def test_refusals_kept(self, order):
        with pytest.raises(ValueError, match="does not divide"):
            reduce_step(P("X1-X2^2", order), P("X1^2-X3^2", order))
        with pytest.raises(ValueError):
            reduce_step(zero(order), P("X1-X2^2", order))
        with pytest.raises(ValueError):
            reduce_step(P("X1-X2^2", order), zero(order))
        with pytest.raises(ValueError):
            spoly(P("X1-X2^2", order), zero(order))
        with pytest.raises(ValueError, match="different monomial orderings"):
            spoly(P("X1-X2^2", order), P("X1-X2^2", LOCAL if order != LOCAL else GLOBAL))


class TestTextFormat:
    @pytest.mark.parametrize("text", [
        "X1^16-X3*X4",
        "X4^2-X1*X2^19*X3^6",
        "X2^21-X1^17*X3^6",
        "0",
    ])
    def test_roundtrip(self, text):
        f = parse_poly(text, LOCAL)
        assert parse_poly(render_poly(f), LOCAL) == f

    def test_render_uses_carets_and_stars(self):
        f = binomial((9, 0, 6, 0), (0, 1, 0, 1), LOCAL)
        # local leading term is the degree-2 monomial
        assert render_poly(normalize(f)) == "X2*X4-X1^9*X3^6"

    @pytest.mark.parametrize("text", ["X1^3-X1*X2+X3^2", "2*X1^3-X2", "2*X1", "X1+X1-X2",
                                      "X1+X2", "-X1-X2"])
    def test_non_binomial_rejected(self, text):
        # a trinomial, a coefficient of 2 and two terms of the same sign
        with pytest.raises(ValueError, match="±1 binomial"):
            parse_poly(text, LOCAL)

    def test_constant_term_renders_as_one(self):
        assert render_poly(P("X1^2-1")) == "-1+X1^2"
        assert render_poly(-monomial((0, 0, 0, 0), GLOBAL)) == "-1"

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("X5^2", LOCAL)

    @pytest.mark.parametrize("text", ["X1++X2", "X1--X2", "X1^2-", "+", "X1^", "X1^x", "X1*", "X1**X2"])
    def test_text_not_covered_by_terms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_poly(text, LOCAL)
