"""Ordering comparators, the binomial type and its formulas, ecart, text format."""

from fractions import Fraction
from itertools import permutations
from operator import add

import pytest
from hypothesis import given, strategies as st

import reference as ref
from pseudosym.cm import CM_ORDER
from pseudosym.poly import (
    LOCAL,
    DimensionError,
    MonomialOrder,
    Polynomial,
    _pair,
    binomial,
    minimalize_monomials,
    monomial,
    parse_poly,
    reduce_step,
    render_poly,
    spoly,
    zero,
)
from pseudosym.stdbasis import _ecart, tangent_cone_ideal

from conftest import monomial_lists

monos = st.tuples(*([st.integers(0, 6)] * 4))


def P(text: str, order=LOCAL) -> Polynomial:
    return parse_poly(text, order)


def gt(order: MonomialOrder, a, b) -> bool:
    """x^a > x^b under `order`, through the one comparison the engine runs."""
    return order.greater(a, b)


def step(h: Polynomial, g: Polynomial, order=LOCAL) -> Polynomial:
    """`reduce_step` on the parts of h under `order`, built into a polynomial."""
    return _pair(*reduce_step(h.lead, h.tail, g, order.greater))


def times(f: Polynomial, m, order=LOCAL) -> Polynomial:
    """The product of f with the monomial x^m, through the validating constructor."""
    return Polynomial([(c, tuple(map(add, t, m))) for c, t in ref.terms(f)], order)


# Local degrevlex on each of the 24 variable precedences.
EVERY_ORDER = [MonomialOrder(p) for p in permutations(range(4))]


class TestCompare:
    def test_local_prefers_lower_degree(self):
        # X3*X4 beats X1^alpha1 whenever alpha1 > 2
        assert gt(LOCAL, (0, 0, 1, 1), (16, 0, 0, 0))

    def test_irreflexive(self):
        m = (3, 1, 4, 1)
        assert not gt(LOCAL, m, m)
        assert not gt(CM_ORDER, m, m)

    def test_degree_tie_reverse_lex(self):
        # equal degree 76: X2^76 beats X1^75*X3 on the X1>X2>X3>X4 precedence
        assert gt(LOCAL, (0, 76, 0, 0), (75, 0, 1, 0))

    def test_local_one_is_largest(self):
        one = (0, 0, 0, 0)
        assert gt(LOCAL, one, (0, 1, 0, 0))
        assert gt(CM_ORDER, one, (0, 1, 0, 0))

    def test_length_mismatch_rejected(self):
        # the validating constructor is where exponent lengths are checked
        with pytest.raises(DimensionError):
            monomial((1, 2, 3))
        with pytest.raises(DimensionError):
            binomial((1, 2, 3, 4), (1, 2, 3, 4, 5), LOCAL)

    @pytest.mark.parametrize("precedence", [(0, 0, 0, 0), (0, 1, 2), (0, 1, 2, 4), (0, 1, 2, 3, 3)])
    def test_precedence_must_be_a_permutation(self, precedence):
        # with (0, 0, 0, 0), X2 < X3 and X3 < X2 both held, so a binomial's
        # lead depended on the order its terms were written in
        with pytest.raises(ValueError, match="permutation"):
            MonomialOrder(precedence)

    @given(st.sampled_from(EVERY_ORDER), monos, st.data())
    def test_equal_degrees_compare_as_under_global_degrevlex(self, order, a, data):
        # The degree rule decides nothing between monomials of one degree, so
        # on a homogeneous ideal the local order is the global one with the
        # same precedence: global degrevlex keys the degree unnegated.
        b = tuple(data.draw(st.permutations(a)))
        global_key = lambda m: (sum(m), *(-m[i] for i in reversed(order.precedence)))
        assert gt(order, a, b) == (global_key(a) > global_key(b))

    def test_every_permutation_is_antisymmetric(self):
        variables = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        for order in EVERY_ORDER:
            for a, b in permutations(variables, 2):
                assert gt(order, a, b) != gt(order, b, a)

    @given(monos, monos)
    def test_antisymmetric_total(self, a, b):
        for order in EVERY_ORDER:
            assert not (gt(order, a, b) and gt(order, b, a))
            assert (gt(order, a, b) or gt(order, b, a)) == (a != b)

    @given(monos, monos, monos)
    def test_multiplicative(self, a, b, q):
        shifted = tuple(map(add, a, q)), tuple(map(add, b, q))
        for order in EVERY_ORDER:
            assert gt(order, a, b) == gt(order, *shifted)

    @given(monos)
    def test_one_is_extremal(self, m):
        one = (0, 0, 0, 0)
        if m == one:
            return
        for order in EVERY_ORDER:
            assert gt(order, one, m)


class TestLeadingTermAndEcart:
    def test_f2_leading_term(self):
        # alpha2 = 20 > alpha21 + 1 = 9 puts the mixed monomial in front
        f2 = P("X2^20-X1^8*X4")
        assert (f2.lead, f2.tail) == ((8, 0, 0, 1), (0, 20, 0, 0))

    def test_single_term(self):
        # a negative monomial is stored as the monomial: the sign is not kept
        f = Polynomial([(-1, (2, 1, 0, 0))], LOCAL)
        assert (f.lead, f.tail) == ((2, 1, 0, 0), None)
        assert f == monomial((2, 1, 0, 0))

    def test_f6_leading_term_by_degree(self):
        # degree 21 beats degree 24 under the local ordering
        f6 = P("X1^24-X2^20*X3")
        assert f6.lm == (0, 20, 1, 0)
        assert f6.tail == (24, 0, 0, 0)

    def test_zero_has_no_leading_term(self):
        assert (zero().lead, zero().tail) == (None, None)
        with pytest.raises(ValueError):
            zero().lm

    def test_ecart_values(self):
        assert _ecart(P("X1^16-X3*X4")) == 14
        assert _ecart(monomial((5, 0, 0, 0))) == 0
        assert _ecart(P("X1^24-X2^20*X3")) == 3


class TestSpoly:
    def test_cancels_into_f6(self):
        f1 = P("X1^16-X3*X4")
        f2 = P("X2^20-X1^8*X4")
        f6 = P("X1^24-X2^20*X3")
        assert spoly(f1, f2, LOCAL.greater) == f6

    def test_self_spoly_vanishes(self):
        f = P("X1^16-X3*X4")
        assert spoly(f, f, LOCAL.greater).is_zero

    def test_f2_f5_gives_the_first_tail_element(self):
        f2 = P("X2^20-X1^8*X4")
        f5 = P("X1^9*X3^6-X2*X4")
        f7 = P("X1^17*X3^6-X2^21")
        assert spoly(f2, f5, LOCAL.greater) == f7

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            spoly(zero(), P("X1^2-X2"), LOCAL.greater)

    @given(monos, monos, monos, monos)
    def test_lcm_monomial_cancelled(self, a1, a2, b1, b2):
        f = Polynomial([(1, a1), (-1, a2)], LOCAL)
        g = Polynomial([(1, b1), (-1, b2)], LOCAL)
        if f.is_zero or g.is_zero:
            return
        lcm = tuple(map(max, f.lm, g.lm))
        s = spoly(f, g, LOCAL.greater)
        assert lcm not in (s.lead, s.tail)


class TestArithmetic:
    def test_additive_identity(self):
        # the constructor's collection of like terms is the only addition left
        f = P("X1^2-X2*X3")
        assert Polynomial([*ref.terms(f), *ref.terms(zero())], LOCAL) == f
        assert Polynomial([*ref.terms(f), *((-c, m) for c, m in ref.terms(f))], LOCAL).is_zero

    def test_term_multiple_stays_sorted(self):
        f3 = P("X3^7-X1^7*X2")
        shifted = times(f3, (1, 0, 0, 0))
        assert shifted == P("X1*X3^7-X1^8*X2")
        ks = [ref.order_key(LOCAL, m) for _, m in ref.terms(shifted)]
        assert ks == sorted(ks, reverse=True)

    def test_either_sign_is_one_polynomial(self):
        # f and -f generate one ideal; each is stored with leading coefficient +1
        f = P("X1^24-X2^20*X3")
        g = P("X2^20*X3-X1^24")
        assert (f.lead, f.tail) == (g.lead, g.tail) == ((0, 20, 1, 0), (24, 0, 0, 0))
        assert f == g and hash(f) == hash(g)
        assert P("-X1") == P("X1") == monomial((1, 0, 0, 0))


# A reference for the binomial formulas: polynomials as {exponents: coefficient}
# dicts with general rational arithmetic, and local degrevlex written out
# again on a variable precedence.  It shares no code with `pseudosym.poly`.

def ref_key(m, precedence):
    return (-sum(m), *(-m[i] for i in reversed(precedence)))


def ref_lead(f, precedence):
    return max(f, key=lambda m: ref_key(m, precedence))


def ref_combine(*parts):
    out = {}
    for coeff, shift, f in parts:
        for m, c in f.items():
            moved = tuple(x + y for x, y in zip(m, shift))
            out[moved] = out.get(moved, 0) + coeff * c
    return {m: c for m, c in out.items() if c}


def ref_spoly(f, g, precedence):
    a, b = ref_lead(f, precedence), ref_lead(g, precedence)
    lcm = tuple(max(x, y) for x, y in zip(a, b))
    return ref_combine(
        (Fraction(1, f[a]), tuple(x - y for x, y in zip(lcm, a)), f),
        (Fraction(-1, g[b]), tuple(x - y for x, y in zip(lcm, b)), g),
    )


def ref_reduce(h, g, precedence):
    a, b = ref_lead(h, precedence), ref_lead(g, precedence)
    return ref_combine(
        (1, (0, 0, 0, 0), h),
        (-Fraction(h[a], g[b]), tuple(x - y for x, y in zip(a, b)), g),
    )


def ref_normalized(f, precedence):
    """f with its sign flipped, where needed, so that its leading coefficient is positive."""
    sign = 1 if not f or f[ref_lead(f, precedence)] > 0 else -1
    return {m: sign * c for m, c in f.items()}


def as_dict(f):
    return {m: c for c, m in ref.terms(f)}


@st.composite
def shapes(draw):
    """A signed monomial or a +-1 binomial with terms of opposite sign, as a dict."""
    sign = draw(st.sampled_from([1, -1]))
    a = draw(monos)
    if draw(st.booleans()):
        return {a: sign}
    return {a: sign, draw(monos.filter(lambda b: b != a)): -sign}


orders = st.sampled_from([LOCAL, CM_ORDER])


@st.composite
def homogeneous_shapes(draw):
    """A signed monomial or a +-1 binomial whose two terms have one total degree."""
    sign = draw(st.sampled_from([1, -1]))
    a = draw(monos)
    b = tuple(draw(st.permutations(a)))
    return {a: sign} if b == a else {a: sign, b: -sign}


def build(f, order):
    return Polynomial([(c, m) for m, c in f.items()], order)


class TestBinomialFormulas:
    @given(shapes(), orders)
    def test_terms_sorted_leading_first(self, f, order):
        # stored with leading coefficient +1, whatever sign f was written with
        F = build(f, order)
        assert as_dict(F) == ref_normalized(f, order.precedence)
        assert F.lm == ref_lead(f, order.precedence)
        assert F == build({m: -c for m, c in f.items()}, order)

    @given(shapes(), shapes(), orders, orders)
    def test_equality_and_hash_follow_the_term_set(self, f, g, order_f, order_g):
        F, G = build(f, order_f), build(g, order_g)
        assert (F == G) == (ref_normalized(f, order_f.precedence) == ref_normalized(g, order_g.precedence))
        if F == G:
            assert hash(F) == hash(G)
        assert zero() == zero() != F

    @given(shapes(), shapes(), orders)
    def test_spoly_matches_reference(self, f, g, order):
        # up to sign: the reference divides by the signed leading coefficients
        S = spoly(build(f, order), build(g, order), order.greater)
        expected = ref_spoly(f, g, order.precedence)
        assert as_dict(S) == ref_normalized(expected, order.precedence)
        if expected:
            assert S.lm == ref_lead(expected, order.precedence)

    @given(shapes(), shapes(), orders)
    def test_reduce_step_matches_reference(self, h0, g, order):
        # h = x^LM(g) * h0, so LM(g) divides LM(h) under any monomial ordering
        shift = ref_lead(g, order.precedence)
        h = ref_combine((1, shift, h0))
        R = step(build(h, order), build(g, order), order)
        expected = ref_reduce(h, g, order.precedence)
        assert as_dict(R) == ref_normalized(expected, order.precedence)
        if expected:
            assert R.lm == ref_lead(expected, order.precedence)

    def test_reduce_step_needs_a_dividing_lead(self):
        with pytest.raises(ValueError, match="does not divide"):
            step(P("X1-X2^2"), P("X2-X3^2"))

    @given(shapes(), orders)
    def test_lowest_form_matches_reference(self, f, order):
        # the lowest form is the degree-filtered terms, up to sign
        low = min(sum(m) for m in f)
        expected = {m: c for m, c in f.items() if sum(m) == low}
        cone = tangent_cone_ideal([build(f, order)])
        assert len(cone) == 1
        assert as_dict(cone[0]) in (expected, {m: -c for m, c in expected.items()})

    @given(shapes(), orders)
    def test_ecart_matches_reference(self, f, order):
        assert _ecart(build(f, order)) == max(map(sum, f)) - sum(ref_lead(f, order.precedence))

    @given(shapes(), orders, monos)
    def test_stored_lead_and_ecart_match_terms(self, f, order, m):
        # lm is fixed at construction, and the ecart is read off the parts;
        # every way of making a new polynomial must leave both equal to what
        # its terms say
        F = build(f, order)
        other = CM_ORDER if order == LOCAL else LOCAL
        for G, precedence in ((F, order.precedence), (times(F, m, order), order.precedence),
                              (ref.with_order(F, other), other.precedence)):
            terms = as_dict(G)
            assert G.lm == ref.terms(G)[0][1] == ref_lead(terms, precedence)
            assert _ecart(G) == max(map(sum, terms)) - sum(ref_lead(terms, precedence))


class TestDivides:
    def test_minimalize_monomials(self):
        assert minimalize_monomials([(0, 0, 1, 1), (0, 0, 2, 1)]) == [(0, 0, 1, 1)]
        # a unit generator absorbs everything
        assert minimalize_monomials([(0, 0, 0, 0), (1, 0, 0, 0)]) == [(0, 0, 0, 0)]

    def test_minimalize_monomials_rejects_mixed_lengths(self):
        with pytest.raises(DimensionError):
            minimalize_monomials([(1, 0, 0, 0), (1, 0, 0)])

    @pytest.mark.parametrize("monos", [[(1, 0, 0), (0, 1, 2)], [(0, 0, 0)], [(1, 0, 0, 0, 2)]])
    def test_minimalize_monomials_rejects_any_other_length(self, monos):
        # one length for every tuple is not enough: the scan is four wide
        with pytest.raises(DimensionError, match="not 4"):
            minimalize_monomials(monos)

    @given(monomial_lists(max_size=12))
    def test_minimalize_monomials_matches_reference(self, monos):
        expected = sorted(ref.minimal_monomials(monos), key=lambda m: (sum(m), m))
        assert minimalize_monomials(monos) == expected


# The engine builds its results without the validating constructor; each
# must equal what the constructor makes of the same terms and ordering.


def assert_as_validated(R, order):
    V = Polynomial(ref.terms(R), order)
    assert ref.terms(R) == ref.terms(V)
    if V.is_zero:
        assert R.is_zero
        with pytest.raises(ValueError):
            R.lm
    else:
        assert (R.lead, R.tail) == (V.lead, V.tail)


def engine_results(F, G, order):
    """spoly, reduce_step and lowest forms on F and G, all leading under `order`."""
    H = times(F, G.lm, order)  # LM(G) divides LM(H)
    yield spoly(F, G, order.greater)
    yield spoly(F, F, order.greater)  # cancels to zero
    yield step(H, G, order)
    yield step(F, F, order)  # cancels to zero
    yield from tangent_cone_ideal([F, G])


# The module's two orders and one more precedence, X4 first and X1 last.
ORDERS = [LOCAL, CM_ORDER, MonomialOrder((3, 2, 1, 0))]
ORDER_IDS = ["local", "cm", "reversed"]


class TestTrustedConstructor:
    @given(orders, monos, monos)
    def test_greater_agrees_with_reference_key(self, order, a, b):
        assert order.greater(a, b) == (ref.order_key(order, a) > ref.order_key(order, b))

    @given(shapes(), shapes(), orders)
    def test_engine_results_match_constructor(self, f, g, order):
        F, G = build(f, order), build(g, order)
        for R in engine_results(F, G, order):
            assert_as_validated(R, order)

    @given(homogeneous_shapes(), homogeneous_shapes(), orders)
    def test_homogeneous_input_has_ecart_zero(self, f, g, order):
        # what lets nf_global be nf_mora on the CM route: on homogeneous
        # input every result is homogeneous, so every nonzero one has
        # ecart 0 and the reducers stay in creation order
        F, G = build(f, order), build(g, order)
        for R in (F, G, *engine_results(F, G, order)):
            if not R.is_zero:
                assert _ecart(R) == 0

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    @pytest.mark.parametrize("h, g, expect", [
        # the moved tail of g is the tail of h: zero
        ("X1*X2-X2*X3", "X1-X3", "0"),
        # a monomial reduced by a binomial, and a monomial spoly
        ("X1*X2^2", "X1-X2^2", "monomial"),
        # equal degrees: the leads are decided by reverse-lex, which LOCAL
        # (X4 least significant) and CM_ORDER (X1 least) decide differently;
        # the reversed precedence reads X1 least too, then X2 where CM_ORDER reads X4
        ("X1^2*X2-X1*X3*X4", "X1-X3", "binomial"),
    ])
    def test_cancellation_monomials_and_ties(self, order, h, g, expect):
        H, G = P(h, order), P(g, order)
        for R in (step(H, G, order), spoly(H, G, order.greater)):
            assert_as_validated(R, order)
        R = step(H, G, order)
        assert len(ref.terms(R)) == {"0": 0, "monomial": 1, "binomial": 2}[expect]

    def test_degree_tie_follows_precedence(self):
        f = P("X1*X2-X3*X4")
        assert f.lm == (1, 1, 0, 0)
        assert P("X1*X2-X3*X4", CM_ORDER).lm == (0, 0, 1, 1)
        assert ref.with_order(f, CM_ORDER) == P("X3*X4-X1*X2", CM_ORDER)
        assert ref.with_order(ref.with_order(f, CM_ORDER), LOCAL) == f

    @pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
    def test_refusals_kept(self, order):
        with pytest.raises(ValueError, match="does not divide"):
            step(P("X1-X2^2", order), P("X1^2-X3^2", order), order)
        with pytest.raises(ValueError):
            step(zero(), P("X1-X2^2", order), order)
        with pytest.raises(ValueError):
            step(P("X1-X2^2", order), zero(), order)
        with pytest.raises(ValueError):
            spoly(P("X1-X2^2", order), zero(), order.greater)


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
        assert render_poly(f) == "X2*X4-X1^9*X3^6"

    @pytest.mark.parametrize("text", ["X1^3-X1*X2+X3^2", "2*X1^3-X2", "2*X1", "X1+X1-X2",
                                      "X1+X2", "-X1-X2"])
    def test_non_binomial_rejected(self, text):
        # a trinomial, a coefficient of 2 and two terms of the same sign
        with pytest.raises(ValueError, match="±1 binomial"):
            parse_poly(text, LOCAL)

    def test_constant_term_renders_as_one(self):
        # the unit monomial leads under every local ordering
        assert render_poly(P("X1^2-1")) == "1-X1^2"
        assert render_poly(P("-1", CM_ORDER)) == render_poly(monomial((0, 0, 0, 0))) == "1"

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("X5^2", LOCAL)

    @pytest.mark.parametrize("text", ["X1++X2", "X1--X2", "X1^2-", "+", "X1^", "X1^x", "X1*", "X1**X2"])
    def test_text_not_covered_by_terms_rejected(self, text):
        with pytest.raises(ValueError):
            parse_poly(text, LOCAL)


@st.composite
def drawn_polys(draw, max_exp, order=None):
    """Zero, a monomial or a binomial, written with either sign, under `order`.

    The order is drawn from LOCAL and CM_ORDER when none is given.
    Monomials have exponents 0..max_exp, and the unit monomial is drawn on
    purpose, not only by chance.
    """
    order = order or draw(orders)
    mono = st.just((0, 0, 0, 0)) | st.tuples(*[st.integers(0, max_exp)] * 4)
    kind = draw(st.sampled_from(["zero", "monomial", "binomial"]))
    if kind == "zero":
        return zero()
    sign = draw(st.sampled_from([1, -1]))
    a = draw(mono)
    if kind == "monomial":
        return Polynomial([(sign, a)], order)
    return Polynomial([(sign, a), (-sign, draw(mono.filter(lambda b: b != a)))], order)


def same_terms(draw, f):
    """f written again: re-led by an ordering, its terms negated, or its terms rebuilt."""
    how = draw(st.sampled_from(["order", "negate", "rebuild"]))
    if how == "order":
        return ref.with_order(f, draw(orders))
    if how == "negate":
        return Polynomial([(-c, m) for c, m in ref.terms(f)], draw(orders))
    return Polynomial(list(reversed(ref.terms(f))), draw(orders))


class TestHashContract:
    # Exponents 0..1: sixteen monomials, so that two drawn polynomials are often equal.
    @given(drawn_polys(1), drawn_polys(1), st.data())
    def test_equal_polynomials_hash_alike(self, f, g, data):
        for h in (g, same_terms(data.draw, f), same_terms(data.draw, g)):
            if f == h:
                assert hash(f) == hash(h)
            assert (f == h) == (frozenset(ref.terms(f)) == frozenset(ref.terms(h)))

    @given(st.lists(drawn_polys(1), max_size=5), st.data())
    def test_basis_sets_agree_with_term_sets(self, A, data):
        # B is A rewritten (reordered, re-led, negated), maybe with an extra element
        B = [same_terms(data.draw, f) for f in A]
        B = data.draw(st.permutations(B)) + data.draw(st.lists(drawn_polys(1), max_size=1))
        for left, right in ((A, B), (B, A), (A, A)):
            assert (frozenset(left) == frozenset(right)) == (
                ref.basis_term_sets(map(ref.terms, left)) == ref.basis_term_sets(map(ref.terms, right)))


class TestRendererAgainstTerms:
    @given(orders, st.data())
    def test_matches_term_renderer_and_parses_back(self, order, data):
        f = data.draw(drawn_polys(15, order))
        assert render_poly(f) == ref.render_terms(ref.terms(f))
        assert parse_poly(render_poly(f), order) == f
