"""Ordering comparators, the binomial type and its formulas, ecart, text format."""

from fractions import Fraction
from itertools import permutations
from operator import add

import pytest
from hypothesis import given, strategies as st

import reference as ref
from pseudosym.cm import CM_ORDER
from pseudosym.pipeline import basis_set
from pseudosym.poly import (
    GLOBAL,
    LOCAL,
    DimensionError,
    MonomialOrder,
    Polynomial,
    Term,
    binomial,
    minimalize_monomials,
    monomial,
    normalize,
    parse_poly,
    reduce_step,
    render_poly,
    spoly,
    with_order,
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


def times(f: Polynomial, m) -> Polynomial:
    """The product of f with the monomial x^m, through the validating constructor."""
    return Polynomial([(c, tuple(map(add, t, m))) for c, t in f.terms], f.order)


# Local and global degrevlex on each of the 24 variable precedences.
EVERY_ORDER = [MonomialOrder(local, p) for local in (True, False) for p in permutations(range(4))]


class TestCompare:
    def test_local_prefers_lower_degree(self):
        # X3*X4 beats X1^alpha1 whenever alpha1 > 2
        assert gt(LOCAL, (0, 0, 1, 1), (16, 0, 0, 0))

    def test_irreflexive(self):
        m = (3, 1, 4, 1)
        assert not gt(LOCAL, m, m)
        assert not gt(GLOBAL, m, m)

    def test_degree_tie_reverse_lex(self):
        # equal degree 76: X2^76 beats X1^75*X3 on the X1>X2>X3>X4 precedence
        assert gt(LOCAL, (0, 76, 0, 0), (75, 0, 1, 0))

    def test_local_one_is_largest(self):
        one = (0, 0, 0, 0)
        assert gt(LOCAL, one, (0, 1, 0, 0))
        assert gt(GLOBAL, (0, 1, 0, 0), one)

    def test_length_mismatch_rejected(self):
        # the validating constructor is where exponent lengths are checked
        with pytest.raises(DimensionError):
            monomial((1, 2, 3), LOCAL)
        with pytest.raises(DimensionError):
            binomial((1, 2, 3, 4), (1, 2, 3, 4, 5), LOCAL)

    @pytest.mark.parametrize("precedence", [(0, 0, 0, 0), (0, 1, 2), (0, 1, 2, 4), (0, 1, 2, 3, 3)])
    def test_precedence_must_be_a_permutation(self, precedence):
        # with (0, 0, 0, 0), X2 < X3 and X3 < X2 both held, so a binomial's
        # lead depended on the order its terms were written in
        with pytest.raises(ValueError, match="permutation"):
            MonomialOrder(True, precedence)

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
            assert gt(order, one, m) if order.local else gt(order, m, one)


class TestLeadingTermAndEcart:
    def test_f2_leading_term(self):
        # alpha2 = 20 > alpha21 + 1 = 9 puts the mixed monomial in front
        f2 = P("X2^20-X1^8*X4")
        assert f2.terms[0] == Term(Fraction(-1), (8, 0, 0, 1))
        assert (f2.coeff, f2.lead) == (-1, (8, 0, 0, 1))

    def test_single_term(self):
        f = -monomial((2, 1, 0, 0), LOCAL)
        assert f.terms == (Term(-1, (2, 1, 0, 0)),)
        assert (f.coeff, f.lead, f.tail) == (-1, (2, 1, 0, 0), None)

    def test_f6_leading_term_by_degree(self):
        # degree 21 beats degree 24 under the local ordering
        f6 = P("X1^24-X2^20*X3")
        assert f6.lm == (0, 20, 1, 0)
        assert f6.coeff == -1

    def test_zero_has_no_leading_term(self):
        assert zero(LOCAL).terms == ()
        assert zero(LOCAL).lead is None
        with pytest.raises(ValueError):
            zero(LOCAL).lm

    def test_ecart_values(self):
        assert _ecart(P("X1^16-X3*X4")) == 14
        assert _ecart(monomial((5, 0, 0, 0), LOCAL)) == 0
        assert _ecart(P("X1^24-X2^20*X3")) == 3


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
        lcm = tuple(map(max, f.lm, g.lm))
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
        shifted = times(f3, (1, 0, 0, 0))
        assert shifted == P("X1*X3^7-X1^8*X2")
        ks = [f3.order.sort_key(t.mono) for t in shifted.terms]
        assert ks == sorted(ks, reverse=True)

    def test_normalize_flips_sign_once(self):
        f = P("X1^24-X2^20*X3")  # leading coefficient -1
        g = normalize(f)
        assert g.coeff > 0
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
all_orders = st.sampled_from([LOCAL, GLOBAL, CM_ORDER])


def build(f, order):
    return Polynomial([(c, m) for m, c in f.items()], order)


class TestBinomialFormulas:
    @given(shapes(), orders)
    def test_terms_sorted_leading_first(self, f, order):
        F = build(f, order)
        assert as_dict(F) == f
        assert F.lm == ref_lead(f, order.local)

    @given(shapes(), shapes(), all_orders, all_orders)
    def test_equality_and_hash_follow_the_term_set(self, f, g, order_f, order_g):
        F, G = build(f, order_f), build(g, order_g)
        assert (F == G) == (f == g)
        assert F == build(f, order_g) and hash(F) == hash(build(f, order_g))
        assert F == -build({m: -c for m, c in f.items()}, order_g)
        assert zero(order_f) == zero(order_g) != F

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
        # the lowest form is the degree-filtered terms, up to sign
        low = min(sum(m) for m in f)
        expected = {m: c for m, c in f.items() if sum(m) == low}
        cone = tangent_cone_ideal([build(f, order)])
        assert len(cone) == 1
        assert as_dict(cone[0]) in (expected, {m: -c for m, c in expected.items()})

    @given(shapes(), orders)
    def test_ecart_matches_reference(self, f, order):
        assert _ecart(build(f, order)) == max(map(sum, f)) - sum(ref_lead(f, order.local))

    @given(shapes(), orders, monos)
    def test_stored_lead_and_ecart_match_terms(self, f, order, m):
        # lm is fixed at construction, and the ecart is read off the parts;
        # every way of making a new polynomial must leave both equal to what
        # its terms say
        F = build(f, order)
        other = GLOBAL if order.local else LOCAL
        for G in (F, -F, times(F, m), with_order(F, other), normalize(F)):
            local = G.order.local
            terms = {t.mono: t.coeff for t in G.terms}
            assert G.lm == G.terms[0].mono == ref_lead(terms, local)
            assert _ecart(G) == max(map(sum, terms)) - sum(ref_lead(terms, local))


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


def assert_as_validated(R):
    V = Polynomial(R.terms, R.order)
    assert R.terms == V.terms and all(type(t) is Term for t in R.terms)
    assert R.order == V.order
    if V.is_zero:
        assert R.is_zero
        with pytest.raises(ValueError):
            R.lm
    else:
        assert (R.coeff, R.lead, R.tail) == (V.coeff, V.lead, V.tail)


def engine_results(F, G):
    """spoly, reduce_step, negation, normalize and with_order on F and G."""
    H = times(F, G.lm)  # LM(G) divides LM(H)
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
        assert order.greater(a, b) == (order.sort_key(a) > order.sort_key(b))

    @given(shapes(), shapes(), all_orders)
    def test_engine_results_match_constructor(self, f, g, order):
        F, G = build(f, order), build(g, order)
        for R in engine_results(F, G):
            assert_as_validated(R)

    @given(shapes(), shapes(), st.sampled_from([GLOBAL, CM_ORDER]))
    def test_global_orderings_have_ecart_zero(self, f, g, order):
        # what lets nf_global be nf_mora: under a global ordering the lead
        # has the top degree, so every nonzero polynomial has ecart 0 and the
        # reducers stay in creation order
        F, G = build(f, order), build(g, order)
        for R in (F, G, *engine_results(F, G)):
            if not R.is_zero and not R.order.local:
                assert _ecart(R) == 0

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


@st.composite
def drawn_polys(draw, max_exp):
    """Zero, a signed monomial or a signed binomial under LOCAL, GLOBAL or CM_ORDER.

    Monomials have exponents 0..max_exp, and the unit monomial is drawn on
    purpose, not only by chance.
    """
    order = draw(all_orders)
    mono = st.just((0, 0, 0, 0)) | st.tuples(*[st.integers(0, max_exp)] * 4)
    kind = draw(st.sampled_from(["zero", "monomial", "binomial"]))
    if kind == "zero":
        return zero(order)
    sign = draw(st.sampled_from([1, -1]))
    a = draw(mono)
    if kind == "monomial":
        return Polynomial([(sign, a)], order)
    return Polynomial([(sign, a), (-sign, draw(mono.filter(lambda b: b != a)))], order)


def same_terms(draw, f):
    """f written again: re-oriented by another ordering, negated twice, or its terms rebuilt."""
    how = draw(st.sampled_from(["order", "negate", "rebuild"]))
    if how == "order":
        return with_order(f, draw(all_orders))
    if how == "negate":
        return -(-f)
    return Polynomial(list(reversed(f.terms)), draw(all_orders))


class TestHashContract:
    # Exponents 0..1: sixteen monomials, so that two drawn polynomials are often equal.
    @given(drawn_polys(1), drawn_polys(1), st.data())
    def test_equal_polynomials_hash_alike(self, f, g, data):
        for h in (g, same_terms(data.draw, f), same_terms(data.draw, g)):
            if f == h:
                assert hash(f) == hash(h)
            assert (f == h) == (frozenset(f.terms) == frozenset(h.terms))

    @given(st.lists(drawn_polys(1), max_size=5), st.data())
    def test_basis_set_agrees_with_term_sets(self, A, data):
        # B is A rewritten (reordered, re-oriented, negated), maybe with an extra element
        B = [data.draw(st.sampled_from([f, -f, with_order(f, data.draw(all_orders))])) for f in A]
        B = data.draw(st.permutations(B)) + data.draw(st.lists(drawn_polys(1), max_size=1))
        for left, right in ((A, B), (B, A), (A, A)):
            assert (basis_set(left) == basis_set(right)) == (
                ref.basis_term_sets([f.terms for f in left]) == ref.basis_term_sets([f.terms for f in right]))


class TestRendererAgainstTerms:
    @given(drawn_polys(15))
    def test_matches_term_renderer_and_parses_back(self, f):
        assert render_poly(f) == ref.render_terms(f.terms)
        assert parse_poly(render_poly(f), f.order) == f
