import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brim import (
    DEGREVLEX_X,
    QQ,
    InvalidInput,
    Monomial,
    Polynomial,
    PrimeField,
    ResourceLimit,
    RingSpec,
    Undefined,
    format_polynomial,
    parse_polynomial,
)
from brim.groebner import GroebnerBasis, normal_form
from brim.poly import compositions_desc, t_shifts

from .oracles import monomial_product, order_compare

R21 = RingSpec(d=2, p=1)
R22 = RingSpec(d=2, p=2)


def P(text, ring=R22):
    return parse_polynomial(ring, text)


def test_mul_single_terms():
    assert P("x1*t1") * P("x2*t2") == P("x1*x2*t1*t2")


def test_mul_difference_of_squares():
    assert P("x1 + x2") * P("x1 - x2") == P("x1^2 - x2^2")


def test_mul_by_zero():
    f = P("x1*t1 + 3*x2*t2")
    assert (f * Polynomial.zero(R22)).is_zero()


def test_mul_ring_mismatch():
    with pytest.raises(InvalidInput):
        P("x1*t1") * parse_polynomial(R21, "x1*t1")


def test_bidegree_examples():
    assert P("x1*t1 + x2*t2").bidegree() == (1, 1)
    assert P("x1^2*t1 + x2*t1").bidegree() == ("mixed", 1)
    assert P("t1*t2").bidegree() == (0, 2)


def test_bidegree_of_zero_undefined():
    with pytest.raises(Undefined):
        Polynomial.zero(R22).bidegree()


def test_order_compare_degrevlex():
    x2 = Monomial((0,), (2, 0))
    xy = Monomial((0,), (1, 1))
    assert order_compare(x2, xy) == 1
    assert order_compare(xy, xy) == 0


def test_order_compare_positions():
    t1 = Monomial((1, 0), (0, 0))
    t2 = Monomial((0, 1), (0, 0))
    assert order_compare(t1, t2) == 1


def test_orders_differ_across_tdeg():
    t1 = Monomial((1, 0), (0, 0))
    t2sq = Monomial((0, 2), (0, 0))
    assert order_compare(t1, t2sq) == 1


# -- random polynomials -----------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9).map(Fraction)
exps = st.integers(min_value=0, max_value=4)


@st.composite
def polynomials(draw, ring=R22):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = []
    for _ in range(n):
        texp = tuple(draw(exps) for _ in range(ring.p))
        xexp = tuple(draw(exps) for _ in range(ring.d))
        terms.append((Monomial(texp, xexp), draw(coeffs)))
    return Polynomial(ring, terms)


@st.composite
def monomials(draw, ring=R22):
    texp = tuple(draw(exps) for _ in range(ring.p))
    xexp = tuple(draw(exps) for _ in range(ring.d))
    return Monomial(texp, xexp)


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials(), monomials())
def test_order_multiplicative(u, v, w):
    assert order_compare(u, v) == order_compare(monomial_product(u, w), monomial_product(v, w))


def _reference_compare(u, v):
    """1, 0 or -1 as u >, =, < v: positions lexicographically first, then
    total x-degree, then reverse lex on x (at the last x-variable where they
    differ, the smaller exponent wins)."""
    for a, b in zip(u.texp, v.texp):
        if a != b:
            return 1 if a > b else -1
    du, dv = sum(u.xexp), sum(v.xexp)
    if du != dv:
        return 1 if du > dv else -1
    for a, b in zip(reversed(u.xexp), reversed(v.xexp)):
        if a != b:
            return 1 if a < b else -1
    return 0


@st.composite
def monomial_lists(draw):
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    small = st.integers(0, 3)
    mono = st.builds(
        Monomial, st.tuples(*[small] * p), st.tuples(*[small] * d)
    )
    return draw(st.lists(mono, min_size=2, max_size=8))


@settings(max_examples=300, deadline=None)
@given(monomial_lists())
def test_order_matches_an_independent_comparator(monos):
    for u, v in itertools.product(monos, repeat=2):
        assert order_compare(u, v) == _reference_compare(u, v), (u, v)
    expected = sorted(monos, key=functools.cmp_to_key(_reference_compare))
    assert sorted(monos, key=DEGREVLEX_X.key) == expected


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_parse_print_roundtrip(f):
    assert parse_polynomial(R22, format_polynomial(f)) == f


@pytest.mark.parametrize(
    "text",
    [
        "x1^2*t1 + x2*t1",
        "1/2*x1 - 3*x2^4",
        "t1^2*t2 - t2^3 + 7",
        "0",
        "x1*x1*t1",  # repeated factors accumulate
    ],
)
def test_roundtrip_fixtures(text):
    f = P(text)
    assert parse_polynomial(R22, format_polynomial(f)) == f


@st.composite
def ring_polynomials(draw):
    """A polynomial over R21, R22, R32 or R13, over QQ or GF(7), from up to
    six distinct monomials with exponents below 5 and integral, rational or
    negative coefficients (denominators invertible mod 7); with the
    {Monomial: coefficient} dict it was built from."""
    d, p = draw(st.sampled_from([(2, 1), (2, 2), (3, 2), (1, 3)]))
    ring = RingSpec(d=d, p=p, field=draw(st.sampled_from([QQ, PrimeField(7)])))
    mono = st.builds(Monomial, st.tuples(*[exps] * p), st.tuples(*[exps] * d))
    coeff = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
    terms = draw(st.dictionaries(mono, coeff, max_size=6))
    return Polynomial(ring, terms), terms


@settings(max_examples=300, deadline=None)
@given(ring_polynomials())
def test_terms_follow_the_tuple_order_and_the_text_round_trips(drawn):
    """Packed terms decode to the monomials they were built from;
    ``terms()`` lists them descending and ``leading_term()`` is the first,
    both by the tuple order of ``oracles.order_compare``; printing and
    parsing give the polynomial back."""
    f, terms = drawn
    field = f.ring.field
    assert dict(f.items()) == {m: field.coerce(c) for m, c in terms.items() if field.coerce(c)}
    listed = [m for m, _ in f.terms()]
    assert all(order_compare(a, b) == 1 for a, b in zip(listed, listed[1:]))
    assert sorted(listed, key=DEGREVLEX_X.key, reverse=True) == listed
    assert dict(f.terms()) == dict(f.items())
    if f:
        assert f.leading_term() == f.terms()[0]
    assert parse_polynomial(f.ring, str(f)) == f


def test_rational_and_negative_coefficients_round_trip():
    """A QQ coefficient is an int when integral and a Fraction otherwise;
    either prints and parses back to itself."""
    f = parse_polynomial(R22, "1/2*x1*t1 - 3/4*x2*t2 + 6/3*x1^2*t2 - 5")
    assert str(f) == "1/2*x1*t1 + 2*x1^2*t2 - 3/4*x2*t2 - 5"
    assert parse_polynomial(R22, str(f)) == f
    assert [type(c) for _, c in f.terms()] == [Fraction, int, Fraction, int]


def test_a_negative_exponent_is_invalid_input():
    """A negative exponent would borrow from its neighbour's slot, so the
    constructor and ``mul_term`` refuse it."""
    with pytest.raises(InvalidInput, match="negative exponent"):
        Polynomial(R21, {Monomial((-1,), (0, 2)): 3})
    with pytest.raises(InvalidInput, match="negative exponent"):
        Polynomial(R22, [(Monomial((0, 1), (2, -1)), 1)])
    with pytest.raises(InvalidInput, match="negative exponent"):
        P("x1*x2*t1").mul_term(Monomial((0, 0), (0, -1)), 1)


def test_a_degree_at_the_slot_base_is_a_limit():
    """Products, ``mul_term`` and ``t_shifts`` check the degree they form
    against the 16-bit slot base, for x and for t, and never carry into the
    next slot; one below the base is exact."""
    big = P("x1^40000*t1", R21)
    with pytest.raises(ResourceLimit, match=r"^degree 70000 reaches the slot base 65536$"):
        big * P("x1^30000*t1", R21)
    assert str(big * P("x1^25535*t1", R21)) == "x1^65535*t1^2"
    with pytest.raises(ResourceLimit, match=r"^degree 70000 reaches the slot base 65536$"):
        P("x1*t1^40000") * P("x2*t2^30000")
    with pytest.raises(ResourceLimit, match=r"^degree 65536 reaches the slot base 65536$"):
        P("x2^65535*t2").mul_term(Monomial((0, 0), (1, 0)), 2)
    with pytest.raises(ResourceLimit, match=r"^degree 65536 reaches the slot base 65536$"):
        t_shifts(R22, [P("x1*t1^65000")], 536)
    assert t_shifts(R22, [P("x1*t1^65000")], 535)[0] == P("x1*t1^65535")
    with pytest.raises(ResourceLimit, match=r"^degree 65536 reaches the slot base 65536$"):
        P("x1^65536")


def test_parse_rejects_garbage():
    with pytest.raises(InvalidInput):
        P("x1 + @")
    with pytest.raises(InvalidInput):
        P("x9")
    with pytest.raises(InvalidInput):
        P("x1 ^")


def test_compositions_of_a_negative_total_are_none():
    for parts in (1, 2, 3):
        assert list(compositions_desc(-1, parts)) == []
        assert list(compositions_desc(0, parts)) == [(0,) * parts]


@pytest.mark.parametrize("ring", [R22, RingSpec(d=2, p=3)])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), deg=st.integers(min_value=0, max_value=3))
def test_t_shifts_matches_the_nested_loop(ring, data, deg):
    polys = data.draw(st.lists(polynomials(ring), max_size=4))
    # degree-deg t-exponents, lex descending, enumerated independently
    positions = sorted(
        (e for e in itertools.product(range(deg + 1), repeat=ring.p) if sum(e) == deg),
        reverse=True,
    )
    expected = [
        g * Polynomial.from_monomial(ring, Monomial(pos, (0,) * ring.d))
        for g in polys
        for pos in positions
    ]
    got = t_shifts(ring, polys, deg)
    assert got == expected
    assert [[m for m, _ in g.items()] for g in got] == [
        [m for m, _ in g.items()] for g in expected
    ]
    if deg == 0:
        assert got == polys and all(a is not b for a, b in zip(got, polys))


# -- QQ against GF(p) ---------------------------------------------------------
# Integer coefficients make every QQ result below integral, and reducing it
# mod p must give the GF(p) result: coefficients up to 300 wrap both moduli.

int_coeffs = st.integers(min_value=-300, max_value=300)


@st.composite
def integer_terms(draw, tdeg=None):
    """(monomial, int) pairs over R22, t-homogeneous of degree tdeg if given;
    repeated monomials are summed by the constructor."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if tdeg is None:
            texp = (draw(exps), draw(exps))
        else:
            texp = draw(st.sampled_from(list(compositions_desc(tdeg, 2))))
        terms.append((Monomial(texp, (draw(exps), draw(exps))), draw(int_coeffs)))
    return terms


def residues(f, p):
    """The integral QQ polynomial f's coefficients mod p, zeros dropped."""
    assert all(c.denominator == 1 for _, c in f.items())
    return {m: c.numerator % p for m, c in f.items() if c.numerator % p}


def gf_terms(f, p):
    """f's terms, checked to be residues in [0, p)."""
    terms = dict(f.items())
    assert all(type(c) is int and 0 < c < p for c in terms.values())
    return terms


@pytest.mark.parametrize("p", [7, 32003])
@settings(max_examples=150, deadline=None)
@given(integer_terms(), integer_terms(), monomials(), int_coeffs)
def test_gf_arithmetic_is_qq_arithmetic_mod_p(p, f_terms, g_terms, mono, c):
    gf = RingSpec(d=2, p=2, field=PrimeField(p))
    f, g = Polynomial(R22, f_terms), Polynomial(R22, g_terms)
    fp, gp = Polynomial(gf, f_terms), Polynomial(gf, g_terms)
    for qq, mod_p in [
        (f, fp),
        (f + g, fp + gp),
        (f - g, fp - gp),
        (-f, -fp),
        (f * g, fp * gp),
        (f.scale(c), fp.scale(c)),
        (f.mul_term(mono, c), fp.mul_term(mono, c)),
    ]:
        assert gf_terms(mod_p, p) == residues(qq, p)


@pytest.mark.parametrize("p", [7, 32003])
@settings(max_examples=100, deadline=None)
@given(st.lists(integer_terms(tdeg=1), min_size=1, max_size=3), integer_terms(tdeg=1))
def test_gf_normal_form_is_qq_normal_form_mod_p(p, divisor_terms, v_terms):
    """Division by integer divisors whose leading coefficient is one takes
    the same steps over both fields, so it commutes with reduction mod p;
    the divisors need not form a Groebner basis."""
    gf = RingSpec(d=2, p=2, field=PrimeField(p))
    divisors = []
    for terms in divisor_terms:
        f = Polynomial(R22, terms)
        if f:
            lt, _ = f.leading_term()
            divisors.append({m: 1 if m == lt else c.numerator for m, c in f.items()})
    assume(divisors)
    v = Polynomial(R22, v_terms)
    rem = normal_form(v, GroebnerBasis(R22, 1, [Polynomial(R22, d) for d in divisors]))
    basis_p = GroebnerBasis(gf, 1, [Polynomial(gf, d) for d in divisors])
    rem_p = normal_form(Polynomial(gf, v_terms), basis_p)
    assert gf_terms(rem_p, p) == residues(rem, p)


@pytest.mark.parametrize(
    "field, text, message",
    [
        (QQ, "", "empty polynomial text"),
        (QQ, "x1*t1 +", "dangling sign in polynomial text"),
        (QQ, "x1*t1 2", "unexpected token '2' in polynomial text"),
        (QQ, "1/0*x1*t1", "zero denominator"),
        (PrimeField(7), "1/7*x1*t1", "denominator 7 not invertible mod 7"),
    ],
    ids=["empty", "dangling-sign", "unexpected-token", "zero-denominator", "gf-denominator"],
)
def test_malformed_polynomial_text(field, text, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        parse_polynomial(RingSpec(d=2, p=1, field=field), text)


def test_the_zero_polynomial_has_no_leading_term():
    from brim import Undefined

    with pytest.raises(Undefined, match="^leading term of the zero polynomial$"):
        Polynomial.zero(R21).leading_term()


def test_a_monomial_of_other_dimensions_has_no_code():
    from brim.poly import packing

    with pytest.raises(InvalidInput, match="^monomial does not match ring dimensions$"):
        packing(R22).code(Monomial((1,), (1, 0)))

