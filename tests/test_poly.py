import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brim import (
    DEGREVLEX_X,
    InvalidInput,
    Monomial,
    Polynomial,
    PrimeField,
    RingSpec,
    Undefined,
    format_polynomial,
    parse_polynomial,
)
from brim.groebner import GroebnerBasis, normal_form
from brim.poly import compositions_desc, t_shifts

from .oracles import order_compare

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
    assert order_compare(u, v) == order_compare(u.mul(w), v.mul(w))


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
