import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brim import (
    GeneratorSet,
    GradedSubmodule,
    InfiniteColength,
    InvalidInput,
    PrimarityCertificate,
    PrimeField,
    RingSpec,
    SubmoduleSpec,
    SupportOffOrigin,
    mprimary_check,
    parse_polynomial,
    product,
)

from .oracles import embed_w, submodule_eq

R11 = RingSpec(d=1, p=1)
R21 = RingSpec(d=2, p=1)
R22 = RingSpec(d=2, p=2)
R12 = RingSpec(d=1, p=2)


def mk(ring, gens, tdeg=1):
    return GradedSubmodule.from_gens(ring, tdeg, gens)


def spans_equal(a, b):
    return submodule_eq(
        GeneratorSet(a.ring, a.tdeg, a.gens), GeneratorSet(b.ring, b.tdeg, b.gens)
    )


def test_embed_w_unit_vector():
    assert embed_w(R22, ["1", "0"]) == parse_polynomial(R22, "t1")


def test_embed_w_linear_vector():
    assert embed_w(R22, ["x1", "x2"]) == parse_polynomial(R22, "x1*t1 + x2*t2")


def test_embed_w_zero():
    assert embed_w(R22, ["0", "0"]).is_zero()


def test_embed_w_wrong_length():
    with pytest.raises(InvalidInput):
        embed_w(R22, ["x1"])


def test_embed_w_injective_on_fixture_vectors():
    vectors = [["x1", "x2"], ["x1^2", "0"], ["x2", "x1 + x2"]]
    for vec in vectors:
        assert not embed_w(R22, vec).is_zero()


def test_power_single_generator():
    e = mk(R11, ["x1*t1"])
    cube = e.power(3)
    assert cube.tdeg == 3
    assert [str(g) for g in cube.gens] == ["x1^3*t1^3"]


def test_power_two_generators():
    e = mk(R21, ["x1*t1", "x2*t1"])
    sq = e.power(2)
    assert spans_equal(sq, mk(R21, ["x1^2*t1^2", "x1*x2*t1^2", "x2^2*t1^2"], tdeg=2))


def test_power_rank_two():
    e = mk(R12, ["x1^2*t1", "x1^3*t2"])
    sq = e.power(2)
    expected = mk(R12, ["x1^4*t1^2", "x1^5*t1*t2", "x1^6*t2^2"], tdeg=2)
    assert spans_equal(sq, expected)


def test_product_single_terms():
    a = mk(R21, ["x1*t1"])
    b = mk(R21, ["x2*t1"])
    ab = product(a, b)
    assert [str(g) for g in ab.gens] == ["x1*x2*t1^2"]


def test_product_commutes_with_power():
    m = mk(R21, ["x1*t1", "x2*t1"])
    assert spans_equal(product(m, m), m.power(2))


def test_product_ring_mismatch():
    with pytest.raises(InvalidInput):
        product(mk(R21, ["x1*t1"]), mk(R11, ["x1*t1"]))


def test_power_additivity():
    fixtures = [
        mk(R21, ["x1*t1", "x2*t1"]),
        mk(R11, ["x1^2*t1"]),
        mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]),
        mk(R21, ["x1^2*t1 + x2*t1", "x2^2*t1"]),
    ]
    for e in fixtures:
        for a, b in [(1, 1), (1, 2), (2, 1), (3, 1)]:
            lhs = e.power(a + b)
            rhs = product(e.power(a), e.power(b))
            assert spans_equal(lhs, rhs)


def test_mprimary_mF_certificate():
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    cert = mprimary_check(mf)
    assert cert.colength == 2
    assert cert.nakayama_exponent == 1


def test_mprimary_infinite():
    with pytest.raises(InfiniteColength):
        mprimary_check(mk(R21, ["x1*t1"]))


def test_mprimary_support_off_origin():
    # (x^2 - x) has colength 2 but vanishes at x = 1 as well
    with pytest.raises(SupportOffOrigin, match=r"colength 2 is finite but x1\^2\*t1 is outside"):
        mprimary_check(mk(R11, ["x1^2*t1 - x1*t1"]))


def test_mprimary_certificate_of_a_high_colength_module_of_small_degree():
    """m^400 over R21: colength C(401, 2) = 80200, above the slot base, while
    every generator has degree 400.  The gate walks x_i^n * mu by normal
    forms and never forms x_i^80200; x_i^400 is the least pure power."""
    gf = RingSpec(d=2, p=1, field=PrimeField(32003))
    m400 = mk(gf, [f"x1^{400 - k}*x2^{k}*t1" for k in range(401)])
    assert mprimary_check(m400) == PrimarityCertificate(colength=80200, nakayama_exponent=799)


def test_mprimary_implies_powers_finite():
    fixtures = [
        mk(R21, ["x1*t1", "x2*t1"]),
        mk(R21, ["x1^2*t1", "x2*t1"]),
        mk(R12, ["x1^2*t1", "x1^3*t2"]),
    ]
    for e in fixtures:
        mprimary_check(e)
        for n in range(1, 5):
            assert e.power(n).colength_report().finite


def test_from_vectors_matches_embed():
    sub = GradedSubmodule.from_vectors(R22, 1, [["x1", "x2"], ["0", "x1^2"]])
    expected = GradedSubmodule(
        SubmoduleSpec(
            R22,
            1,
            [embed_w(R22, ["x1", "x2"]), embed_w(R22, ["0", "x1^2"])],
        )
    )
    assert spans_equal(sub, expected)


def test_slice_degree_zero_is_rejected():
    with pytest.raises(InvalidInput, match="slice degree must be >= 1"):
        GradedSubmodule(SubmoduleSpec(R21, 0, []))
    with pytest.raises(InvalidInput, match="slice degree must be >= 1"):
        GradedSubmodule(SubmoduleSpec(R21, 0, [parse_polynomial(R21, "x1")]))


def test_zero_generators_dropped():
    sub = GradedSubmodule.from_gens(R11, 1, ["0", "x1*t1"])
    assert len(sub.spec.gens) == 1


def _strings(polys):
    return sorted(str(g) for g in polys)


def test_minimal_gens_keep_a_monomial_basis_monomial():
    e = mk(R21, ["x1*t1 + x2*t1", "x2*t1"])
    assert _strings(e.minimal_gens) == ["x1*t1", "x2*t1"]


def test_minimal_gens_drop_the_bloat_of_the_reduced_basis():
    e = mk(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"])
    assert "x2^3*t1" in _strings(e.gens)
    assert _strings(e.minimal_gens) == ["x1*x2*t1", "x1^2*t1 + x2^2*t1"]


def test_minimal_gens_of_a_non_homogeneous_basis_is_none():
    assert mk(R21, ["x1^2*t1 + x2^3*t1"]).minimal_gens is None


def _m_times(e):
    """m*E, presented by x_i times each generator."""
    ring = e.ring
    xs = [parse_polynomial(ring, f"x{i + 1}") for i in range(ring.d)]
    return GradedSubmodule(SubmoduleSpec(ring, e.tdeg, [x * g for x in xs for g in e.gens]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([R21, R22, R12, RingSpec(d=3, p=1)]),
    st.integers(3, 4),
    st.lists(st.integers(0, 40), min_size=1, max_size=4),
    st.lists(st.integers(-2, 2), min_size=6, max_size=6),
)
def test_minimal_gens_number_dim_e_mod_m_e(ring, pure, picks, coeffs):
    """A minimal generating set spans E and has dim_k(E / mE) elements,
    where dim_k(E / mE) = l(F / mE) - l(F / E) comes from two Buchberger
    colengths.  Pure powers make every drawn module m-primary; the quadrics
    often put pure powers and basis elements of degree 3 into mE."""
    gens = [
        f"x{i + 1}^{pure}*t{j + 1}" for i in range(ring.d) for j in range(ring.p)
    ]
    monos = [
        f"x{a + 1}*x{b + 1}*t{j + 1}"
        for a in range(ring.d)
        for b in range(a, ring.d)
        for j in range(ring.p)
    ]
    for k, pick in enumerate(picks):
        first, second = monos[pick % len(monos)], monos[(pick * 7 + k) % len(monos)]
        gens.append(f"{coeffs[k] or 1}*{first} + {coeffs[k + 1]}*{second}")
    e = mk(ring, gens)
    minimal = e.minimal_gens
    assert minimal is not None
    assert set(minimal) <= set(e.gens)
    assert spans_equal(e, GradedSubmodule(SubmoduleSpec(ring, 1, minimal)))
    quotient_dim = _m_times(e).colength_report().value - e.colength_report().value
    assert len(minimal) == quotient_dim
