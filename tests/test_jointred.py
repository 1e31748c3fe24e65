import itertools

import pytest

from brim import (
    QQ,
    GradedSubmodule,
    InvalidDegree,
    InvalidInput,
    NotDeskCase,
    NotMember,
    NotSubmodule,
    Polynomial,
    PrimeField,
    RingSpec,
    Verdict,
    converse_criterion,
    ebr,
    is_joint_reduction,
    is_reduction,
    mixed,
    mn_joint_reduction_witness,
    mprimary_check,
    parse_polynomial,
    rees_equivalence_check,
    risler_teissier_check,
    sample_superficial,
    verify_superficial,
)
from brim import jointred

from .oracles import monic, submodule_eq

R11 = RingSpec(d=1, p=1)
R21 = RingSpec(d=2, p=1)
R12 = RingSpec(d=1, p=2)


def mk(ring, gens, tdeg=1):
    return GradedSubmodule.from_gens(ring, tdeg, gens)


def P(text, ring=R21):
    return parse_polynomial(ring, text)


@pytest.fixture
def m():
    return mk(R21, ["x1*t1", "x2*t1"])


@pytest.fixture
def m2():
    return mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])


# -- sampling ----------------------------------------------------------------


def test_sample_deterministic(m):
    a = sample_superficial([m, m], 11)
    b = sample_superficial([m, m], 11)
    assert a.element == b.element and a.coefficients == b.coefficients
    c = sample_superficial([m, m], 12)
    assert c.element != a.element


def test_sample_single_generator():
    e = mk(R11, ["x1^2*t1"])
    cand = sample_superficial([e], 0)
    assert monic(cand.element) == e.gens[0]


def test_sample_element_in_span(m):
    cand = sample_superficial([m], 3)
    assert m.contains(cand.element)


# -- superficial verification -------------------------------------------------


def test_verify_superficial_linear_form(m, monkeypatch):
    monkeypatch.setattr(jointred, "N1_SPAN", 4)
    dec = verify_superficial(P("x1*t1"), [m])
    assert dec.verdict is Verdict.TRUE
    assert dec.window == {"c1": 1, "n1_span": 4, "other_max": 1, "q_max": 1}


def test_verify_superficial_zero_fails(m):
    dec = verify_superficial(Polynomial.zero(R21), [m])
    assert dec.verdict is Verdict.FALSE
    assert dec.counterexample is not None


def test_verify_superficial_wrong_degree(m):
    with pytest.raises(InvalidDegree):
        verify_superficial(P("x1*t1^2"), [m])


def test_verify_superficial_non_member(m2):
    with pytest.raises(NotMember):
        verify_superficial(P("x1*t1"), [m2])


def test_verify_superficial_pair(m):
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    cand = sample_superficial([m, i], 4)
    dec = verify_superficial(cand.element, [m, i])
    assert dec.verdict is Verdict.TRUE


# -- reduction decider --------------------------------------------------------


def test_is_reduction_positive(m2):
    u = mk(R21, ["x1^2*t1", "x2^2*t1"])
    dec = is_reduction(u, m2)
    assert dec.verdict is Verdict.TRUE and dec.witness_n0 == 1


def test_is_reduction_infinite_colength_is_permanent_failure(m2):
    u = mk(R21, ["x1^2*t1", "x1*x2*t1"])
    dec = is_reduction(u, m2, n_max=3)
    assert dec.verdict is Verdict.FALSE
    # the uncovered monomial is a pure power of the second variable
    assert "x2^" in dec.counterexample and "x1" not in dec.counterexample


def test_is_reduction_trivial(m2):
    dec = is_reduction(m2, m2)
    assert dec.verdict is Verdict.TRUE and dec.witness_n0 == 1


def test_is_reduction_requires_containment(m2):
    u = mk(R21, ["x1*t1"])
    with pytest.raises(NotSubmodule):
        is_reduction(u, m2)


def test_rees_equivalence_requires_containment(m2):
    with pytest.raises(NotSubmodule, match="U is not contained in E"):
        rees_equivalence_check(mk(R21, ["x1*t1"]), m2)


def test_rees_equivalence_tests_each_generator_once(m2, monkeypatch):
    """check rees tests U <= E once, before any multiplicity: past the
    primarity gates, U = (x1^2 t1, x2^2 t1) against m2 takes one membership
    test per generator of U, and a U outside E is a NotSubmodule that never
    reaches ebr."""
    u = mk(R21, ["x1^2*t1", "x2^2*t1"])
    u.primarity()
    m2.primarity()
    tested = []
    contains = GradedSubmodule.contains

    def counting(self, v):
        tested.append(str(v))
        return contains(self, v)

    monkeypatch.setattr(GradedSubmodule, "contains", counting)
    assert rees_equivalence_check(u, m2).decision.verdict is Verdict.TRUE
    assert sorted(tested) == ["x1^2*t1", "x2^2*t1"]

    def no_ebr(*args):
        raise AssertionError("a multiplicity was computed")

    monkeypatch.setattr(jointred, "ebr", no_ebr)
    with pytest.raises(NotSubmodule, match="U is not contained in E"):
        rees_equivalence_check(mk(R21, ["x1*t1"]), m2)


def test_is_reduction_propagation(m2):
    # every True verdict re-verifies at n0 + 1 (checked inside the decider;
    # re-check here explicitly)
    from brim import product
    from brim.groebner import GeneratorSet

    u = mk(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"])
    dec = is_reduction(u, m2)
    assert dec.verdict is Verdict.TRUE
    n = dec.witness_n0 + 1
    lhs = product(u, m2.power(n))
    rhs = m2.power(n + 1)
    assert submodule_eq(
        GeneratorSet(R21, lhs.tdeg, lhs.gens), GeneratorSet(R21, rhs.tdeg, rhs.gens)
    )


def test_is_reduction_takes_the_powers_of_e_from_a_shared_evaluator(m2, monkeypatch):
    from brim import Evaluator, hilbert

    ev = Evaluator()
    for n in (2, 3):
        ev.product_of_powers((m2,), (n,))
    formed = []
    real = hilbert.product

    def counting(a, b):
        formed.append(b)
        return real(a, b)

    monkeypatch.setattr(hilbert, "product", counting)
    u = mk(R21, ["x1^2*t1", "x2^2*t1"])
    dec = is_reduction(u, m2, evaluator=ev)
    assert dec.verdict is Verdict.TRUE and dec.witness_n0 == 1
    # only U E and U E^2 are formed: E^2 and E^3 are the memo's
    assert len(formed) == 2


# -- joint reduction decider --------------------------------------------------


def test_is_joint_reduction_positive(m):
    dec = is_joint_reduction([P("x1*t1"), P("x2*t1")], [m, m])
    assert dec.verdict is Verdict.TRUE and dec.witness_n0 == 1


def test_is_joint_reduction_repeated_element_fails(m, monkeypatch):
    """Both sides of each n ask for m^(2n-1), and the product memo forms it
    once: one sweep each picks the minimal generators of m^2, m^3, m^4 and
    m^5, named by their t-degree."""
    from brim import hilbert

    calls = []
    sweep = hilbert.minimal_sweep

    def counting(ring, tdeg, gens):
        calls.append(tdeg)
        return sweep(ring, tdeg, gens)

    monkeypatch.setattr(hilbert, "minimal_sweep", counting)
    dec = is_joint_reduction([P("x1*t1"), P("x1*t1")], [m, m], n_max=3)
    assert dec.verdict is Verdict.INCONCLUSIVE
    assert "x2^" in dec.counterexample
    assert calls == [2, 3, 4, 5]


def test_is_joint_reduction_membership_gate(m, m2):
    with pytest.raises(NotMember):
        is_joint_reduction([P("x1*t1"), P("x1*t1")], [m, m2])


def test_is_joint_reduction_element_contract(m):
    """One nonzero element per module, of that module's t-degree."""
    with pytest.raises(InvalidDegree, match="element t-degree does not match its module"):
        is_joint_reduction([P("x1*t1^2"), P("x2*t1")], [m, m])
    with pytest.raises(InvalidInput, match="need one element per module"):
        is_joint_reduction([P("x1*t1")], [m, m])


def test_joint_single_module_agrees_with_reduction():
    e = mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    x = P("x1^2*t1 + x2^2*t1")
    # (x) alone is never a joint reduction of m^2 here, and both deciders agree
    dec_joint = is_joint_reduction([x], [e], n_max=4)
    u = mk(R21, ["x1^2*t1 + x2^2*t1"])
    dec_red = is_reduction(u, e, n_max=4)
    assert (dec_joint.verdict is Verdict.TRUE) == (dec_red.verdict is Verdict.TRUE)


def test_joint_single_module_positive():
    e = mk(R11, ["x1^2*t1"])
    x = P("x1^2*t1", R11)
    dec = is_joint_reduction([x], [e])
    assert dec.verdict is Verdict.TRUE and dec.witness_n0 == 1


# -- (x_i) + m^n F witnesses --------------------------------------------------


def test_mn_witness_basic(m):
    dec = mn_joint_reduction_witness([P("x1*t1"), P("x2*t1")], 1)
    assert dec.verdict is Verdict.TRUE and dec.witness_n0 == 1


def test_mn_witness_above_nakayama_exponent():
    xs = [P("x1^2*t1"), P("x2*t1")]
    span = GradedSubmodule.from_gens(R21, 1, ["x1^2*t1", "x2*t1"])
    cert = mprimary_check(span)
    for n in range(cert.nakayama_exponent, cert.nakayama_exponent + 3):
        dec = mn_joint_reduction_witness(xs, max(n, 1))
        assert dec.verdict is Verdict.TRUE


def test_mn_witness_gate():
    from brim import InfiniteColength

    with pytest.raises(InfiniteColength):
        mn_joint_reduction_witness([P("x1*t1")], 1)


def test_mn_witness_checks_n_before_the_gate():
    """n = 0 is a user error whatever the elements: it is rejected before
    the span of (x1 t1), which has infinite colength, reaches the gate."""
    with pytest.raises(InvalidInput, match=r"^n must be >= 1$"):
        mn_joint_reduction_witness([P("x1*t1")], 0)


# -- Rees equivalence ---------------------------------------------------------


@pytest.mark.parametrize("n_max", [0, -2])
def test_deciders_reject_a_window_without_exponents(m, m2, n_max, monkeypatch):
    """n_max < 1 tests no exponent, so the verdict could only be inconclusive
    with no counterexample: every decider and every entry point that calls
    one rejects it before any product or multiplicity is formed."""
    from brim.hilbert import Evaluator

    def formed(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(Evaluator, "product_of_powers", formed)
    monkeypatch.setattr(Evaluator, "minimal_product", formed)
    u = mk(R21, ["x1^2*t1", "x2^2*t1"])
    xs = [P("x1*t1"), P("x2*t1")]
    for decide in [
        lambda: is_reduction(u, m2, n_max),
        lambda: rees_equivalence_check(u, m2, n_max),
        lambda: is_joint_reduction(xs, [m, m], n_max),
        lambda: mn_joint_reduction_witness(xs, 1, n_max),
        lambda: converse_criterion(xs, [m, m], n_max),
    ]:
        with pytest.raises(InvalidInput, match=r"n_max must be >= 1"):
            decide()


def test_rees_equivalence_positive(m2):
    u = mk(R21, ["x1^2*t1", "x2^2*t1"])
    rep = rees_equivalence_check(u, m2)
    assert rep.lhs_mult.value == rep.rhs_mult.value == 4
    assert rep.decision.verdict is Verdict.TRUE
    assert rep.consistent


def test_rees_equivalence_cubes():
    m3 = mk(R21, ["x1^3*t1", "x1^2*x2*t1", "x1*x2^2*t1", "x2^3*t1"])
    u = mk(R21, ["x1^3*t1", "x2^3*t1"])
    rep = rees_equivalence_check(u, m3)
    assert rep.lhs_mult.value == rep.rhs_mult.value == 9
    assert rep.consistent


def test_rees_equivalence_negative(m2):
    u = mk(R21, ["x1^2*t1", "x2^3*t1"])
    rep = rees_equivalence_check(u, m2)
    assert rep.lhs_mult.value == 6 and rep.rhs_mult.value == 4
    assert rep.decision.verdict is not Verdict.TRUE
    assert rep.consistent


# -- converse criterion -------------------------------------------------------


def test_converse_positive(m):
    rep = converse_criterion([P("x1*t1"), P("x2*t1")], [m, m])
    assert rep.lhs_mult.value == rep.rhs_mult.value == 1
    assert rep.decision.verdict is Verdict.TRUE and rep.consistent


def test_converse_negative(m):
    rep = converse_criterion([P("x1^2*t1"), P("x2*t1")], [m, m])
    assert rep.lhs_mult.value == 2 and rep.rhs_mult.value == 1
    assert rep.decision.verdict is not Verdict.TRUE
    assert rep.decision.counterexample is not None
    assert rep.consistent


def test_converse_mixed_modules(m):
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    rep = converse_criterion([P("x1*t1"), P("x2*t1")], [m, i])
    assert rep.lhs_mult.value == rep.rhs_mult.value == 1
    assert rep.decision.verdict is Verdict.TRUE and rep.consistent


def test_converse_desk_case_gate(m):
    with pytest.raises(NotDeskCase):
        converse_criterion([P("x1*t1")], [m])


def test_converse_element_degree_gate(m):
    with pytest.raises(InvalidDegree):
        converse_criterion([P("x1*t1^2"), P("x2*t1")], [m, m])


def test_converse_membership_gate(m, m2):
    with pytest.raises(NotMember):
        converse_criterion([P("x1*t1"), P("x1*t1 + x2*t1")], [m, m2])


# -- Risler-Teissier ----------------------------------------------------------


def test_risler_teissier_small():
    e = mk(R11, ["x1^2*t1"])
    rep = risler_teissier_check([e], (1,), seeds=(0, 1))
    assert rep.consistent
    assert set(rep.values_by_seed.values()) == {2}


def test_risler_teissier_pair(m):
    rep = risler_teissier_check([m, m], (1, 1), seeds=(0, 1, 2))
    assert rep.consistent
    assert rep.lhs_mult.value == 1
    assert set(rep.values_by_seed.values()) == {1}
    assert len(rep.candidates) == 6  # two elements per seed


def test_risler_teissier_forward_direction(m):
    """A verified joint reduction has matching mixed multiplicity (the
    forward theorem): check on the (x, y)/(m, m) fixture."""
    xs = [P("x1*t1"), P("x2*t1")]
    dec = is_joint_reduction(xs, [m, m])
    assert dec.verdict is Verdict.TRUE
    span = GradedSubmodule.from_gens(R21, 1, ["x1*t1", "x2*t1"])
    assert ebr(span).value == mixed([m, m], (1, 1)).value


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["QQ", "GF"])
def test_risler_samples_minimal_generators(field):
    """Q = (x1^2+x2^2, x1x2)t1 has the non-minimal x2^3*t1 in its reduced
    basis; sampling combines only the minimal generators, so every seed
    gives the mixed multiplicity."""
    ring = RingSpec(d=2, p=1, field=field)
    q = mk(ring, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"])
    mm = mk(ring, ["x1*t1", "x2*t1"])
    assert len(q.gens) == 3 and len(q.minimal_gens) == 2
    pair = risler_teissier_check([q, mm], (1, 1), seeds=(0, 1, 2))
    assert pair.consistent and pair.lhs_mult.value == 2
    assert pair.values_by_seed == {"0": 2, "1": 2, "2": 2}
    assert all(len(c.coefficients) == 2 for c in pair.candidates[::2])
    alone = risler_teissier_check([q], (2,), seeds=(0, 1, 2))
    assert alone.consistent and alone.lhs_mult.value == ebr(q).value == 4
    assert alone.values_by_seed == {"0": 4, "1": 4, "2": 4}


def test_one_type_vector_check(m):
    """mixed, assoc_mixed and the Risler-Teissier check share one check of
    the type vector, with the messages of mixed and assoc_mixed."""
    import re

    from brim import assoc_mixed

    cases = [
        ((1,), "type vector length must match the module count"),
        ((-1, 3), "type vector entries must be non-negative"),
        ((1, 2), "type vector must sum to d+p-1 = 2"),
    ]
    for dvec, message in cases:
        for check in (mixed, risler_teissier_check):
            with pytest.raises(InvalidInput, match=re.escape(message)):
                check([m, m], dvec)
    with pytest.raises(InvalidInput, match="type vector entries and j must be non-negative"):
        assoc_mixed([m], (1,), -1)
    with pytest.raises(InvalidInput, match=re.escape("j + |dvec| must equal d+p-1 = 2")):
        assoc_mixed([m], (1,), 0)


def test_risler_sampling_gate_rejects_off_origin_spans(m):
    """For the family (m, (x^2, y)) a generic sampled pair acquires a second
    zero away from the origin, so the global primarity gate rejects every
    sample rather than returning a wrong global length."""
    from brim import SuperficialSamplingFailed

    i = mk(R21, ["x1^2*t1", "x2*t1"])
    with pytest.raises(SuperficialSamplingFailed, match="primarity gate"):
        risler_teissier_check([m, i], (1, 1), seeds=(0,))


def test_verify_superficial_in_the_degree_two_slice():
    """For E1 of t-degree e = 2 a cell's U slice lies e * (n1 - 1 - c1) + q
    above E1^c1, in V's slice.  Over R21 with E = (x1, x2) t1^2, the sum of
    the generators and x1*t1^2 are superficial and zero is not."""
    e = mk(R21, ["x1*t1^2", "x2*t1^2"], tdeg=2)
    for x in ("x1*t1^2 + x2*t1^2", "x1*t1^2"):
        assert verify_superficial(P(x), [e]).verdict is Verdict.TRUE
    dec = verify_superficial(Polynomial.zero(R21), [e])
    assert dec.verdict is Verdict.FALSE
    assert dec.window["failed_cell"] == {"n": [3], "q": 0}


def test_verify_superficial_rejects_a_negative_c1(m):
    with pytest.raises(InvalidInput, match="c1 must be non-negative"):
        verify_superficial(P("x1*t1"), [m], c1=-1)


def test_verify_superficial_c1_zero(m, monkeypatch):
    # with c1 = 0 the degree-0 ambient cells have n1 = 1 = c1 + 1: not built
    monkeypatch.setattr(jointred, "N1_SPAN", 3)
    dec = verify_superficial(P("x1*t1"), [m], c1=0)
    assert dec.verdict is Verdict.TRUE
    assert dec.window == {"c1": 0, "n1_span": 3, "other_max": 1, "q_max": 1}


def test_joint_reduction_propagates_to_next_exponent(m):
    """A verified joint-reduction exponent also verifies one step higher."""
    from brim.hilbert import Evaluator
    from brim.jointred import _joint_lhs
    from brim.groebner import normal_form as nf
    from brim.poly import t_shifts
    from brim.rees import SubmoduleSpec

    i = mk(R21, ["x1^2*t1", "x2*t1"])
    xs = [P("x1*t1"), P("x2*t1")]
    dec = is_joint_reduction(xs, [m, i])
    assert dec.verdict is Verdict.TRUE
    ev = Evaluator()
    n = dec.witness_n0 + 1
    lhs = _joint_lhs(xs, (m, i), n, ev)
    rhs = ev.product_of_powers((m, i), (n, n))
    assert all(nf(g, lhs.basis).is_zero() for g in rhs.gens)
    # the equality carries no degree-q axis: both sides times the degree-q
    # t-monomials are again contained, so checking q >= 1 would add nothing
    assert dec.window == {"n_max": 6}
    for q in (1, 2):
        shifted = GradedSubmodule(
            SubmoduleSpec(R21, lhs.tdeg + q, t_shifts(R21, lhs.gens, q))
        )
        assert all(nf(g, shifted.basis).is_zero() for g in t_shifts(R21, rhs.gens, q))


def test_joint_lhs_matches_the_products_built_by_hand(m):
    """_joint_lhs takes each x_i times one Evaluator product; the span is
    sum_i x_i prod_{j != i} E_j (prod E)^(n-1) built with product and power,
    for distinct modules and for one non-homogeneous module twice."""
    from brim import product
    from brim.hilbert import Evaluator
    from brim.jointred import _joint_lhs
    from brim.rees import SubmoduleSpec

    i = mk(R21, ["x1^2*t1", "x2*t1"])
    a = mk(R21, ["x1^3*t1 + x2^2*t1", "x1*x2*t1", "x2^3*t1"])
    cases = [
        ([P("x1*t1"), P("x2*t1")], (m, i)),
        ([P("x1^3*t1 + x2^2*t1"), P("x1*x2*t1")], (a, a)),
    ]
    for xs, mods in cases:
        ev = Evaluator()
        whole = product(*mods)
        for n in range(1, 4):
            gens = []
            for k, x in enumerate(xs):
                (other,) = mods[:k] + mods[k + 1 :]
                part = other if n == 1 else product(other, whole.power(n - 1))
                gens.extend(x * g for g in part.gens)
            by_hand = GradedSubmodule(SubmoduleSpec(R21, 2 * n, gens))
            lhs = _joint_lhs(xs, mods, n, ev)
            assert [str(g) for g in lhs.basis] == [str(g) for g in by_hand.basis], n


def test_superficial_check_without_kept_standard_monomials_is_a_limit(m, monkeypatch):
    """A V or W slice quotient with more standard monomials than
    ``WITNESS_QUOTIENT_CAP``, the bound on the quotients the witness eliminates
    on, stops the check with ResourceLimit rather than passing the zero
    candidate unexamined."""
    from brim import ResourceLimit

    monkeypatch.setattr(jointred, "WITNESS_QUOTIENT_CAP", 2)
    with pytest.raises(ResourceLimit, match=r"3 standard monomials \(cap 2\)"):
        verify_superficial(Polynomial.zero(R21), [m])


def test_superficial_limits_name_the_cell(m, monkeypatch):
    """With c1 = 1 no slice is built for the cells with n1 <= 2, so a cap of
    2 is first hit by the V slice m^2 of the cell n = [3], q = 0, whose
    quotient has three standard monomials."""
    from brim import ResourceLimit

    monkeypatch.setattr(jointred, "WITNESS_QUOTIENT_CAP", 2)
    with pytest.raises(
        ResourceLimit,
        match=r"^superficial cell n=\[3\], q=0: slice quotient of t-degree 2 has 3 ",
    ):
        verify_superficial(Polynomial.zero(R21), [m])


def test_superficial_witness_cap_reads_the_counts_before_building_slices(m, monkeypatch):
    """The failing cell n = [3], q = 0 has counted l(A/V) = 3 for V = m^2,
    so a cap of 2 stops the check on that count, before any of the cell's
    three slices is built."""
    from brim import ResourceLimit

    built = []
    real = jointred.build_slice_submodule

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(jointred, "build_slice_submodule", counting)
    monkeypatch.setattr(jointred, "WITNESS_QUOTIENT_CAP", 2)
    with pytest.raises(
        ResourceLimit,
        match=r"^superficial cell n=\[3\], q=0: slice quotient of t-degree 2 has 3 "
        r"standard monomials \(cap 2\)$",
    ):
        verify_superficial(Polynomial.zero(R21), [m])
    assert len(built) == 0


def test_verify_superficial_counts_lengths_without_buchberger(monkeypatch):
    """Over (mF, mF, mF) with c1 = 1 only the 8 cells with n1 = 3 are
    tested, each by four length cells.  The three factors are one class, so
    with r = r2 + r3 a cell reads V = mF^(2+r) S_q, U = mF^(1+r) S_(1+q),
    W = mF^(3+r) S_q and W + xU: 12 distinct plain cells (mF^s S_q for
    s = 2..5 at q = 0, s = 1..5 at q = 1, s = 1..3 at q = 2) and 6 W + xU
    cells (r = 0, 1, 2 at q = 0, 1).  Every cell is graded, so Buchberger
    never runs."""
    from brim import hilbert, rees

    ring = RingSpec(d=2, p=2, field=PrimeField(32003))
    mf = mk(ring, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    mods = (mf, mf, mf)
    cand = sample_superficial(mods, 0)
    mf.primarity()
    calls, cells = [], []
    real_buchberger, real_cell = rees.buchberger, hilbert._length_uncached

    def counting(spec):
        calls.append(spec)
        return real_buchberger(spec)

    def counting_cell(query, evaluator):
        cells.append(query)
        return real_cell(query, evaluator)

    monkeypatch.setattr(rees, "buchberger", counting)
    monkeypatch.setattr(hilbert, "_length_uncached", counting_cell)
    dec = verify_superficial(cand.element, mods)
    assert dec.verdict is Verdict.TRUE
    assert len(calls) == 0
    assert len(cells) == 18
    plain = {(q.exponents[0], q.qdeg) for q in cells if not q.quotient_elems}
    assert plain == (
        {(s, 0) for s in range(2, 6)} | {(s, 1) for s in range(1, 6)} | {(s, 2) for s in range(1, 4)}
    )


def _superficial_by_linear_algebra(x, modules, c1=1, quotient_elems=()):
    """verify_superficial's outcome from linear algebra alone: the first
    window cell on whose slices multiplication by x is not injective from
    U/V into A'/W.  Every window cell is tried where U and V can be built
    (U's slack is non-negative and the slice degree positive)."""
    from brim.hilbert import Evaluator, LengthQuery, build_slice_submodule

    modules = tuple(modules)
    e = modules[0].tdeg
    ev = Evaluator()
    lo = max(c1, 1)
    for n1 in range(lo, lo + jointred.N1_SPAN + 1):
        for rest in itertools.product(range(jointred.OTHER_MAX + 1), repeat=len(modules) - 1):
            for q in range(jointred.Q_MAX + 1):
                slack = e * (n1 - 1 - c1) + q
                v_exps = (n1 - 1,) + rest
                if slack < 0 or sum(m.tdeg * n for m, n in zip(modules, v_exps)) + q < 1:
                    continue
                u, v, w = (
                    build_slice_submodule(LengthQuery(modules, exps, s, quotient_elems), ev)
                    for exps, s in (((c1,) + rest, slack), (v_exps, q), ((n1,) + rest, q))
                )
                witness = jointred._injective_on_quotient(x, u, v, w)
                if witness is not None:
                    return Verdict.FALSE, {"n": [n1, *rest], "q": q}, str(witness)
    return Verdict.TRUE, None, None


R22G = RingSpec(d=2, p=2, field=PrimeField(32003))
MF22 = ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]
E12 = ["x1^2*t1+x1^3*t2", "x1^3*t2"]  # not x-homogeneous


def _superficial_cases():
    """(id, candidate, modules, c1, quotient elements) for the cross-check."""
    m, m2 = mk(R21, ["x1*t1", "x2*t1"]), mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    mf, e12 = mk(R22G, MF22), mk(R12, E12)
    sets = {"m-m2": (m, m2), "m2-m": (m2, m), "m2": (m2,), "mF-mF": (mf, mf), "E12-E12": (e12, e12)}
    cases = []
    for name, mods in sets.items():
        for seed in range(2):
            x = sample_superficial(mods, seed).element
            cases.append((f"{name}-seed-{seed}", x, mods, 1, ()))
            if len(mods) > 1:
                # the next position of a sampled sequence, modulo the first element
                y = sample_superficial(mods[1:], f"{seed}#1").element
                cases.append((f"{name}-seed-{seed}-position-1", y, mods[1:], 1, (x,)))
    x_mf, x_e12 = sample_superficial((mf,), 0).element, sample_superficial((e12,), 0).element
    cases += [
        # a candidate modulo itself acts as zero
        ("mF-modulo-itself", x_mf, (mf,), 1, (x_mf,)),
        ("E12-modulo-itself", x_e12, (e12,), 1, (x_e12,)),
        ("x1x2-on-I-m", P("x1*x2*t1"), (i, m), 1, ()),
        ("zero-on-m", Polynomial.zero(R21), (m,), 1, ()),
        ("zero-on-m-m2", Polynomial.zero(R21), (m, m2), 1, ()),
        ("zero-on-E12", Polynomial.zero(R12), (e12,), 1, ()),
        ("x1-on-m-c1-0", P("x1*t1"), (m,), 0, ()),
        ("zero-on-m-c1-0", Polynomial.zero(R21), (m,), 0, ()),
        ("E12-c1-0", x_e12, (e12,), 0, ()),
        ("x1-on-m-m-c1-2", P("x1*t1"), (m, m), 2, ()),
        ("zero-on-m2-c1-2", Polynomial.zero(R21), (m2,), 2, ()),
        ("x1x2-on-I-m-c1-2", P("x1*x2*t1"), (i, m), 2, ()),
    ]
    # graded modules modulo a non-x-homogeneous element: W + xU is formed from
    # the minimal generators of the graded product, the cell itself is not graded
    a = P("x1^3*t1 + x2^2*t1")
    cases += [
        ("m2-seed-0-modulo-a", sample_superficial((m2,), 0).element, (m2,), 1, (a,)),
        ("m-m2-seed-0-modulo-a", sample_superficial((m, m2), 0).element, (m, m2), 1, (a,)),
        ("x1-on-m-c1-0-modulo-a", P("x1*t1"), (m,), 0, (a,)),
        ("zero-on-m-modulo-a", Polynomial.zero(R21), (m,), 1, (a,)),
    ]
    return cases


@pytest.mark.parametrize(
    "x, mods, c1, elems",
    [case[1:] for case in _superficial_cases()],
    ids=[case[0] for case in _superficial_cases()],
)
def test_counting_verdict_matches_linear_algebra_on_every_cell(x, mods, c1, elems):
    """Equal lengths of U/V and its image under x decide each cell; linear
    algebra run on every window cell's slices gives the same verdict,
    failing cell and counterexample."""
    dec = verify_superficial(x, mods, c1=c1, quotient_elems=elems)
    verdict, cell, counterexample = _superficial_by_linear_algebra(x, mods, c1, elems)
    assert dec.verdict is verdict
    assert dec.window.get("failed_cell") == cell
    assert dec.counterexample == counterexample


def test_counts_that_differ_without_a_witness_are_an_internal_error(m, monkeypatch):
    """The zero candidate fails at n = [3], q = 0, where U/V = m t1 / m^2
    has length 2 and its image 0; linear algebra that finds x injective
    there contradicts the count."""
    from brim import InternalError

    monkeypatch.setattr(jointred, "_injective_on_quotient", lambda *args: None)
    with pytest.raises(
        InternalError,
        match=r"^superficial cell n=\[3\], q=0: l\(U/V\) = 2 but l\(\(xU \+ W\)/W\) = 0,",
    ):
        verify_superficial(Polynomial.zero(R21), [m])


def test_a_limit_in_a_count_cell_names_the_superficial_cell(m, monkeypatch):
    """A graded length cell over STANDARD_MONOMIAL_CAP is a limit error that
    names the superficial cell: with a cap of 2 the first count, V = m^2 of
    the cell n = [3], q = 0 with 3 standard monomials, exceeds it."""
    from brim import ResourceLimit, hilbert

    monkeypatch.setattr(hilbert, "STANDARD_MONOMIAL_CAP", 2)
    with pytest.raises(
        ResourceLimit,
        match=r"^superficial cell n=\[3\], q=0: length cell n=\[2\], q=0, t-degree 2: "
        r"more than 2 standard monomials",
    ):
        verify_superficial(P("x1*t1"), [m])


def test_verify_superficial_false_verdict_through_shared_slices(m):
    """x1*x2*t1 is in I = (x1^2, x2)t1 but is not superficial for (I, m):
    the colon equality fails at the cell whose V slice is the W slice of the
    earlier cell n = [2, 0], q = 0."""
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    dec = verify_superficial(P("x1*x2*t1"), [i, m])
    assert dec.verdict is Verdict.FALSE
    assert dec.counterexample == "x1*x2*t1^2"
    assert dec.window["failed_cell"] == {"n": [3, 0], "q": 0}


def test_is_reduction_failed_propagation_is_an_internal_error(m2, monkeypatch):
    from brim import InternalError, jointred

    calls = []

    def first_missing(target, inside):
        calls.append(target)
        return None if len(calls) == 1 else "x1^3*t1^3"

    monkeypatch.setattr(jointred, "_first_missing", first_missing)
    u = mk(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"])
    with pytest.raises(InternalError, match=r"E\^3 = U E\^2 fails"):
        is_reduction(u, m2)


def test_parameter_span_ebr_is_cross_checked_against_colength(m, monkeypatch):
    """By Buchsbaum-Rim a finite-colength span of d+p-1 elements has
    l(F^n/E^n) = l(F/E) * C(n+D-1, D); a computed cell off by one is an
    internal error in both theorem checkers.  The span is the one degree-1
    module other than the fixture m whose cell n = 2 is asked for."""
    from brim import InternalError
    from brim.hilbert import Evaluator

    real_length = Evaluator.length

    def off_at_two(self, query):
        value = real_length(self, query)
        span_cell = query.exponents == (2,) and query.modules[0] is not m
        return value + 1 if span_cell else value

    monkeypatch.setattr(Evaluator, "length", off_at_two)
    message = r"parameter span cell n=2: computed length 4, closed form .* = 3$"
    with pytest.raises(InternalError, match=message):
        converse_criterion([P("x1*t1"), P("x2*t1")], [m, m])
    with pytest.raises(InternalError, match=message):
        risler_teissier_check([m, m], (1, 1), seeds=(0,))


# (name, d, p, generators) of parameter spans: D = d+p-1 elements, finite colength
PARAMETER_SPANS = [
    ("R21", 2, 1, ["x1^2*t1+x2^2*t1", "x1*x2*t1"]),
    ("R12", 1, 2, ["x1*t1+x1^2*t2", "x1^2*t2"]),  # not x-homogeneous
    # (x1 t1, x2 t1 + c x1 t2, x2 t2 + c' x1 t1), a benchmark parameter module
    ("R22", 2, 2, ["x1*t1", "x2*t1+3*x1*t2", "x2*t2+7*x1*t1"]),
]
PARAMETER_SPAN_CASES = [
    pytest.param(RingSpec(d, p, field), gens, id=f"{name}-{label}")
    for name, d, p, gens in PARAMETER_SPANS
    for label, field in (("QQ", QQ), ("GF", PrimeField(32003)))
] + [
    pytest.param(
        RingSpec(3, 2, PrimeField(32003)),
        ["x1*t1", "x2*t1+x1*t2", "x3*t1+x2*t2", "x3*t2"],
        id="R32-GF",  # D = 4
    )
]


@pytest.mark.parametrize("ring, gens", PARAMETER_SPAN_CASES)
def test_parameter_span_ebr_equals_the_full_window(ring, gens):
    """The parameter-span e_BR, whose table beyond n = N_CHECK is the
    Buchsbaum-Rim closed form, equals ``ebr``'s, every cell of whose window
    is computed: value, certificate and table."""
    from brim.hilbert import Evaluator

    span = mk(ring, gens)
    fast = jointred._parameter_ebr(span, Evaluator())
    full = ebr(span)
    assert fast.table.window[0][1] > jointred.N_CHECK
    assert (fast.value, fast.kind, fast.certificate) == (full.value, full.kind, full.certificate)
    assert fast.table.to_json() == full.table.to_json()
