import contextlib
import random
import re
import signal
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brim import (
    GeneratorSet,
    InternalError,
    InvalidInput,
    Monomial,
    Polynomial,
    ResourceLimit,
    RingSpec,
    buchberger,
    colength,
    contains,
    normal_form,
    parse_polynomial,
)
from brim import groebner
from brim.groebner import STANDARD_MONOMIAL_CAP, GroebnerBasis
from brim.poly import MonomialOrder, t_monomials
from brim.ring import QQ, PrimeField

from .oracles import (
    box_scan_colength,
    divides,
    monomial_module_colength,
    reference_buchberger,
    reference_divide,
    spair,
    submodule_eq,
)

R11 = RingSpec(d=1, p=1)
R21 = RingSpec(d=2, p=1)
R22 = RingSpec(d=2, p=2)


def gset(ring, gens, tdeg=1):
    return GeneratorSet(ring, tdeg, tuple(parse_polynomial(ring, g) for g in gens))


def test_buchberger_already_reduced():
    basis = buchberger(gset(R21, ["x1*t1", "x2*t1"]))
    assert sorted(str(g) for g in basis) == ["x1*t1", "x2*t1"]


def test_buchberger_one_reduction_step():
    basis = buchberger(gset(R21, ["x1*t1", "x1*t1 + x2*t1"]))
    assert sorted(str(g) for g in basis) == ["x1*t1", "x2*t1"]


def test_buchberger_redundant_member_removed():
    basis = buchberger(gset(R11, ["x1^2*t1", "x1^3*t1", "x1^2*t1 + x1^3*t1"]))
    assert [str(g) for g in basis] == ["x1^2*t1"]


def test_buchberger_rejects_mixed_tdeg():
    f = parse_polynomial(R21, "x1*t1")
    g = parse_polynomial(R21, "x1*t1^2")
    with pytest.raises(InvalidInput):
        GeneratorSet(R21, 1, (f, g))


def test_normal_form_member_is_zero():
    basis = buchberger(gset(R21, ["x1*t1", "x2*t1"]))
    v = parse_polynomial(R21, "x1^2*t1 + x1*x2*t1")
    assert normal_form(v, basis).is_zero()


def test_normal_form_idempotent():
    basis = buchberger(gset(R21, ["x1^2*t1", "x2^2*t1"]))
    v = parse_polynomial(R21, "x1^3*t1 + x1*x2*t1 + x2*t1")
    r = normal_form(v, basis)
    assert normal_form(r, basis) == r


def test_normal_form_single_division():
    basis = buchberger(gset(R11, ["x1^2*t1"]))
    v = parse_polynomial(R11, "x1^3*t1 + x1*t1")
    assert normal_form(v, basis) == parse_polynomial(R11, "x1*t1")


def test_normal_form_degree_mismatch():
    basis = buchberger(gset(R11, ["x1^2*t1"]))
    with pytest.raises(InvalidInput):
        normal_form(parse_polynomial(R11, "x1*t1^2"), basis)


def test_contains_examples():
    basis = buchberger(gset(R21, ["x1^2*t1", "x2^2*t1"]))
    assert contains(basis, parse_polynomial(R21, "x1^2*x2*t1"))
    assert not contains(basis, parse_polynomial(R21, "x1*x2*t1"))
    assert contains(basis, Polynomial.zero(R21))


def test_submodule_eq():
    a = gset(R21, ["x1*t1", "x2*t1"])
    b = gset(R21, ["x2*t1", "x1*t1 + x2*t1"])
    assert submodule_eq(a, b)
    assert not submodule_eq(gset(R11, ["x1^2*t1"]), gset(R11, ["x1*t1"]))
    assert submodule_eq(a, a)


def test_submodule_eq_tdeg_mismatch():
    a = gset(R11, ["x1*t1"])
    b = GeneratorSet(R11, 2, (parse_polynomial(R11, "x1*t1^2"),))
    with pytest.raises(InvalidInput):
        submodule_eq(a, b)


def test_colength_mF():
    basis = buchberger(
        gset(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    )
    rep = colength(basis)
    assert rep.finite and rep.value == 2


def test_colength_x_squared():
    basis = buchberger(gset(R11, ["x1^2*t1"]))
    rep = colength(basis)
    assert rep.value == 2


def test_colength_infinite():
    basis = buchberger(gset(R22, ["x1*t1", "x1*t2"]))
    rep = colength(basis)
    assert not rep.finite and rep.value is None


def test_buchberger_spairs_reduce_to_zero():
    """Post-hoc correctness: every same-position S-pair has normal form 0."""
    sets = [
        gset(R21, ["x1^2*t1 + x2*t1", "x1*x2*t1 + x2^2*t1", "x2^3*t1"]),
        gset(R22, ["x1*t1 + x2*t2", "x2*t1 + x1*t2", "x1^2*t2"]),
        gset(R21, ["x1^3*t1 - x2*t1", "x2^2*t1 - x1*t1"]),
    ]
    for gs in sets:
        basis = buchberger(gs)
        elems = list(basis)
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                li, _ = elems[i].leading_term()
                lj, _ = elems[j].leading_term()
                if li.texp != lj.texp:
                    continue
                assert normal_form(spair(elems[i], elems[j]), basis).is_zero()


def test_basis_spans_generators_both_ways():
    gs = gset(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1 - x2^2*t1", "x2^3*t1"])
    basis = buchberger(gs)
    for g in gs.gens:
        assert contains(basis, g)
    regenerated = buchberger(GeneratorSet(R21, 1, basis.elements))
    for g in basis:
        assert contains(regenerated, g)


def test_colength_matches_monomial_oracle_randomized():
    rng = random.Random(5)
    for _ in range(25):
        ring = random.Random(rng.random()).choice([R11, R21, R22])
        tdeg = rng.choice([1, 2])
        monos = []
        for _ in range(rng.randint(1, 6)):
            texp = [0] * ring.p
            texp[rng.randrange(ring.p)] = tdeg
            if ring.p > 1 and tdeg == 2 and rng.random() < 0.5:
                texp = [1] * 2
            xexp = tuple(rng.randint(0, 3) for _ in range(ring.d))
            monos.append(Monomial(tuple(texp), xexp))
        gens = [Polynomial.from_monomial(ring, m, 1) for m in monos]
        basis = buchberger(GeneratorSet(ring, tdeg, tuple(gens)))
        rep = colength(basis)
        expected = monomial_module_colength(ring, tdeg, monos)
        if expected is None:
            assert not rep.finite
        else:
            assert rep.value == expected


def test_colength_matches_linear_algebra_oracle():
    """Cross-check the staircase colength against truncated multiplication
    matrices on non-monomial generator sets."""
    from brim import GradedSubmodule, mprimary_check

    from .oracles import linear_algebra_colength

    fixtures = [
        (R21, 1, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"]),
        (R21, 1, ["x1^2*t1 + x1*x2*t1", "x2^2*t1"]),
        (R22, 1, ["x1*t1", "x2*t2", "x1*t2 + x2*t1"]),
        (R21, 2, ["x1*t1^2 + x2*t1^2", "x2^2*t1^2"]),
        (R21, 1, ["x1^2*t1 + x2^3*t1", "x1*x2*t1"]),
    ]
    for ring, tdeg, gens in fixtures:
        sub = GradedSubmodule.from_gens(ring, tdeg, gens)
        value = sub.colength_report().value
        cert = mprimary_check(sub)
        oracle = linear_algebra_colength(
            ring, tdeg, sub.spec.gens, cert.nakayama_exponent + 1
        )
        assert value == oracle, (gens, value, oracle)


def _random_generators(rng, ring, tdeg, count):
    from brim.poly import compositions_desc

    gens = []
    positions = [tuple(t) for t in compositions_desc(tdeg, ring.p)]
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 3)):
            pos = rng.choice(positions)
            xexp = tuple(rng.randint(0, 3) for _ in range(ring.d))
            coeff = Fraction(rng.randint(-4, 4))
            terms.append((Monomial(pos, xexp), coeff))
        gens.append(Polynomial(ring, terms))
    return [g for g in gens if g]


def test_buchberger_matches_criterion_free_reference():
    rng = random.Random(17)
    rings = [R11, R21, R22]
    for trial in range(30):
        ring = rings[trial % len(rings)]
        tdeg = 1 + (trial % 2 if ring.p > 1 else 0)
        gens = _random_generators(rng, ring, tdeg, rng.randint(2, 4))
        if not gens:
            continue
        gs = GeneratorSet(ring, tdeg, tuple(gens))
        fast = buchberger(gs)
        slow, _ = reference_buchberger(gs)
        assert [str(g) for g in fast] == [str(g) for g in slow], (trial, gens)


# ---------------------------------------------------------------------------
# packed Buchberger and division against the textbook reference on tuples

COEFFICIENTS = [1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-5, 3)]


@st.composite
def generator_sets(draw):
    """Two to four generators of one to three terms over R21, R22, R31 or
    R12 and QQ, GF(32003) or GF(7), in the degree-1 slice or, with two
    positions or more, the degree-2 slice; at least one generator is not a
    monomial, so the packed Buchberger runs.  Exponents stay below 4, and
    below 3 over R31, where the reference's pairs grow fastest."""
    d, p = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (1, 2)]))
    field = draw(st.sampled_from([QQ, PrimeField(32003), PrimeField(7)]))
    ring = RingSpec(d=d, p=p, field=field)
    tdeg = draw(st.integers(1, 2)) if p > 1 else 1
    positions = [tuple(pos) for pos in t_monomials(ring, tdeg)]
    terms = st.lists(
        st.tuples(
            st.sampled_from(positions),
            st.tuples(*[st.integers(0, 2 if d > 2 else 3)] * d),
            st.sampled_from(COEFFICIENTS),
        ),
        min_size=1,
        max_size=3,
    )
    gens = [
        Polynomial(ring, [(Monomial(pos, x), c) for pos, x, c in drawn])
        for drawn in draw(st.lists(terms, min_size=2, max_size=4))
    ]
    assume(any(g.num_terms() > 1 for g in gens))
    return GeneratorSet(ring, tdeg, gens)


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_buchberger_matches_the_textbook_reference(gs):
    """Elements and leading monomials, in order: the reduced basis is unique,
    so the Gebauer-Moeller criteria, the sugar queue and the packed codes
    change nothing."""
    basis = buchberger(gs)
    elements, lts = reference_buchberger(gs)
    assert basis.elements == tuple(elements)
    assert basis.lts == tuple(lts)


@settings(max_examples=150, deadline=None)
@given(generator_sets(), st.data())
def test_normal_form_matches_reference_division(gs, data):
    """By the reduced basis the remainder is unique; by the monic generators,
    which need not be a Groebner basis, both divisions take the first
    divisor whose leading monomial divides the largest divisible term, so
    the remainders agree there too."""
    ring = gs.ring
    positions = [tuple(pos) for pos in t_monomials(ring, gs.tdeg)]
    term = st.tuples(
        st.sampled_from(positions), st.tuples(*[st.integers(0, 4)] * ring.d),
        st.sampled_from(COEFFICIENTS),
    )
    v = Polynomial(ring, [(Monomial(pos, x), c) for pos, x, c in data.draw(st.lists(term, max_size=6))])
    basis = buchberger(gs)
    assert normal_form(v, basis) == reference_divide(v, list(basis.elements))
    divisors = GroebnerBasis(ring, gs.tdeg, gs.gens)
    assert normal_form(v, divisors) == reference_divide(v, list(divisors.elements))


def test_buchberger_deterministic_output():
    gs = gset(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1 - x2^2*t1", "x2^3*t1"])
    a = [str(g) for g in buchberger(gs)]
    b = [str(g) for g in buchberger(gs)]
    assert a == b


def test_colength_invariant_under_span_preserving_changes():
    rng = random.Random(23)
    for trial in range(10):
        gens = _random_generators(rng, R21, 1, 3)
        if not gens:
            continue
        gs = GeneratorSet(R21, 1, tuple(gens))
        mixed_in = list(gens)
        for _ in range(2):
            a, b = rng.choice(gens), rng.choice(gens)
            mixed_in.append(a + b.scale(rng.randint(1, 3)))
        gs2 = GeneratorSet(R21, 1, tuple(mixed_in))
        assert submodule_eq(gs, gs2)
        v1 = colength(buchberger(gs))
        v2 = colength(buchberger(gs2))
        assert v1.finite == v2.finite and v1.value == v2.value


FIXTURE = Path(__file__).parent / "data" / "reduced_bases.txt"


def _fixture_cases():
    """(ring, tdeg, generators, expected basis strings) from the fixture file,
    written by scripts/make_basis_fixture.py with an earlier Buchberger."""
    cases = []
    for line in FIXTURE.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        kind, rest = line.split(" ", 1)
        if kind == "case":
            d, p, field, tdeg = rest.split()
            ring = RingSpec(d=int(d), p=int(p), field=QQ if field == "QQ" else PrimeField(int(field)))
            cases.append((ring, int(tdeg), [], []))
        elif kind == "gen":
            cases[-1][2].append(parse_polynomial(cases[-1][0], rest))
        else:
            cases[-1][3].append(rest)
    return cases


def test_buchberger_matches_committed_fixture():
    cases = _fixture_cases()
    assert len(cases) == 40
    for n, (ring, tdeg, gens, expected) in enumerate(cases):
        basis = buchberger(GeneratorSet(ring, tdeg, tuple(gens)))
        assert [str(g) for g in basis] == expected, n


def test_buchberger_invariant_under_permuted_and_duplicated_generators():
    rng = random.Random(31)
    for n, (ring, tdeg, gens, expected) in enumerate(_fixture_cases()):
        shuffled = gens + [rng.choice(gens), gens[0].scale(3)]
        rng.shuffle(shuffled)
        basis = buchberger(GeneratorSet(ring, tdeg, tuple(shuffled)))
        assert [str(g) for g in basis] == expected, n


def test_buchberger_ignores_redundant_inputs():
    """Inputs padded with x_i-multiples and sums of generators, all of which
    reduce to zero once the basis holds the originals."""
    rng = random.Random(43)
    for n, (ring, tdeg, gens, expected) in enumerate(_fixture_cases()):
        padded = list(gens)
        for g in gens:
            i = rng.randrange(ring.d)
            shift = Monomial((0,) * ring.p, tuple(int(j == i) for j in range(ring.d)))
            padded.append(g.mul_term(shift, 1))
        for _ in range(len(gens)):
            padded.append(rng.choice(gens) + rng.choice(gens).scale(rng.randint(1, 3)))
        rng.shuffle(padded)
        basis = buchberger(GeneratorSet(ring, tdeg, tuple(padded)))
        assert [str(g) for g in basis] == expected, n


def _assert_reduced(basis):
    """Monic, leading terms pairwise indivisible, no term divisible by another
    element's leading term, and every same-position S-pair reduces to 0."""
    elems = list(basis)
    lts = basis.lts
    for i, g in enumerate(elems):
        assert g.leading_term()[1] == basis.ring.field.one
        for j, lt in enumerate(lts):
            if i == j:
                continue
            assert not any(divides(lt, m) for m, _ in g.items()), (str(g), str(elems[j]))
            if lts[i].texp == lt.texp:
                assert normal_form(spair(g, elems[j]), basis).is_zero()


def test_buchberger_output_is_a_reduced_basis():
    for ring, tdeg, gens, _ in _fixture_cases():
        _assert_reduced(buchberger(GeneratorSet(ring, tdeg, tuple(gens))))
    rng = random.Random(41)
    for trial in range(20):
        ring = [R21, R22][trial % 2]
        gens = _random_generators(rng, ring, 1 + trial % 2, rng.randint(3, 5))
        if gens:
            _assert_reduced(buchberger(GeneratorSet(ring, 1 + trial % 2, tuple(gens))))


def test_pair_cap_message_names_the_sizes_reached(monkeypatch):
    from brim import groebner

    monkeypatch.setattr(groebner, "PAIR_CAP", 3)
    gs = gset(R21, ["x1^2*t1 + x2*t1", "x1*x2*t1 + x2^2*t1", "x2^3*t1"])
    with pytest.raises(ResourceLimit) as info:
        buchberger(gs)
    msg = str(info.value)
    assert "t-degree 1 slice" in msg
    assert "3 pairs processed" in msg
    assert "from 3 input generators" in msg
    assert "pair cap 3" in msg
    assert re.search(r"basis reached \d+ elements", msg), msg


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_basis_with_a_wrong_leading_monomial_raises():
    g = parse_polynomial(R21, "x1*x2*t1 + x2*t1")
    with _deadline(1.0):
        with pytest.raises(InternalError):  # not a term of g
            GroebnerBasis(R21, 1, [g], [Monomial((1,), (0, 2))])
        with pytest.raises(InternalError):  # a term, but not with coefficient one
            GroebnerBasis(R21, 1, [g.scale(2)], [Monomial((1,), (1, 1))])
        with pytest.raises(InternalError):
            GroebnerBasis(R21, 1, [g], [])
        # x2*t1 is a term of g with coefficient one, but not its leading one:
        # dividing by it would trade x2*t1 for x1*x2*t1, then x1^2*x2*t1, ...
        basis = GroebnerBasis(R21, 1, [g], [Monomial((1,), (0, 1))])
        with pytest.raises(InternalError, match="does not sort below"):
            normal_form(parse_polynomial(R21, "x2*t1"), basis)
        # x2*t2 is not the leading term of x1*t1 + x2*t2 either: dividing by it
        # forms x1*t1 at the higher position, which no divisor there would
        # ever reduce, so without the check the remainder would be -x1*t1
        h = parse_polynomial(R22, "x1*t1 + x2*t2")
        basis = GroebnerBasis(R22, 1, [h], [Monomial((0, 1), (0, 1))])
        with pytest.raises(InternalError, match="does not sort below"):
            normal_form(parse_polynomial(R22, "x2*t2"), basis)


# ---------------------------------------------------------------------------
# the column count against the box scan and inclusion-exclusion


@st.composite
def monomial_modules(draw):
    """Monomial generators of a slice: most pure powers at every position,
    so that most draws are finite, plus a few random monomials."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 2))
    tdeg = draw(st.integers(1, 2))
    ring = RingSpec(d=d, p=p)
    positions = [tuple(pos) for pos in t_monomials(ring, tdeg)]
    monos = []
    for pos in positions:
        for i in range(d):
            if draw(st.integers(0, 5)):
                a = draw(st.integers(1, 4))
                monos.append(Monomial(pos, tuple(a if j == i else 0 for j in range(d))))
    extra = st.tuples(st.sampled_from(positions), st.tuples(*[st.integers(0, 3)] * d))
    monos += [Monomial(pos, xe) for pos, xe in draw(st.lists(extra, max_size=5))]
    assume(monos)
    return ring, tdeg, monos


@settings(max_examples=300, deadline=None)
@given(
    monomial_modules(),
    st.one_of(st.just(STANDARD_MONOMIAL_CAP), st.integers(1, 40)),
)
def test_colength_matches_the_box_scan_and_inclusion_exclusion(module, cap):
    """Every report field and the cap."""
    ring, tdeg, monos = module
    gens = tuple(Polynomial.from_monomial(ring, m, 1) for m in monos)
    basis = buchberger(GeneratorSet(ring, tdeg, gens))
    expected = monomial_module_colength(ring, tdeg, monos)
    try:
        finite, value = box_scan_colength(basis, cap)
    except ResourceLimit:
        with mock.patch.object(groebner, "STANDARD_MONOMIAL_CAP", cap):
            with pytest.raises(ResourceLimit):
                colength(basis)
        return
    with mock.patch.object(groebner, "STANDARD_MONOMIAL_CAP", cap):
        rep = colength(basis)
    assert (rep.finite, rep.value) == (finite, value)
    assert rep.value == expected


def test_colength_limits_name_the_cap_and_the_size_reached(monkeypatch):
    """x1^2 and x2^2 at both positions of R22 leave two boxes of 4 standard
    monomials, counted one column of 2 at a time."""
    monos = [Monomial(pos, xe) for pos in ((1, 0), (0, 1)) for xe in ((2, 0), (0, 2))]
    basis = buchberger(
        GeneratorSet(R22, 1, tuple(Polynomial.from_monomial(R22, m, 1) for m in monos))
    )
    monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_CAP", 3)
    with pytest.raises(
        ResourceLimit, match=r"^the pure-power box at t1 holds 4 monomials \(standard monomial cap 3\)$"
    ):
        colength(basis)
    monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_CAP", 5)
    with pytest.raises(ResourceLimit, match=r"^the standard monomial count reached 6 \(cap 5\)$"):
        colength(basis)
    monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_CAP", 8)
    assert colength(basis).value == 8


def test_colength_counts_without_a_term_order_key():
    """The eight pure powers x1^4 and x2^5 at the four degree-3 positions of
    R22 leave 4 * 4 * 5 = 80 standard monomials; counting them calls
    ``MonomialOrder.key`` on none, as a list sorted in term order would on
    each."""
    positions = [tuple(pos) for pos in t_monomials(R22, 3)]
    monos = [Monomial(pos, xe) for pos in positions for xe in ((4, 0), (0, 5))]
    basis = buchberger(
        GeneratorSet(R22, 3, tuple(Polynomial.from_monomial(R22, m, 1) for m in monos))
    )
    calls = []
    real_key = MonomialOrder.key

    def counted(self, m):
        calls.append(m)
        return real_key(self, m)

    with mock.patch.object(MonomialOrder, "key", counted):
        rep = colength(basis)
    assert (rep.finite, rep.value) == box_scan_colength(basis, STANDARD_MONOMIAL_CAP)
    assert rep.value == 80
    assert calls == []


@settings(max_examples=300, deadline=None)
@given(monomial_modules(), st.data())
def test_colength_of_a_basis_that_is_not_reduced(module, data):
    """A dominated leading monomial changes neither a pure-power bound nor a
    column height: the reduced basis with one strict multiple of each
    element added, in any order, gives the same report."""
    ring, tdeg, monos = module
    gens = tuple(Polynomial.from_monomial(ring, m, 1) for m in monos)
    reduced = buchberger(GeneratorSet(ring, tdeg, gens))
    padded = list(reduced.elements)
    for lt in reduced.lts:
        shift = list(data.draw(st.tuples(*[st.integers(0, 2)] * ring.d)))
        shift[data.draw(st.integers(0, ring.d - 1))] += 1
        multiple = Monomial(lt.texp, tuple(a + b for a, b in zip(lt.xexp, shift)))
        padded.append(Polynomial.from_monomial(ring, multiple, 1))
    padded = data.draw(st.permutations(padded))
    assert colength(GroebnerBasis(ring, tdeg, padded)) == colength(reduced)
