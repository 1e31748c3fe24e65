import pytest

from brim import (
    Evaluator,
    GradedSubmodule,
    InvalidInput,
    LengthQuery,
    LengthTable,
    RingSpec,
    WindowTooSmall,
    assoc_mixed,
    ebr,
    finite_difference,
    length,
    mixed,
    table,
    tilde_ebr,
)

from .oracles import echelon_sweep, length_m_power, length_mF_power

R11 = RingSpec(d=1, p=1)
R21 = RingSpec(d=2, p=1)
R22 = RingSpec(d=2, p=2)
R12 = RingSpec(d=1, p=2)


def mk(ring, gens, tdeg=1):
    return GradedSubmodule.from_gens(ring, tdeg, gens)


@pytest.fixture
def m(request):
    return mk(R21, ["x1*t1", "x2*t1"])


def test_length_univariate_staircase():
    e = mk(R11, ["x1^2*t1"])
    assert length(LengthQuery((e,), (3,))) == 6


def test_length_mF():
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    assert length(LengthQuery((mf,), (2,))) == 9


def test_length_bigraded():
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    assert length(LengthQuery((m, i), (1, 1))) == 4


def test_length_requires_positive_exponent():
    m = mk(R21, ["x1*t1", "x2*t1"])
    with pytest.raises(InvalidInput):
        length(LengthQuery((m,), (0,)))


def test_table_univariate():
    e = mk(R11, ["x1^2*t1"])
    t = table([e], [(1, 5)])
    assert [t.values[(n,)] for n in range(1, 6)] == [2, 4, 6, 8, 10]


def test_table_mF_values():
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    t = table([mf], [(1, 4)])
    assert [t.values[(n,)] for n in range(1, 5)] == [2, 9, 24, 50]
    assert [length_mF_power(n) for n in range(1, 5)] == [2, 9, 24, 50]


def test_table_bigraded_corners():
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    t = table([m, i], [(1, 2), (1, 2)])
    assert t.values == {(1, 1): 4, (2, 1): 7, (1, 2): 9, (2, 2): 13}


def test_evaluator_computes_a_repeated_cell_once(monkeypatch):
    from brim import hilbert

    calls = []
    uncached = hilbert._length_uncached

    def counting(query, evaluator):
        calls.append(query)
        return uncached(query, evaluator)

    monkeypatch.setattr(hilbert, "_length_uncached", counting)
    e = mk(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"])
    twin = GradedSubmodule(e.spec)
    ev = Evaluator()
    value = ev.length(LengthQuery((e,), (2,)))
    assert ev.length(LengthQuery((e,), (2,))) == value
    assert len(calls) == 1
    # equal submodules, distinct objects: the memo keys on the submodule class
    assert ev.length(LengthQuery((twin,), (2,))) == value
    assert len(calls) == 1
    prod = ev.product_of_powers((e,), (2,))
    assert ev.product_of_powers((e,), (2,)) is prod
    assert ev.product_of_powers((twin,), (2,)) is prod
    # unequal submodules keep separate cells
    m, i = mk(R21, ["x1*t1", "x2*t1"]), mk(R21, ["x1^2*t1", "x2*t1"])
    assert ev.length(LengthQuery((m,), (1,))) == 1
    assert ev.length(LengthQuery((i,), (1,))) == 2
    assert len(calls) == 3


def test_finite_difference_first_order():
    t = LengthTable(("n1",), ((1, 4),), {(n,): v for n, v in zip(range(1, 5), [2, 4, 6, 8])})
    d = finite_difference(t, (1,))
    assert [d.values[(n,)] for n in range(1, 4)] == [2, 2, 2]


def test_finite_difference_higher_orders():
    vals = [2, 9, 24, 50, 90, 147]
    t = LengthTable(("n1",), ((1, 6),), {(n,): v for n, v in zip(range(1, 7), vals)})
    d2 = finite_difference(t, (2,))
    assert [d2.values[(n,)] for n in range(1, 5)] == [8, 11, 14, 17]
    d3 = finite_difference(t, (3,))
    assert [d3.values[(n,)] for n in range(1, 4)] == [3, 3, 3]


def test_finite_difference_of_constant():
    t = LengthTable(("n1",), ((1, 4),), {(n,): 7 for n in range(1, 5)})
    d = finite_difference(t, (1,))
    assert all(v == 0 for v in d.values.values())


def test_finite_difference_window_too_small():
    t = LengthTable(("n1",), ((1, 2),), {(1,): 1, (2,): 2})
    with pytest.raises(WindowTooSmall):
        finite_difference(t, (2,))


def test_ebr_fixtures():
    assert ebr(mk(R11, ["x1^2*t1"])).value == 2
    assert ebr(mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])).value == 3
    assert ebr(mk(R12, ["x1^2*t1", "x1^3*t2"])).value == 5


def test_ebr_rejects_higher_degree():
    e = mk(R11, ["x1^2*t1"]).power(2)
    with pytest.raises(InvalidInput):
        ebr(e)


def test_tilde_ebr_power_scaling():
    e = mk(R11, ["x1^2*t1"])
    assert tilde_ebr(e.power(2)).value == 4
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    assert tilde_ebr(mf.power(2)).value == 24


def test_tilde_ebr_equals_ebr_at_degree_one():
    for e in [mk(R21, ["x1^2*t1", "x2*t1"]), mk(R12, ["x1^2*t1", "x1^3*t2"])]:
        assert tilde_ebr(e).value == ebr(e).value


def test_mixed_fixture_with_corner_values():
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    res = mixed([m, i], (1, 1))
    assert res.value == 1
    for corner, expected in {(1, 1): 4, (2, 1): 7, (1, 2): 9, (2, 2): 13}.items():
        assert res.table.values[corner] == expected


def test_mixed_m_m():
    m = mk(R21, ["x1*t1", "x2*t1"])
    assert mixed([m, m], (1, 1)).value == 1


def test_mixed_single_module_collapses_to_ebr():
    for e in [mk(R21, ["x1^2*t1", "x2*t1"]), mk(R12, ["x1^2*t1", "x1^3*t2"])]:
        assert mixed([e], (e.ring.d + e.ring.p - 1,)).value == ebr(e).value


def test_one_module_mixed_rejects_a_degree_deficient_table_like_ebr(monkeypatch):
    from brim import DegreeDeficiency, hilbert

    # a constant nonzero table: every top-order difference is 0
    monkeypatch.setattr(hilbert.Evaluator, "length", lambda self, query: 5)
    m = mk(R21, ["x1*t1", "x2*t1"])
    with pytest.raises(DegreeDeficiency):
        ebr(m)
    with pytest.raises(DegreeDeficiency):
        mixed([m], (2,))


def test_mixed_permutation_invariance():
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    assert mixed([m, i], (1, 1)).value == mixed([i, m], (1, 1)).value
    m2 = mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    assert mixed([m2, m], (1, 1)).value == mixed([m, m2], (1, 1)).value


def test_mixed_validates_type_vector():
    m = mk(R21, ["x1*t1", "x2*t1"])
    with pytest.raises(InvalidInput):
        mixed([m, m], (1, 2))
    with pytest.raises(InvalidInput):
        mixed([m], (1, 1))


def test_assoc_mixed_q_free_table():
    e = mk(R11, ["x1^2*t1"])
    assert assoc_mixed([e], (0,), 1).value == 0


def test_assoc_mixed_j_zero_is_mixed():
    e = mk(R11, ["x1^2*t1"])
    assert assoc_mixed([e], (1,), 0).value == ebr(e).value == 2
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    assert assoc_mixed([m, i], (1, 1), 0).value == mixed([m, i], (1, 1)).value


def test_assoc_mixed_mF():
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    assert assoc_mixed([mf], (2,), 1).value == 1


def test_monotonicity_under_shrinking():
    m = mk(R21, ["x1*t1", "x2*t1"])
    m2 = mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    # L_i <= E_i componentwise implies mixed(L) >= mixed(E)
    assert mixed([m2, m], (1, 1)).value >= mixed([m, m], (1, 1)).value
    assert mixed([i, i], (1, 1)).value >= mixed([m, i], (1, 1)).value


def test_power_scaling_law():
    fixtures = [
        mk(R11, ["x1^2*t1"]),
        mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]),
        mk(R12, ["x1^2*t1", "x1^3*t2"]),
    ]
    for e in fixtures:
        base = ebr(e).value
        D = e.ring.d + e.ring.p - 1
        for r in (2, 3):
            assert tilde_ebr(e.power(r)).value == base * r**D


def test_last_argument_scaling():
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    for es in ([m, m], [m, i]):
        base = mixed(es, (1, 1)).value
        for l in (2, 3):
            scaled = mixed([es[0], es[1].power(l)], (1, 1)).value
            assert scaled == l * base


def test_table_monotone_in_each_axis():
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    t = table([m, i], [(1, 4), (1, 4)])
    for (a, b), v in t.values.items():
        if (a + 1, b) in t.values:
            assert t.values[(a + 1, b)] >= v
        if (a, b + 1) in t.values:
            assert t.values[(a, b + 1)] >= v


def test_length_table_json_roundtrip():
    m = mk(R21, ["x1*t1", "x2*t1"])
    t = table([m], [(1, 4)], q_window=(0, 2))
    doc = t.to_json()
    back = LengthTable.from_json(doc)
    assert back.axes == t.axes and back.window == t.window and back.values == t.values


def test_quotient_elements_cut_length():
    # modding out a linear form reduces l(R/m^n) to the one-variable count
    m = mk(R21, ["x1*t1", "x2*t1"])
    x = GradedSubmodule.from_gens(R21, 1, ["x1*t1"]).gens[0]
    ev = Evaluator()
    for n in range(1, 5):
        full = length(LengthQuery((m,), (n,)), ev)
        cut = length(LengthQuery((m,), (n,), 0, (x,)), ev)
        assert full == length_m_power(2, n)
        assert cut == length_m_power(1, n)


def test_full_slice_has_multiplicity_zero():
    full = mk(R11, ["t1"])
    res = ebr(full)
    assert res.value == 0
    assert all(v == 0 for v in res.table.values.values())


def test_length_gate_rejects_non_primary_module():
    from brim import InfiniteColength

    bad = mk(R21, ["x1*t1"])
    with pytest.raises(InfiniteColength):
        length(LengthQuery((bad,), (2,)))


def test_colength_cap_resource_limit(monkeypatch):
    from brim import ResourceLimit, groebner
    from brim.groebner import buchberger, colength, GeneratorSet

    big = GradedSubmodule.from_gens(R21, 1, ["x1^50*t1", "x2^50*t1"])
    basis = buchberger(GeneratorSet(R21, 1, big.spec.gens))
    monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_CAP", 100)
    with pytest.raises(ResourceLimit):
        colength(basis)


def test_stabilized_difference_rejects_exponential_table():
    from brim import NoStabilization
    from brim.hilbert import stabilized_difference

    t = LengthTable(("n1",), ((1, 10),), {(n,): 2**n for n in range(1, 11)})
    with pytest.raises(NoStabilization):
        stabilized_difference(t, (2,))


def test_extraction_schedule_on_a_length_that_never_stabilizes(m, monkeypatch):
    """With lengths 2^(n1+...+nk) * 3^q no window certifies.  ebr asks for
    n = 1..16 once each; mixed over two modules evaluates the 6^2, 8^2 and
    10^2 boxes, and assoc_mixed the 12x5, 14x7 and 16x9 (n, q) windows,
    then each re-raises the last window's failure."""
    from brim import NoStabilization

    calls = []

    def exponential(self, query):
        calls.append((query.exponents, query.qdeg))
        return 2 ** sum(query.exponents) * 3**query.qdeg

    monkeypatch.setattr(Evaluator, "length", exponential)
    m2 = mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    with pytest.raises(NoStabilization, match=r"^no stabilization certificate within n <= 16$"):
        ebr(m)
    assert calls == [((n,), 0) for n in range(1, 17)]
    calls.clear()
    with pytest.raises(NoStabilization, match="^trailing differences are not constant$"):
        mixed([m, m2], (1, 1))
    assert (len(calls), len(set(calls))) == (200, 100)
    assert max(calls) == ((10, 10), 0)
    calls.clear()
    with pytest.raises(NoStabilization, match="^trailing differences are not constant$"):
        assoc_mixed([m], (1,), 1)
    assert (len(calls), len(set(calls))) == (302, 144)
    assert max(calls) == ((16,), 8)


def test_gf_parity_with_rationals():
    from brim import PrimeField

    rq = RingSpec(d=2, p=1)
    rp = RingSpec(d=2, p=1, field=PrimeField(32003))
    gens_m = ["x1*t1", "x2*t1"]
    gens_i = ["x1^2*t1 + x2^2*t1", "x1*x2*t1"]
    for gens in (gens_m, gens_i):
        eq = ebr(mk(rq, gens)).value
        ep = ebr(mk(rp, gens)).value
        assert eq == ep
    mq = mixed([mk(rq, gens_m), mk(rq, gens_i)], (1, 1)).value
    mp = mixed([mk(rp, gens_m), mk(rp, gens_i)], (1, 1)).value
    assert mq == mp


def test_direct_sum_multiplicity_identity():
    """For E = I + J split over the two positions of F = R^2, the top
    multiplicity decomposes as e(I) + e1(I,J) + e(J); this exercises the
    univariate and multigraded paths against each other.  Newton-polygon
    covolumes give e((x^2,y^2)) = 4, e((x,y^3)) = 3, e1 = 2."""
    I = ["x1^2", "x2^2"]
    J = ["x1", "x2^3"]
    i1 = mk(R21, [f"{g}*t1" for g in I])
    j1 = mk(R21, [f"{g}*t1" for g in J])
    e_i = ebr(i1).value
    e_j = ebr(j1).value
    e_mixed = mixed([i1, j1], (1, 1)).value
    assert (e_i, e_mixed, e_j) == (4, 2, 3)

    summed = mk(R22, [f"{g}*t1" for g in I] + [f"{g}*t2" for g in J])
    assert ebr(summed).value == e_i + e_mixed + e_j == 9

    # and the product ideal satisfies e(IJ) = e(I) + 2 e1 + e(J) = 11
    from brim import product

    prod = product(i1, j1)
    assert tilde_ebr(prod).value == e_i + 2 * e_mixed + e_j == 11


def test_finite_difference_axis_order_commutes():
    import random as _random

    rng = _random.Random(3)
    vals = {
        (a, b): rng.randint(0, 50)
        for a in range(1, 6)
        for b in range(1, 6)
    }
    t = LengthTable(("n1", "n2"), ((1, 5), (1, 5)), vals)
    d12 = finite_difference(finite_difference(t, (1, 0)), (0, 1))
    d21 = finite_difference(finite_difference(t, (0, 1)), (1, 0))
    both = finite_difference(t, (1, 1))
    assert d12.values == d21.values == both.values


def test_ebr_mF_closed_form_across_ranks():
    """e_BR of m*F over R^p is binomial(d+p-1, d); exercises d = 3 staircase
    enumeration and p = 3 position handling."""
    from math import comb

    cases = [(1, 3), (3, 1), (2, 2), (1, 2), (2, 1)]
    for d, p in cases:
        ring = RingSpec(d=d, p=p)
        gens = [f"x{i + 1}*t{j + 1}" for i in range(d) for j in range(p)]
        mf = mk(ring, gens)
        assert ebr(mf).value == comb(d + p - 1, d), (d, p)


def test_tilde_ebr_direct_higher_degree_module():
    # a degree-2 slice module given directly rather than as a power
    r = RingSpec(d=1, p=1)
    e = GradedSubmodule.from_gens(r, 2, ["x1^3*t1^2"])
    res = tilde_ebr(e)
    assert res.value == 3
    assert [res.table.values[(n,)] for n in range(1, 5)] == [3, 6, 9, 12]


def test_slice_of_a_product_without_shift_is_the_product():
    from brim.groebner import GeneratorSet, buchberger, colength
    from brim.hilbert import Evaluator, build_slice_submodule

    e1 = mk(R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"])
    e2 = mk(R21, ["x1*t1 + x2*t1", "x2^2*t1"])
    evaluator = Evaluator()
    sub = build_slice_submodule(LengthQuery((e1, e2), (2, 1)), evaluator)
    prod = evaluator.product_of_powers((e1, e2), (2, 1))
    assert sub is prod
    fresh = buchberger(GeneratorSet(R21, prod.tdeg, prod.spec.gens))
    assert sub.colength_report().value == colength(fresh).value


# ---------------------------------------------------------------------------
# the graded length path against Buchberger

from fractions import Fraction  # noqa: E402
from unittest import mock  # noqa: E402

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from brim import (  # noqa: E402
    QQ,
    InfiniteColength,
    InternalError,
    PrimarityCertificate,
    PrimeField,
    ResourceLimit,
    SubmoduleSpec,
    SupportOffOrigin,
)
from brim import hilbert, poly, rees  # noqa: E402
from brim.hilbert import build_slice_submodule  # noqa: E402
from brim.poly import (  # noqa: E402
    Monomial,
    Packing,
    Polynomial,
    compositions_desc,
    parse_polynomial,
    t_monomials,
)

R31 = RingSpec(d=3, p=1)
GF2 = PrimeField(2)
GF32003 = PrimeField(32003)

# every x-homogeneous module given in this file and in tests/test_acceptance.py
GRADED_FIXTURES = [
    (R11, ["x1^2*t1"]),
    (R11, ["t1"]),
    (R21, ["x1*t1", "x2*t1"]),
    (R21, ["x1^2*t1", "x2*t1"]),
    (R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]),
    (R21, ["x1^2*t1 + x2^2*t1", "x1*x2*t1"]),
    (R21, ["x1*t1 + x2*t1", "x2^2*t1"]),
    (R21, ["x1^2*t1", "x2^2*t1"]),
    (R21, ["x1*t1", "x2^3*t1"]),
    (R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]),
    (R22, ["x1^2*t1", "x2^2*t1", "x1*t2", "x2^3*t2"]),
    (R22, ["x1*t1", "x2*t1 + 3*x1*t2", "x2*t2 + 5*x1*t1"]),
    (R12, ["x1^2*t1", "x1^3*t2"]),
    (R31, ["x1^2*t1 + x2*x3*t1", "x2^2*t1 + x1*x3*t1", "x3^2*t1 + x1*x2*t1"]),
]


def _both_paths(query):
    """(graded path, Buchberger path) lengths of one cell."""
    graded = hilbert._graded_length(query, Evaluator())
    sub = build_slice_submodule(query, Evaluator())
    return graded, sub.colength_report().value


def test_graded_path_matches_buchberger_on_the_fixtures():
    for ring, gens in GRADED_FIXTURES:
        e = mk(ring, gens)
        assert e.minimal_gens is not None, gens
        x = mk(ring, [f"x1*t{ring.p}"]).gens[0]
        cells = [((1,), 0, ()), ((2,), 0, ()), ((3,), 0, ()), ((2,), 1, ()), ((2,), 0, (x,))]
        for exps, q, elems in cells:
            graded, reference = _both_paths(LengthQuery((e,), exps, q, elems))
            assert graded == reference, (gens, exps, q, elems)
    m = mk(R21, ["x1*t1", "x2*t1"])
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    for exps in [(1, 1), (2, 1), (1, 3), (0, 2)]:
        graded, reference = _both_paths(LengthQuery((m, i), exps, 1))
        assert graded == reference, exps


# Rational coefficients: the sweep clears denominators before it eliminates.
# Each module comes with a rational multiple of one of its elements, written
# unnormalized: as a quotient element it lies in E, so it leaves l(F/E) as it
# is, which holds only if the sweep keeps the ratios of its coefficients.
RATIONAL_FIXTURES = [
    (R21, ["1/2*x1^2*t1 + 2/3*x2^2*t1", "3/4*x1*x2*t1"], "3/4*x1^2*t1 + x2^2*t1"),
    (
        R21,
        ["1/2*x1^2*t1 + 2/3*x2^2*t1", "3/4*x1^2*t1 + x2^2*t1", "x1*x2*t1", "1/5*x2^3*t1"],
        "1/3*x1^2*t1 + 4/9*x2^2*t1",
    ),
    (
        R22,
        ["1/2*x1*t1 + 1/3*x2*t2", "2/3*x2*t1 + 3/5*x1*t2", "x1^2*t2", "x2^2*t2"],
        "3/4*x1*t1 + 1/2*x2*t2",
    ),
]


def test_graded_path_matches_buchberger_with_rational_coefficients():
    for ring, gens, inside in RATIONAL_FIXTURES:
        e = mk(ring, gens)
        generic = parse_polynomial(ring, f"1/3*x1*t1 + 1/2*x2*t{ring.p}")
        inside = parse_polynomial(ring, inside)
        for exps in [(1,), (2,)]:
            for q in (0, 1):
                for elems in [(), (generic,), (inside,)]:
                    graded, reference = _both_paths(LengthQuery((e,), exps, q, elems))
                    assert graded == reference, (gens, exps, q, elems)
        alone = hilbert._graded_length(LengthQuery((e,), (1,)), Evaluator())
        assert hilbert._graded_length(LengthQuery((e,), (1,), 0, (inside,)), Evaluator()) == alone


@st.composite
def graded_cells(draw):
    """An x-homogeneous m-primary module: pure powers at every position plus
    up to two random x-homogeneous elements, and a cell over it."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    ring = RingSpec(d=d, p=p, field=draw(st.sampled_from([QQ, GF2, GF32003])))
    positions = t_monomials(ring, 1)
    gens = []
    for pos in positions:
        for i in range(d):
            a = draw(st.integers(1, 2))
            xe = tuple(a if j == i else 0 for j in range(d))
            gens.append(Polynomial(ring, {Monomial(pos, xe): 1}))
    for _ in range(draw(st.integers(0, 2))):
        deg = draw(st.integers(1, 2))
        monos = [Monomial(pos, xe) for pos in positions for xe in compositions_desc(deg, d)]
        picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(picked), max_size=len(picked)))
        gens.append(Polynomial(ring, dict(zip(picked, coeffs))))
    e = GradedSubmodule(SubmoduleSpec(ring, 1, gens))
    n = draw(st.integers(1, 3))
    q = draw(st.integers(0, 3))
    assume((n + q) * d * p <= 12)
    elems = ()
    if draw(st.booleans()):
        pos = draw(st.sampled_from(t_monomials(ring, draw(st.integers(1, n + q)))))
        xe = draw(st.sampled_from(list(compositions_desc(draw(st.integers(1, 2)), d))))
        elems = (Polynomial(ring, {Monomial(pos, xe): 1}),)
    return LengthQuery((e,), (n,), q, elems)


@settings(max_examples=200, deadline=None)
@given(graded_cells())
def test_graded_path_matches_buchberger_on_drawn_modules(query):
    graded, reference = _both_paths(query)
    assert graded == reference


GF7 = PrimeField(7)


@st.composite
def packed_cells(draw):
    """A cell over one or two random x-homogeneous m-primary modules on R21,
    R22 or R31, over QQ or GF(7), where products wrap mod 7 often: every pure
    power x_i^a mu, perhaps with a tail of other degree-a monomials at any
    position, and up to two more x-homogeneous elements.  The cell has
    q = 0 or q > 0, and perhaps a quotient element."""
    d, p = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    ring = RingSpec(d=d, p=p, field=draw(st.sampled_from([QQ, GF7])))
    positions = t_monomials(ring, 1)

    def element(deg, head=None):
        monos = [Monomial(pos, xe) for pos in positions for xe in compositions_desc(deg, d)]
        tail = draw(st.lists(st.sampled_from(monos), max_size=2, unique=True))
        terms = {m: draw(st.integers(1, 6)) for m in tail}
        terms.update({head: 1} if head else {})
        return Polynomial(ring, terms)

    def module():
        gens = []
        for pos in positions:
            for i in range(d):
                a = draw(st.integers(1, 2))
                gens.append(element(a, Monomial(pos, tuple(a if j == i else 0 for j in range(d)))))
        gens += [element(draw(st.integers(1, 2))) for _ in range(draw(st.integers(0, 2)))]
        e = GradedSubmodule(SubmoduleSpec(ring, 1, [g for g in gens if g]))
        try:
            e.primarity()
        except (InfiniteColength, SupportOffOrigin):
            assume(False)
        return e

    modules = (module(),) if draw(st.booleans()) else (module(), module())
    exponents = tuple(draw(st.integers(1, 2)) for _ in modules)
    budget = 12 // (d * p) - sum(exponents)  # t-degree times d*p at most 12
    assume(budget >= 0)
    q = draw(st.integers(0, min(2, budget)))
    elems = ()
    if draw(st.booleans()):
        deg = draw(st.integers(1, 2))
        elems = (element(deg, Monomial(positions[-1], (deg,) + (0,) * (d - 1))),)
    return LengthQuery(modules, exponents, q, elems)


@settings(max_examples=80, deadline=None)
@given(packed_cells())
def test_graded_path_matches_buchberger_on_packed_products(query):
    """Packed products, t-shifts by code and the sweeps they feed count the
    same lengths as Buchberger on the cell's slice."""
    assert query.graded()
    graded, reference = _both_paths(query)
    assert graded == reference


def test_packed_products_drop_the_terms_that_vanish_mod_p():
    """Over GF(7), f = x1^2 + x1x2 + 3x2^2 squares to x1^4 + 2x1^3x2 +
    6x1x2^3 + 2x2^4: the x1^2x2^2 coefficient 2*3 + 1 = 7 vanishes, and the
    packed product must drop it."""
    ring = RingSpec(d=2, p=1, field=GF7)
    e = mk(ring, ["x1^2*t1 + x1*x2*t1 + 3*x2^2*t1", "x2^3*t1"])
    f = e.minimal_gens[0]
    square = parse_polynomial(ring, "x1^4*t1^2 + 2*x1^3*x2*t1^2 + 6*x1*x2^3*t1^2 + 2*x2^4*t1^2")
    assert f * f == square and (f * f).num_terms() == 4
    for n, q in [(1, 0), (2, 0), (2, 1), (3, 0)]:
        graded, reference = _both_paths(LengthQuery((e,), (n,), q))
        assert graded == reference, (n, q)


def _sweep_modes(query):
    """``_both_paths`` of the cell, and the ``monomial`` mode of every
    DegreeSweep built meanwhile, in order."""
    modes = []
    init = rees.DegreeSweep.__init__

    def recording(self, *args):
        init(self, *args)
        modes.append(self.monomial)

    with mock.patch.object(rees.DegreeSweep, "__init__", recording):
        return (*_both_paths(query), modes)


# nonzero mod 7 and other than one, as a monomial's coefficient
SCALES = [2, 3, 5, -1, -4]


@st.composite
def monomial_cells(draw):
    """A cell over one or two monomial modules on R21, R22 or R31, over QQ
    or GF(7): every pure power x_i^a mu and up to three more monomials,
    each times a coefficient other than one.  The cell has q = 0, 1 or 2
    and perhaps a scaled monomial quotient element."""
    d, p = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    ring = RingSpec(d=d, p=p, field=draw(st.sampled_from([QQ, GF7])))
    positions = t_monomials(ring, 1)
    monos = [
        Monomial(pos, xe) for pos in positions for a in (1, 2) for xe in compositions_desc(a, d)
    ]

    def term(mono):
        return Polynomial(ring, {mono: draw(st.sampled_from(SCALES))})

    def module():
        gens = []
        for pos in positions:
            for i in range(d):
                a = draw(st.integers(1, 2))
                gens.append(term(Monomial(pos, tuple(a if j == i else 0 for j in range(d)))))
        gens += [term(draw(st.sampled_from(monos))) for _ in range(draw(st.integers(0, 3)))]
        return GradedSubmodule(SubmoduleSpec(ring, 1, gens))

    modules = (module(),) if draw(st.booleans()) else (module(), module())
    exponents = tuple(draw(st.integers(1, 2)) for _ in modules)
    budget = 12 // (d * p) - sum(exponents)  # t-degree times d*p at most 12
    assume(budget >= 0)
    q = draw(st.integers(0, min(2, budget)))
    elems = ()
    if draw(st.booleans()):
        pos = draw(st.sampled_from(t_monomials(ring, draw(st.integers(1, sum(exponents) + q)))))
        xe = draw(st.sampled_from(list(compositions_desc(draw(st.integers(1, 2)), d))))
        elems = (term(Monomial(pos, xe)),)
    return LengthQuery(modules, exponents, q, elems)


@settings(max_examples=80, deadline=None)
@given(monomial_cells())
def test_monomial_sweeps_match_buchberger(query):
    """Products of monomial modules, their t-shifts and a monomial quotient
    element give monomial generators only, so every sweep keeps its pieces
    as sets of codes; its lengths are Buchberger's on the cell's slice."""
    assert query.graded()
    graded, reference, modes = _sweep_modes(query)
    assert graded == reference
    assert modes and all(modes)


def test_a_binomial_quotient_element_sweeps_by_elimination():
    """Over GF(7), mFs and E reduce to monomial bases, so their products are
    swept as sets of codes.  A binomial quotient element makes the cell's
    own sweep take elimination, and its lengths are still Buchberger's."""
    ring = RingSpec(d=2, p=2, field=GF7)
    mfs = mk(ring, ["3*x1*t1", "5*x2*t1", "6*x1*t2", "2*x2*t2"])
    e = mk(ring, E22_GENS)
    elem = parse_polynomial(ring, "2*x1*t1 + 3*x2*t2")
    for exps, q in [((2, 1), 0), ((1, 1), 1), ((1, 2), 0)]:
        graded, reference, modes = _sweep_modes(LengthQuery((mfs, e), exps, q, (elem,)))
        assert graded == reference, (exps, q)
        assert modes[-1] is False and all(modes[:-1]), (exps, q)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_monomial_sweep_keeps_what_elimination_keeps(data):
    """On monomial generators with repeated codes and coefficients other
    than one, a sweep keeps, degree by degree and in order, the very
    generators that running the same rows through ``linalg.Echelon`` keeps
    (``oracles.echelon_sweep``), with the same ranks."""
    d, p = data.draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    ring = RingSpec(d=d, p=p, field=data.draw(st.sampled_from([QQ, GF7])))
    tdeg = data.draw(st.integers(1, 2))
    monos = [
        Monomial(t, xe) for t in t_monomials(ring, tdeg) for a in (1, 2, 3)
        for xe in compositions_desc(a, d)
    ]
    picked = data.draw(st.lists(st.sampled_from(monos), min_size=1, max_size=12))
    picked += data.draw(st.lists(st.sampled_from(picked), min_size=1, max_size=4))
    scales = st.sampled_from(SCALES + [1, Fraction(2, 3)])
    gens = [
        Polynomial(ring, {mono: data.draw(scales)})
        for mono in data.draw(st.permutations(picked))
    ]
    groups = rees.by_xdegree(gens, gens[0].pack)
    sweep = rees.DegreeSweep(ring, tdeg, {a: list(g) for a, g in groups.items()})
    assert sweep.monomial
    swept = []
    while sweep.delta < sweep.top:
        swept.append(([id(g._terms) for g in sweep.advance()], sweep.rank))
    terms = {a: [g._terms for g in gs] for a, gs in groups.items()}
    reference = echelon_sweep(ring.field, gens[0].pack.steps, terms)
    assert swept == [(list(map(id, kept)), rank) for kept, rank in reference]


def test_non_homogeneous_cell_takes_the_buchberger_path(monkeypatch):
    def refuse(query, evaluator):
        raise RuntimeError("graded path entered")

    monkeypatch.setattr(hilbert, "_graded_length", refuse)
    nonhomog = mk(R21, ["x1^2*t1 + x2^3*t1", "x1*x2*t1", "x2^4*t1"])
    assert nonhomog.minimal_gens is None
    value = Evaluator().length(LengthQuery((nonhomog,), (1,)))
    assert value == GradedSubmodule(nonhomog.spec).colength_report().value
    # a graded module alongside, or a non-homogeneous quotient element, also
    # sends the cell to Buchberger
    m = mk(R21, ["x1*t1", "x2*t1"])
    Evaluator().length(LengthQuery((m, nonhomog), (1, 1)))
    odd = mk(R21, ["x1*t1 + x2^2*t1"]).gens[0]
    assert Evaluator().length(LengthQuery((m,), (2,), 0, (odd,))) == 2
    with pytest.raises(RuntimeError, match="graded path entered"):
        Evaluator().length(LengthQuery((m,), (2,)))


def test_graded_path_raises_when_the_primarity_bound_is_too_small(monkeypatch):
    e = mk(R21, ["x1^2*t1", "x2^2*t1"])
    assert length(LengthQuery((e,), (1,))) == 4
    # the true exponent is 3; claiming 0 makes the bound the generator degree 2
    monkeypatch.setattr(e, "_primarity", PrimarityCertificate(colength=4, nakayama_exponent=0))
    with pytest.raises(InternalError, match=r"n=\[1\], q=0, t-degree 1"):
        Evaluator().length(LengthQuery((e,), (1,)))


def test_graded_path_limits_name_the_cell(monkeypatch):
    e = mk(R22, ["x1*t1", "x2*t1 + 3*x1*t2", "x2*t2 + 5*x1*t1"])
    monkeypatch.setattr(hilbert, "STANDARD_MONOMIAL_CAP", 10)
    with pytest.raises(ResourceLimit, match=r"n=\[2\], q=1, t-degree 3"):
        length(LengthQuery((e,), (2,), 1))
    monkeypatch.undo()
    monkeypatch.setattr(hilbert, "PRODUCT_GENERATOR_CAP", 8)
    with pytest.raises(ResourceLimit, match=r"n=\[2\], q=0, t-degree 2.*cap 8"):
        length(LengthQuery((e,), (2,)))
    monkeypatch.undo()
    # a label digit counts up to the exponent, so it must stay below the base
    monkeypatch.setattr(hilbert, "LABEL_BASE", 2)
    with pytest.raises(ResourceLimit, match=r"n=\[2\], q=0, t-degree 2.*exponent of 2 or more"):
        length(LengthQuery((e,), (2,)))


def test_slot_overflow_names_the_cell(monkeypatch):
    """Packed codes hold while every degree stays below the slot base.  With
    2-bit slots (base 4) m2 on R21 still counts its first cell, but the
    candidates of m2^2 have x-degree 4 and a q = 3 shift lifts a cell to
    t-degree 4: each is a ResourceLimit that names its cell."""
    monkeypatch.setattr(poly, "SLOT_BITS", 2)
    e = mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    assert length(LengthQuery((e,), (1,))) == 3
    with pytest.raises(ResourceLimit, match=r"n=\[2\], q=0, t-degree 2: degree 4 reaches the slot base 4"):
        length(LengthQuery((e,), (2,)))
    with pytest.raises(ResourceLimit, match=r"n=\[1\], q=3, t-degree 4: degree 4 reaches the slot base 4"):
        length(LengthQuery((e,), (1,), 3))


def test_products_of_many_factors_are_formed_in_a_loop(monkeypatch):
    """Both product paths form E^1500 bottom up in one loop, where one call
    per factor would exceed Python's default recursion limit of 1000.  The
    label-digit limit is still checked top down, before any product is
    formed, so it names the exponent asked for."""
    e = mk(R11, ["x1*t1"])
    assert length(LengthQuery((e,), (1500,))) == 1500
    power = Evaluator().product_of_powers((e,), (1500,))
    assert [str(g) for g in power.gens] == ["x1^1500*t1^1500"]
    monkeypatch.setattr(hilbert, "LABEL_BASE", 2)
    with pytest.raises(ResourceLimit, match=r"n=\[5\], q=0, t-degree 5.*exponent of 2 or more"):
        length(LengthQuery((e,), (5,)))


@pytest.mark.parametrize("gens", [
    ["x1^2*t1", "x1*x2*t1", "x2^2*t1"],
    ["x1^3*t1 + x2^2*t1", "x1*x2*t1", "x2^3*t1"],
], ids=["m2", "A"])
def test_evaluator_length_rejects_negative_q(gens):
    """The graded m2 and the non-homogeneous A: the Evaluator entry rejects
    q < 0 as hilbert.length does, before any path runs."""
    module = mk(R21, gens)
    with pytest.raises(InvalidInput, match="q must be non-negative"):
        Evaluator().length(LengthQuery((module,), (1,), -1))


# E reduces to an x-homogeneous basis, so its cells with mF are graded
E22_GENS = ["x1^2*t1 + x2^3*t1", "x2*t1", "x1*t2 + x2^2*t2", "x2^2*t2"]


def test_graded_product_cells_build_one_sweep_per_product(monkeypatch):
    """A q = 0 table over (E, mF) reads each cell's length off the sweep
    that picked its product's minimal generators, and those lengths are the
    Buchberger path's."""
    ring = RingSpec(d=2, p=2, field=GF32003)
    e, mf = mk(ring, E22_GENS), mk(ring, MF22_GENS)
    assert e.minimal_gens is not None and mf.minimal_gens is not None
    sweeps = []
    init = rees.DegreeSweep.__init__

    def counting(self, *args):
        sweeps.append(args)
        init(self, *args)

    monkeypatch.setattr(rees.DegreeSweep, "__init__", counting)
    ev = Evaluator()
    tbl = table([e, mf], [(1, 3), (1, 3)], evaluator=ev)
    monkeypatch.undo()
    formed = [key for key in ev._minimal_products if sum(key[1]) >= 2]
    assert len(formed) == 11  # the 9 cells and the intermediate E^2, E^3
    assert len(sweeps) == len(formed)
    for idx, value in tbl.values.items():
        sub = build_slice_submodule(LengthQuery((e, mf), idx), Evaluator())
        assert value == sub.colength_report().value, idx


def test_graded_product_forms_each_candidate_once(monkeypatch):
    """A fresh Evaluator forms mF^4 on R22 with one product per multiset of
    mF's generators, 64 calls of the one polynomial product (``Packing.mul``),
    where every pair of the chain's minimal generators is 116.  Its
    generators, in order, are those the sweep over every pair of products
    keeps, and its length is l(F^4 / (mF)^4)."""
    mf = mk(R22, MF22_GENS)
    every = mf.minimal_gens
    for n in range(2, 5):
        candidates = [f * g for f in every for g in mf.minimal_gens]
        kept = {id(g) for g in rees.minimal_sweep(R22, n, candidates)[0]}
        every = [f for f in candidates if id(f) in kept]
    calls = []
    mul = Packing.mul

    def counting(self, f, g):
        calls.append(None)
        return mul(self, f, g)

    monkeypatch.setattr(Packing, "mul", counting)
    gens = Evaluator().minimal_product((mf,), (4,))[0]
    monkeypatch.undo()
    assert len(calls) == 64
    assert [str(g) for g in gens] == [str(g) for g in every]
    assert length(LengthQuery((mf,), (4,))) == length_mF_power(4) == 50


# a parameter module of mF on R22: its three generators are a reduction of mF
P22_GENS = ["x1*t1", "x2*t2", "x1*t2 + x2*t1"]


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["QQ", "GF"])
def test_graded_path_matches_buchberger_where_product_keys_merge_or_shrink(field):
    """Product labels stay sound where a key's exponents merge, over two
    copies of E or one E named twice, and where the lowered key drops its
    last module, as (P, mF)^(2, 1) is formed from P^2 and (mF, P)^(1, 2)
    from mF.  Digits that left out P's offset in (mF, P) would merge
    mF_i P_j with mF_j P_i."""
    ring = RingSpec(d=2, p=2, field=field)
    e, e_copy = mk(ring, E22_GENS), mk(ring, E22_GENS)
    p, mf = mk(ring, P22_GENS), mk(ring, MF22_GENS)
    cells = [
        ((e, e_copy), (1, 1)),
        ((e, e_copy), (2, 1)),
        ((e, e), (1, 2)),
        ((p, mf), (2, 1)),
        ((mf, p), (1, 2)),
    ]
    for modules, exps in cells:
        for q in (0, 1):
            graded, reference = _both_paths(LengthQuery(modules, exps, q))
            assert graded == reference, (len(modules), exps, q)
    assert mixed([p, mf], (2, 1)).value == 3


def test_one_sweep_cells_keep_their_guards(monkeypatch):
    """Two-factor q = 0 cells, whose lengths come from the product's own
    sweep, still stop at the standard monomial cap and the primarity bound
    and name the cell."""
    mf = mk(R22, MF22_GENS)
    monkeypatch.setattr(hilbert, "STANDARD_MONOMIAL_CAP", 3)
    with pytest.raises(ResourceLimit, match=r"n=\[2\], q=0, t-degree 2: more than 3"):
        length(LengthQuery((mf,), (2,)))
    with pytest.raises(ResourceLimit, match=r"n=\[1, 1\], q=0, t-degree 2: more than 3"):
        length(LengthQuery((mf, mk(R22, E22_GENS)), (1, 1)))
    monkeypatch.undo()
    # E^2 has minimal generators up to x-degree 4, where it lacks x1^3*x2.
    # A*B has them up to x-degree 4, where it lacks x1^3*x2, and the bound
    # stays 4 although the redundant candidate x1^3*x2^2 has x-degree 5.
    e = mk(R21, ["x1^2*t1", "x2^2*t1"])
    a, b = mk(R21, ["x1*t1", "x2^2*t1"]), mk(R21, ["x1^3*t1", "x2^2*t1"])
    assert length(LengthQuery((e,), (2,))) == 12
    assert length(LengthQuery((a, b), (1, 1))) == 10
    for module in (e, a, b):
        monkeypatch.setattr(module, "_primarity", PrimarityCertificate(1, 0))
    with pytest.raises(InternalError, match=r"n=\[2\], q=0, t-degree 2: x-degree 4 .*bound 4"):
        Evaluator().length(LengthQuery((e,), (2,)))
    with pytest.raises(InternalError, match=r"n=\[1, 1\], q=0, t-degree 2: x-degree 4 .*bound 4"):
        Evaluator().length(LengthQuery((a, b), (1, 1)))


def test_infinite_buchberger_cell_names_the_cell():
    from brim import InfiniteColength

    line = mk(R21, ["x1*t1 + x2^2*t1"])
    with pytest.raises(InfiniteColength, match=r"n=\[2\], q=1, t-degree 3"):
        Evaluator().length(LengthQuery((line,), (2,), 1))


def test_buchberger_cells_pass_the_primarity_gate():
    """E = (x1^2 t1 - x1 t1, x2 t1) is not x-homogeneous, so its cells take
    the Buchberger path.  Its quotient is supported at the origin and at
    x1 = 1, so a table over it raises SupportOffOrigin naming the first
    cell, not the global colengths 2 and 6."""
    from brim import SupportOffOrigin

    e = mk(R21, ["x1^2*t1 - x1*t1", "x2*t1"])
    assert e.minimal_gens is None
    with pytest.raises(
        SupportOffOrigin, match=r"^length cell n=\[1\], q=0, t-degree 1: colength 2 is finite"
    ):
        table([e], [(1, 2)])


# ---------------------------------------------------------------------------
# heavy non-monomial cases


def test_ebr_of_the_generic_ternary_quadrics():
    e = mk(R31, ["x1^2*t1 + x2*x3*t1", "x2^2*t1 + x1*x3*t1", "x3^2*t1 + x1*x2*t1"])
    res = ebr(e)
    assert res.value == 8
    assert [res.table.values[(n,)] for n in range(1, 5)] == [8, 32, 80, 160]


def test_mixed_of_a_non_monomial_module_against_mF():
    e = mk(R22, ["x1*t1", "x2*t2", "x1*t2 + x2*t1"])
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    assert mixed([e, mf], (2, 1)).value == 3


# not x-homogeneous, so every cell over it takes the Buchberger path
A_GENS = ["x1^3*t1 + x2^2*t1", "x1*x2*t1", "x2^3*t1"]


def test_products_of_a_non_homogeneous_module_match_its_powers():
    """|A^n1|*|B^n2| product generators, most of them redundant, give the
    reduced basis of A^(n1+n2) for two separately built copies of A."""
    from brim import product

    a, b = mk(R21, A_GENS), mk(R21, A_GENS)
    assert a.minimal_gens is None
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            prod = product(a.power(n1), b.power(n2))
            expected = [str(g) for g in a.power(n1 + n2).basis]
            assert [str(g) for g in prod.basis] == expected, (n1, n2)


def test_evaluator_chain_over_two_copies_of_a_module_matches_its_powers():
    """(A, B), two separately built copies of the non-homogeneous A, are one
    submodule class, so the Evaluator forms (A, B)^(n1, n2) as A^(n1+n2); its
    reduced bases equal those of A^(n1+n2) built by ``GradedSubmodule.power``."""
    a, b = mk(R21, A_GENS), mk(R21, A_GENS)
    expected = {n: [str(g) for g in a.power(n).basis] for n in range(1, 7)}
    ev = Evaluator()
    assert ev.product_of_powers((a, b), (0, 0)) is None
    for n1 in range(4):
        for n2 in range(4):
            if n1 + n2:
                prod = ev.product_of_powers((a, b), (n1, n2))
                assert [str(g) for g in prod.basis] == expected[n1 + n2], (n1, n2)
    # a module object named twice is one factor: its exponents add
    assert ev.product_of_powers((a, a), (1, 2)) is ev.product_of_powers((a,), (3,))


def test_evaluator_chain_over_two_unequal_modules_matches_products_of_powers():
    """Over A and a different non-homogeneous B the Evaluator forms
    A^n1 B^n2 one factor at a time on the Buchberger path; its reduced bases
    equal those of ``product`` of the ``GradedSubmodule.power``s."""
    from brim import product

    a, b = mk(R21, A_GENS), mk(R21, ["x1^2*t1 + x2^3*t1", "x1*x2*t1", "x2^4*t1"])
    assert a.minimal_gens is None and b.minimal_gens is None
    assert [str(g) for g in a.basis] != [str(g) for g in b.basis]
    ev = Evaluator()
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            prod = ev.product_of_powers((a, b), (n1, n2))
            expected = product(a.power(n1), b.power(n2))
            assert [str(g) for g in prod.basis] == [str(g) for g in expected.basis], (n1, n2)


MF22_GENS = ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]


@pytest.mark.parametrize(
    "ring, gens, dvec, value, cells",
    [
        (RingSpec(d=2, p=1, field=GF32003), A_GENS, (1, 1), 5, 11),
        (R22, MF22_GENS, (1, 1, 1), 3, 13),
    ],
    ids=["A-A-R21-GF", "mF-mF-mF-R22"],
)
def test_mixed_over_equal_modules_computes_one_cell_per_total_exponent(
    monkeypatch, ring, gens, dvec, value, cells
):
    """The (1..h)^k box over k equal submodules needs one cell per total
    exponent n1 + ... + nk, whether the modules are fresh copies or one
    object named k times."""
    calls = []
    uncached = hilbert._length_uncached

    def counting(query, evaluator):
        calls.append(query)
        return uncached(query, evaluator)

    monkeypatch.setattr(hilbert, "_length_uncached", counting)
    assert mixed([mk(ring, gens) for _ in dvec], dvec).value == value
    assert len(calls) == cells
    calls.clear()
    assert mixed([mk(ring, gens)] * len(dvec), dvec).value == value
    assert len(calls) == cells


def test_product_keys_leave_out_zero_exponents():
    u, e = mk(R21, ["x1^2*t1", "x2^2*t1"]), mk(R21, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"])
    ev = Evaluator()
    assert ev.product_of_powers((u, e), (0, 2)) is ev.product_of_powers((e,), (2,))
    assert ev.product_of_powers((u, e), (1, 0)) is u


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["QQ", "GF32003"])
def test_mixed_of_a_non_homogeneous_module_with_itself_is_its_ebr(field):
    ring = RingSpec(d=2, p=1, field=field)
    a, b = mk(ring, A_GENS), mk(ring, A_GENS)
    assert mixed((a, b), (1, 1)).value == 5
    assert ebr(a).value == 5


def test_parameter_module_table_has_the_closed_form():
    e = mk(R22, ["x1*t1", "x2*t1 + 3*x1*t2", "x2*t2 + 5*x1*t1"])
    mf = mk(R22, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])
    tbl = table([e, mf], [(1, 4), (1, 4)])
    for (a, b), value in tbl.values.items():
        s = a + b
        assert value == (s + 1) * s * (s + 1) // 2, (a, b)
    assert tbl.values[(4, 4)] == 324


def test_buchberger_path_limits_name_the_cell(monkeypatch):
    """A cell of the non-homogeneous A names itself before the limit it hit,
    as a graded cell does: A^3 is formed from A^2, whose Buchberger runs out
    of pairs, and the t-degree 3 slice's pure-power box exceeds the standard
    monomial cap."""
    from brim import groebner

    monkeypatch.setattr(groebner, "PAIR_CAP", 3)
    with pytest.raises(
        ResourceLimit,
        match=r"^length cell n=\[3\], q=0, t-degree 3: Buchberger on the t-degree 2 slice: "
        r"3 pairs processed from 9 input generators, basis reached \d+ elements \(pair cap 3\)$",
    ):
        length(LengthQuery((mk(R21, A_GENS),), (3,)))
    monkeypatch.undo()
    monkeypatch.setattr(groebner, "STANDARD_MONOMIAL_CAP", 10)
    with pytest.raises(
        ResourceLimit,
        match=r"^length cell n=\[3\], q=0, t-degree 3: the pure-power box at t1\^3 holds 63 "
        r"monomials \(standard monomial cap 10\)$",
    ):
        length(LengthQuery((mk(R21, A_GENS),), (3,)))


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["QQ", "GF32003"])
def test_slot_overflow_on_the_buchberger_path_names_the_cell(monkeypatch, field):
    """With 3-bit slots (base 8) the cells of A take packed codes of
    x-degree up to 7: n = 1, 2 count as they do with 16-bit slots, and from
    n = 3 on an S-pair or a division reaches x-degree 8.  Each such cell is
    a ResourceLimit naming the cell and the slot base, never a length."""
    ring = RingSpec(d=2, p=1, field=field)
    truth = [length(LengthQuery((mk(ring, A_GENS),), (n,))) for n in range(1, 5)]
    assert truth == [5, 15, 30, 50]
    monkeypatch.setattr(poly, "SLOT_BITS", 3)
    a, ev = mk(ring, A_GENS), Evaluator()
    assert [ev.length(LengthQuery((a,), (n,))) for n in (1, 2)] == truth[:2]
    for n in (3, 4):
        with pytest.raises(
            ResourceLimit,
            match=rf"^length cell n=\[{n}\], q=0, t-degree {n}: degree 8 reaches the slot base 8$",
        ):
            ev.length(LengthQuery((a,), (n,)))
