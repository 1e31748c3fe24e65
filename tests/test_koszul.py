from itertools import combinations
from math import comb, factorial

import pytest

from brim import (
    InvalidInput,
    KoszulSpec,
    NotMultiplicitySystem,
    RingSpec,
    chain_dim,
    ebr,
    g_mult_et,
    parse_polynomial,
)
from brim.koszul import _differentials, _slice_basis, default_t
from brim.poly import DEGREVLEX_X, Monomial, compositions_desc, packing
from brim.ring import QQ, PrimeField

from .oracles import dense_differential

R21 = RingSpec(d=2, p=1)
R11 = RingSpec(d=1, p=1)
GF = PrimeField(32003)

# (d, p, elements, t): the three Koszul specs of the benchmark's deciders
# workload; (x1^2 t1, x2^3 t1) at t = 2, whose sweep runs to x-degrees above
# t; and two specs at their default t, above every x-degree their sweeps
# reach.  So the swept slices have t > delta and delta >= t.
SWEPT_SPECS = [
    (3, 2, ["x1*t1", "x2*t1+x1*t2", "x3*t1+x2*t2", "x3*t2"], None),
    (
        2,
        2,
        [
            "x1^2*t1+2*x2^2*t2+x1*x2*t2",
            "3*x1*x2*t1+x2^2*t1+x1^2*t2",
            "x2^2*t1+5*x1^2*t1+4*x1*x2*t2+x2^2*t2",
        ],
        None,
    ),
    (1, 3, ["x1*t1", "x1*t2", "x1*t3"], None),
    (2, 1, ["x1^2*t1", "x2^3*t1"], 2),
    (2, 1, ["x1*t1", "x2^2*t1"], None),
    (2, 2, ["x1*t1", "x2*t2", "x1*t2 + x2*t1"], None),
]


def K(ring, texts):
    return KoszulSpec(ring, [parse_polynomial(ring, s) for s in texts])


def homology_dim(spec, i, t):
    """Total dimension of the degree-t slice of the i-th Koszul homology:
    g_mult_et's per-x-degree dimensions summed over the x-degrees."""
    dims = g_mult_et(spec, t).homology_dims
    return sum(v for (j, _), v in dims.items() if j == i)


def test_chain_dim_examples():
    spec = K(R21, ["x1*t1", "x2*t1"])
    assert chain_dim(spec, 1, 1, 1) == 2
    assert chain_dim(spec, 0, 2, 0) == 1
    assert chain_dim(spec, 3, 5, 5) == 0


def test_rejects_non_bihomogeneous():
    with pytest.raises(InvalidInput):
        K(R21, ["x1*t1 + x2^2*t1"])
    with pytest.raises(InvalidInput):
        K(R21, ["0"])


def test_h0_of_regular_pair():
    spec = K(R21, ["x1*t1", "x2*t1"])
    t = default_t(spec)
    assert homology_dim(spec, 0, t) == 1


def test_top_homology_of_regular_sequence_vanishes():
    spec = K(R21, ["x1*t1", "x2*t1"])
    t = default_t(spec)
    assert homology_dim(spec, 2, t) == 0
    assert homology_dim(spec, 1, t) == 0


def test_homology_above_m_is_zero():
    spec = K(R21, ["x1*t1", "x2*t1"])
    assert homology_dim(spec, 3, default_t(spec)) == 0


def test_g_mult_bridge_values(r21=R21):
    m = 1
    assert g_mult_et(K(R21, ["x1*t1", "x2*t1"])).value == 1
    assert g_mult_et(K(R21, ["x1^2*t1", "x2*t1"])).value == 2


def test_g_mult_scaling():
    base = g_mult_et(K(R21, ["x1*t1", "x2*t1"])).value
    for l1 in (1, 2, 3):
        for l2 in (1, 2, 3):
            spec = K(R21, [f"x1^{l1}*t1", f"x2^{l2}*t1"])
            assert g_mult_et(spec).value == l1 * l2 * base


def test_g_mult_bridge_to_ebr():
    from brim import GradedSubmodule

    pairs = [
        (["x1*t1", "x2*t1"], ["x1*t1", "x2*t1"]),
        (["x1^2*t1", "x2*t1"], ["x1^2*t1", "x2*t1"]),
        (["x1^2*t1", "x2^3*t1"], ["x1^2*t1", "x2^3*t1"]),
    ]
    for koszul_elems, module_gens in pairs:
        et = g_mult_et(K(R21, koszul_elems)).value
        e = ebr(GradedSubmodule.from_gens(R21, 1, module_gens)).value
        assert et == e


def test_t_independence_plateau():
    spec = K(R21, ["x1^2*t1", "x2*t1"])
    t0 = default_t(spec)
    values = {g_mult_et(spec, t).value for t in (t0, t0 + 1, t0 + 2)}
    assert values == {2}


def swept_slices():
    """(spec, t, delta, differentials) for every slice the sweep of each
    SWEPT_SPECS entry visits up to its stop, over QQ and GF(32003)."""
    for d, p, texts, t in SWEPT_SPECS:
        for field in (QQ, GF):
            spec = K(RingSpec(d=d, p=p, field=field), texts)
            result = g_mult_et(spec, t)
            stop = len(result.homology_dims) // (spec.m + 1)
            for delta in range(stop):
                yield spec, result.t, delta, _differentials(spec, result.t, delta)


def test_sparse_rows_match_the_dense_reference():
    """Every sparse differential the sweep ranks equals, entry for entry, the
    dense matrix built by ``monomial_product`` on decoded monomials, and
    stores no zero value."""
    shapes = set()
    for spec, t, delta, diffs in swept_slices():
        assert len(diffs) == spec.m
        for n, (rows, cols) in enumerate(diffs, start=1):
            dense, src, tgt = dense_differential(spec, n, t, delta)
            assert cols == src, (spec.elems, n, t, delta)
            zero = spec.ring.field.coerce(0)
            assert [[row.get(j, zero) for j in range(cols)] for row in rows] == dense
            assert all(v for row in rows for v in row.values())
            if rows:
                shapes.add("t > delta" if t > delta else "delta >= t")
    assert shapes == {"t > delta", "delta >= t"}


def test_differential_squares_to_zero():
    """d_(n-1) o d_n = 0 on the sparse rows, for every consecutive pair of
    every swept slice."""
    composed = 0
    for spec, t, delta, diffs in swept_slices():
        p = spec.ring.field.p
        for (outer, mid), (inner, _) in zip(diffs, diffs[1:]):
            if not inner:  # K_n or K_(n-1) is zero
                continue
            # outer: rows over K_(n-2), columns K_(n-1) = the rows of inner
            assert len(inner) == mid
            for row in outer:
                acc = {}
                for k, a in row.items():
                    for c, b in inner[k].items():
                        acc[c] = acc.get(c, 0) + a * b
                        composed += 1
                if p:
                    acc = {c: v % p for c, v in acc.items()}
                assert not any(acc.values()), (spec.elems, t, delta)
    assert composed > 0


def truncation_numerator(spec, t):
    """Coefficients of N_t(v) = sum over subsets S with kt_S <= t of
    (-1)^|S| C(t - kt_S + p - 1, p - 1) v^(kx_S): the Koszul Euler
    characteristic of the degree-t slice is N_t(v) / (1 - v)^d."""
    p = spec.ring.p
    coeffs = {}
    for size in range(spec.m + 1):
        for subset in combinations(range(spec.m), size):
            kt = sum(spec.tdegs[s] for s in subset)
            kx = sum(spec.xdegs[s] for s in subset)
            if kt <= t:
                coeffs[kx] = coeffs.get(kx, 0) + (-1) ** size * comb(t - kt + p - 1, p - 1)
    return coeffs


def derivative_at_one(coeffs, k):
    """The k-th derivative at v = 1 of the polynomial sum c_j v^j."""
    return sum(c * factorial(j) // factorial(j - k) for j, c in coeffs.items() if j >= k)


def test_g_mult_equals_the_truncated_euler_characteristic():
    """g_mult_et's value is the sum over the swept x-degrees of sum_i (-1)^i
    h_i; the ranks cancel, leaving the slices' Euler characteristics.  Finite
    total homology makes (1 - v)^d divide N_t(v), so their sum over every
    x-degree is the quotient at v = 1, (-1)^d N_t^(d)(1) / d!.  That needs no
    rank and no stop rule: a sweep that stops before the Euler
    characteristics vanish gives another value."""
    fixtures = [(2, 1, [f"x1^{l1}*t1", f"x2^{l2}*t1"]) for l1 in (1, 2, 3) for l2 in (1, 2, 3)]
    fixtures += [(d, p, texts) for d, p, texts, _ in SWEPT_SPECS]
    for field in (QQ, GF):
        for d, p, texts in fixtures:
            spec = K(RingSpec(d=d, p=p, field=field), texts)
            result = g_mult_et(spec)
            numer = truncation_numerator(spec, result.t)
            assert [derivative_at_one(numer, k) for k in range(d)] == [0] * d, texts
            value, rem = divmod((-1) ** d * derivative_at_one(numer, d), factorial(d))
            assert rem == 0 and result.value == value, (texts, result.value, value)


def test_not_multiplicity_system_gate():
    # a single element in two x-variables leaves an infinite quotient slice
    with pytest.raises(NotMultiplicitySystem):
        g_mult_et(K(R21, ["x1*t1"]))


def test_slice_basis_sizes_match_chain_dim():
    spec = K(R21, ["x1*t1", "x2^2*t1"])
    t = default_t(spec)
    for i in range(0, 3):
        for delta in range(0, 5):
            assert len(_slice_basis(spec, i, t, delta)) == chain_dim(spec, i, t, delta)


def test_slice_basis_codes_decode_to_the_monomials_of_each_bidegree():
    """Each subset's codes in a slice basis decode to the monomials of its
    bidegree (t - kt, delta - kx), in descending term order: the reference
    lists them from exponent tuples and sorts them by ``DEGREVLEX_X``."""
    listed = 0
    for d, p, texts, t in SWEPT_SPECS:
        ring = RingSpec(d=d, p=p)
        spec = K(ring, texts)
        t = default_t(spec) if t is None else t
        monomial = packing(ring).monomial
        for n in range(spec.m + 1):
            for delta in range(6):
                decoded = {}
                for subset, code in _slice_basis(spec, n, t, delta):
                    decoded.setdefault(subset, []).append(monomial(code))
                for subset in combinations(range(spec.m), n):
                    kt = t - sum(spec.tdegs[s] for s in subset)
                    kx = delta - sum(spec.xdegs[s] for s in subset)
                    reference = [
                        Monomial(te, xe)
                        for te in compositions_desc(kt, p)
                        for xe in compositions_desc(kx, d)
                    ]
                    reference.sort(key=DEGREVLEX_X.key, reverse=True)
                    assert decoded.get(subset, []) == reference, (texts, subset, t, delta)
                    listed += len(reference)
    assert listed > 0


def test_g_mult_over_prime_field():
    from brim import PrimeField

    rp = RingSpec(d=2, p=1, field=PrimeField(32003))
    spec = K(rp, ["x1^2*t1", "x2*t1"])
    assert g_mult_et(spec).value == 2


def test_g_mult_rank_two_bridge():
    """Three degree-one elements spanning an m-primary submodule of R^2:
    the g-multiplicity agrees with the Buchsbaum-Rim multiplicity."""
    from brim import GradedSubmodule, RingSpec, ebr

    r22 = RingSpec(d=2, p=2)
    texts = ["x1*t1", "x2*t2", "x1*t2 + x2*t1"]
    spec = K(r22, texts)
    value = g_mult_et(spec).value
    module = GradedSubmodule.from_gens(r22, 1, texts)
    assert value == ebr(module).value == 3


def test_rank_above_the_matrix_side_is_an_internal_error(monkeypatch):
    from brim import InternalError, koszul

    monkeypatch.setattr(koszul, "matrix_rank", lambda rows, fld: len(rows) + len(rows[0]))
    with pytest.raises(InternalError, match="exceeds its smaller side"):
        g_mult_et(K(R21, ["x1*t1", "x2*t1"]))


def test_negative_homology_dimension_is_an_internal_error(monkeypatch):
    from brim import InternalError, koszul

    monkeypatch.setattr(koszul, "chain_dim", lambda spec, i, t, delta: 0)
    with pytest.raises(InternalError, match="negative homology"):
        g_mult_et(K(R21, ["x1*t1", "x2*t1"]))


def test_g_mult_agrees_over_qq_and_a_prime_field():
    """The exact ranks over QQ and GF(32003) give the same homology."""
    from brim import PrimeField

    gf = PrimeField(32003)
    cases = [
        (R21, ["x1*t1", "x2*t1"]),
        (R21, ["x1^2*t1", "x2*t1"]),
        (R21, ["x1*t1", "x2^2*t1"]),
        (R21, ["x1^2*t1", "x2^3*t1"]),
        (RingSpec(d=2, p=2), ["x1*t1", "x2*t2", "x1*t2 + x2*t1"]),
    ]
    for ring, texts in cases:
        over_qq = g_mult_et(K(ring, texts))
        over_gf = g_mult_et(K(RingSpec(d=ring.d, p=ring.p, field=gf), texts))
        assert over_qq.value == over_gf.value, texts
        assert over_qq.homology_dims == over_gf.homology_dims, texts
