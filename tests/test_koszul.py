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
from brim.koszul import _diff_matrix, _slice_basis, default_t

R21 = RingSpec(d=2, p=1)
R11 = RingSpec(d=1, p=1)


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


def test_differential_squares_to_zero():
    spec = K(R21, ["x1*t1", "x2^2*t1"])
    t = default_t(spec)
    fld = R21.field
    for delta in range(0, 6):
        d2, src2, mid = _diff_matrix(spec, 2, t, delta)
        d1, src1, tgt1 = _diff_matrix(spec, 1, t, delta)
        if not d2 or not d1:
            continue
        # rows of d1: tgt basis; columns: K1 basis == rows of d2
        for col in range(src2):
            column = [d2[r][col] for r in range(mid)]
            for out_row in range(tgt1):
                acc = fld.zero
                for k in range(mid):
                    acc = fld.add(acc, fld.mul(d1[out_row][k], column[k]))
                assert fld.is_zero(acc)


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
