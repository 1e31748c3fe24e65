"""Acceptance suite: one test per criterion, exact integer identities.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Criterion 10 asserts the whole module stays inside its time
budget, so these tests are meant to run in definition order.
"""

import json
import time

from brim import (
    GradedSubmodule,
    RingSpec,
    Verdict,
    converse_criterion,
    ebr,
    g_mult_et,
    KoszulSpec,
    mixed,
    parse_polynomial,
    rees_equivalence_check,
    risler_teissier_check,
    tilde_ebr,
)

from .conftest import run_brim
from .oracles import length_m_power, length_mF_power, monomial_module_colength

MODULE_T0 = time.monotonic()

R11 = RingSpec(d=1, p=1)
R21 = RingSpec(d=2, p=1)
R22 = RingSpec(d=2, p=2)
R12 = RingSpec(d=1, p=2)


def mk(ring, gens):
    return GradedSubmodule.from_gens(ring, 1, gens)


def P(ring, text):
    return parse_polynomial(ring, text)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


M21 = ["x1*t1", "x2*t1"]
M2_21 = ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]
MF22 = ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]
E12 = ["x1^2*t1", "x1^3*t2"]


def test_criterion_1_ebr_fixtures():
    t0 = time.monotonic()
    fix_a = mk(R11, ["x1^2*t1"])
    fix_b = mk(R12, E12)
    fix_c = mk(R22, MF22)

    # oracle first: staircase counts of the power tables, frozen closed forms
    for n in range(1, 6):
        assert monomial_module_colength(
            R11, n, [g.leading_term()[0] for g in fix_a.power(n).gens]
        ) == 2 * n
        assert length_mF_power(n) == (n + 1) * length_m_power(2, n)

    ra, rb, rc = ebr(fix_a), ebr(fix_b), ebr(fix_c)
    assert ra.value == 2
    assert rb.value == 5
    assert rc.value == 3
    # tables agree with the oracle closed forms
    assert [ra.table.values[(n,)] for n in range(1, 6)] == [2 * n for n in range(1, 6)]
    assert [rb.table.values[(n,)] for n in range(1, 5)] == [
        5 * n * (n + 1) // 2 for n in range(1, 5)
    ]
    assert [rc.table.values[(n,)] for n in range(1, 5)] == [
        length_mF_power(n) for n in range(1, 5)
    ]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report("C1", f"ebr = 2, 5, 3 with oracle tables, {elapsed:.2f}s")


REES_PAIRS = [
    # (U generators, E generators, ring)
    (M21, M21, R21),
    (["x1^2*t1", "x2^2*t1"], M2_21, R21),
    (["x1^3*t1", "x2^3*t1"], ["x1^3*t1", "x1^2*x2*t1", "x1*x2^2*t1", "x2^3*t1"], R21),
    (["x1^2*t1", "x2^2*t1"], ["x1^2*t1", "x1*x2*t1", "x2^2*t1"], R21),
    (["x1^2*t1", "x2^3*t1"], ["x1^2*t1", "x1*x2*t1", "x2^3*t1"], R21),
    (["x1^3*t1", "x2^3*t1"], M2_21, R21),
    (["x1^2*t1 + x2^2*t1", "x1*x2*t1"], M2_21, R21),
    (["x1^2*t1 - x2^2*t1", "x1*x2*t1"], M2_21, R21),
    (["x1^2*t1 + x1*x2*t1", "x2^2*t1"], M2_21, R21),
    (
        ["x1^2*t1 + 2*x1*x2*t1 + x2^2*t1", "x1^2*t1 - 2*x1*x2*t1 + x2^2*t1"],
        M2_21,
        R21,
    ),
    (["x1^2*t1", "x1*x2*t1 + x2^2*t1"], M2_21, R21),
    (["x1^3*t1", "x2^2*t1"], ["x1^3*t1", "x1*x2*t1", "x2^2*t1"], R21),
    (
        ["x1^3*t1", "x1^2*x2*t1", "x1*x2^2*t1", "x2^3*t1"],
        ["x1^3*t1", "x1^2*x2*t1", "x1*x2^2*t1", "x2^3*t1"],
        R21,
    ),
    (
        ["x1^4*t1", "x2^4*t1"],
        ["x1^4*t1", "x1^3*x2*t1", "x1^2*x2^2*t1", "x1*x2^3*t1", "x2^4*t1"],
        R21,
    ),
    (["x1^4*t1", "x2^3*t1"], ["x1^4*t1", "x1*x2*t1", "x2^3*t1"], R21),
    (
        ["x1^3*t1 + 3*x1^2*x2*t1 + 3*x1*x2^2*t1 + x2^3*t1", "x1^3*t1"],
        ["x1^3*t1", "x1^2*x2*t1", "x1*x2^2*t1", "x2^3*t1"],
        R21,
    ),
    (MF22, MF22, R22),
    (["x1*t1", "x2*t2", "x1*t2 + x2*t1"], MF22, R22),
    (
        ["x1^2*t1", "x2^2*t1", "x1*t2", "x2*t2"],
        ["x1^2*t1", "x1*x2*t1", "x2^2*t1", "x1*t2", "x2*t2"],
        R22,
    ),
    (
        ["x1^3*t1", "x2^3*t1", "x1*t2", "x2*t2"],
        ["x1^2*t1", "x1*x2*t1", "x2^2*t1", "x1*t2", "x2*t2"],
        R22,
    ),
    (
        ["x1^2*t1", "x2^2*t1", "x1^2*t2", "x2^2*t2"],
        ["x1^2*t1", "x1*x2*t1", "x2^2*t1", "x1^2*t2", "x1*x2*t2", "x2^2*t2"],
        R22,
    ),
    (["x1*t1", "x2*t1", "x1*t2", "x2^2*t2"], MF22, R22),
]


def test_criterion_2_rees_theorem_suite():
    t0 = time.monotonic()
    assert len(REES_PAIRS) >= 20
    true_verdicts = 0
    for ug, eg, ring in REES_PAIRS:
        rep = rees_equivalence_check(mk(ring, ug), mk(ring, eg))
        equal = rep.lhs_mult.value == rep.rhs_mult.value
        is_true = rep.decision.verdict is Verdict.TRUE
        assert equal == is_true, (ug, eg, rep.lhs_mult.value, rep.rhs_mult.value)
        assert rep.consistent
        if is_true:
            # the decider re-verifies the equality at n0 + 1 internally
            true_verdicts += 1
    assert true_verdicts >= 10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("C2", f"{len(REES_PAIRS)} pairs, {true_verdicts} reductions, {elapsed:.2f}s")


def test_criterion_3_power_scaling():
    t0 = time.monotonic()
    for ring, gens in [(R11, ["x1^2*t1"]), (R12, E12), (R22, MF22)]:
        e = mk(ring, gens)
        base = ebr(e).value
        D = ring.d + ring.p - 1
        for r in (2, 3):
            assert tilde_ebr(e.power(r)).value == base * r**D
    report("C3", f"tilde(E^r) = ebr(E)  r^(d+p-1) for r in (2,3), {time.monotonic()-t0:.2f}s")


def test_criterion_4_mixed_multiplicity():
    t0 = time.monotonic()
    m = mk(R21, M21)
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    res = mixed([m, i], (1, 1))
    assert res.value == 1
    corners = {(1, 1): 4, (2, 1): 7, (1, 2): 9, (2, 2): 13}
    for idx, expected in corners.items():
        assert res.table.values[idx] == expected
    # permutation invariance
    assert mixed([i, m], (1, 1)).value == 1
    m2 = mk(R21, M2_21)
    assert mixed([m2, m], (1, 1)).value == mixed([m, m2], (1, 1)).value == 2
    # k = 1 collapse
    for e in [mk(R21, ["x1^2*t1", "x2*t1"]), mk(R12, E12), mk(R22, MF22)]:
        D = e.ring.d + e.ring.p - 1
        assert mixed([e], (D,)).value == ebr(e).value
    report("C4", f"mixed((m,(x^2,y)),(1,1)) = 1, corners (4,7,9,13), {time.monotonic()-t0:.2f}s")


def test_criterion_5_last_argument_scaling():
    t0 = time.monotonic()
    m = mk(R21, M21)
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    for es in ([m, m], [m, i]):
        base = mixed(es, (1, 1)).value
        for l in (2, 3):
            assert mixed([es[0], es[1].power(l)], (1, 1)).value == l * base
    report("C5", f"mixed(E1, E2^l) = l * mixed(E1, E2) for l in (2,3), {time.monotonic()-t0:.2f}s")


def test_criterion_6_koszul_bridge():
    t0 = time.monotonic()
    assert g_mult_et(KoszulSpec(R21, [P(R21, "x1*t1"), P(R21, "x2*t1")])).value == 1
    assert ebr(mk(R21, M21)).value == 1
    assert g_mult_et(KoszulSpec(R21, [P(R21, "x1^2*t1"), P(R21, "x2*t1")])).value == 2
    base = 1
    for l1 in (1, 2, 3):
        for l2 in (1, 2, 3):
            spec = KoszulSpec(R21, [P(R21, f"x1^{l1}*t1"), P(R21, f"x2^{l2}*t1")])
            assert g_mult_et(spec).value == l1 * l2 * base
    report("C6", f"e_t bridge and l1*l2 scaling up to 3, {time.monotonic()-t0:.2f}s")


RISLER_FIXTURES = [
    (R11, [["x1^2*t1"]], (1,), 2),
    (R21, [M21, M21], (1, 1), 1),
    (R21, [M21], (2,), 1),
    (R21, [["x1^2*t1", "x2^2*t1"]], (2,), 4),
    (R21, [["x1^2*t1", "x2*t1"]], (2,), 2),
    (R21, [M2_21, M21], (1, 1), 2),
    (R12, [E12], (2,), 5),
    (R22, [MF22], (3,), 3),
]


def test_criterion_7_risler_teissier():
    t0 = time.monotonic()
    assert len(RISLER_FIXTURES) >= 5
    for ring, gens_list, dvec, expected in RISLER_FIXTURES:
        mods = [mk(ring, g) for g in gens_list]
        rep = risler_teissier_check(mods, dvec, seeds=(0, 1, 2))
        assert rep.lhs_mult.value == expected
        assert set(rep.values_by_seed.values()) == {expected}, (dvec, rep.values_by_seed)
        assert rep.consistent
    elapsed = time.monotonic() - t0
    report("C7", f"{len(RISLER_FIXTURES)} fixtures x 3 seeds, values exact, {elapsed:.2f}s")


def test_criterion_8_converse_theorem():
    t0 = time.monotonic()
    m = mk(R21, M21)
    i = mk(R21, ["x1^2*t1", "x2*t1"])
    x, y, x2 = P(R21, "x1*t1"), P(R21, "x2*t1"), P(R21, "x1^2*t1")

    pos1 = converse_criterion([x, y], [m, m])
    assert pos1.lhs_mult.value == pos1.rhs_mult.value == 1
    assert pos1.decision.verdict is Verdict.TRUE and pos1.decision.witness_n0 <= 6
    assert pos1.consistent

    pos2 = converse_criterion([x, y], [m, i])
    assert pos2.lhs_mult.value == pos2.rhs_mult.value == 1
    assert pos2.decision.verdict is Verdict.TRUE and pos2.decision.witness_n0 <= 6
    assert pos2.consistent

    neg = converse_criterion([x2, y], [m, m])
    assert neg.lhs_mult.value == 2 and neg.rhs_mult.value == 1
    assert neg.decision.verdict is not Verdict.TRUE
    assert neg.decision.counterexample is not None
    assert "x1^" in neg.decision.counterexample  # the uncovered pure power
    assert neg.consistent
    report("C8", f"2 positive + 1 negative converse cases, zero mismatches, {time.monotonic()-t0:.2f}s")


SPEC_DOC = {
    "ring": {"field": "QQ", "d": 2, "p": 1},
    "modules": {
        "m": {"tdeg": 1, "gens": M21},
        "I": {"tdeg": 1, "gens": ["x1^2*t1", "x2*t1"]},
    },
    "elements": {"a1": "x1*t1", "a2": "x2*t1"},
}


def _brim(args, cwd):
    proc = run_brim(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _golden(stdout):
    doc = json.loads(stdout)
    doc.pop("runtime")
    return json.dumps(doc, sort_keys=True)


def test_criterion_9_determinism(tmp_path):
    t0 = time.monotonic()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_DOC))
    commands = [
        ["ebr", str(spec), "-m", "m"],
        ["mixed", str(spec), "-m", "m,I", "-d", "1,1"],
        ["check", "converse", str(spec), "-x", "a1,a2", "-m", "m,m"],
    ]
    for cmd in commands:
        first = _golden(_brim(cmd, tmp_path))
        second = _golden(_brim(cmd, tmp_path))
        assert first == second
    seq = _golden(_brim(["mixed", str(spec), "-m", "m,I", "-d", "1,1", "--threads", "1"], tmp_path))
    par = _golden(_brim(["mixed", str(spec), "-m", "m,I", "-d", "1,1", "--threads", "4"], tmp_path))
    assert seq == par
    report("C9", f"golden reports byte-identical across runs and thread counts, {time.monotonic()-t0:.2f}s")


def test_criterion_10_performance_envelope():
    elapsed = time.monotonic() - MODULE_T0
    assert elapsed < 300.0, f"acceptance suite took {elapsed:.1f}s"
    # any NoStabilization inside the suite would have failed its criterion
    report("C10", f"acceptance suite total {elapsed:.1f}s < 300s, rational coefficients")
