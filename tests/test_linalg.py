import random
from fractions import Fraction
from math import gcd

import pytest

from brim import InvalidInput
from brim.linalg import PairedSpan, rank
from brim.ring import QQ, PrimeField

from .oracles import DensePairedSpan

# Above every minor of a matrix of at most 6x6 entries in [-4, 4] (Hadamard:
# (4 * 6**0.5)**6 < 10**6), so its rank mod BIG_PRIME equals its rank over QQ.
BIG_PRIME = 1_000_000_007


def fraction_rank(rows) -> int:
    """Reference: Gaussian elimination over exact fractions."""
    m = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def sparse(rows):
    """Dense rows as the ``{column: value}`` dicts ``rank`` takes, zeros kept."""
    return [dict(enumerate(row)) for row in rows]


def test_bareiss_rank_scales_rows_with_zero_in_the_pivot_column():
    rows = [[2, 0, 1, -1], [0, 0, 0, -1], [3, 0, -1, 3], [0, -1, 1, 0]]
    assert fraction_rank(rows) == 4
    assert rank(sparse(rows), QQ) == 4


def test_bareiss_rank_matches_fraction_and_modular_rank():
    rng = random.Random(7)
    gf = PrimeField(BIG_PRIME)
    for _ in range(1500):
        n, cols = rng.randint(1, 6), rng.randint(1, 6)
        zero_frac = rng.random()
        rows = [
            [0 if rng.random() < zero_frac else rng.randint(-4, 4) for _ in range(cols)]
            for _ in range(n)
        ]
        expected = fraction_rank(rows)
        assert rank(sparse(rows), QQ) == expected, rows
        assert rank(sparse(rows), gf) == expected, rows


def test_rank_rejects_unknown_field():
    with pytest.raises(InvalidInput):
        rank([{0: 1, 1: 2}], object())


def modular_rank(rows, p) -> int:
    """Reference: dense Gaussian elimination mod p."""
    m = [[v % p for v in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_of_sparse_matrices_matches_dense_elimination():
    rng = random.Random(11)
    for _ in range(300):
        n, cols = rng.randint(1, 12), rng.randint(1, 12)
        zero_frac = rng.uniform(0.5, 0.95)
        rows = [
            [0 if rng.random() < zero_frac else rng.randint(-4, 4) for _ in range(cols)]
            for _ in range(n)
        ]
        assert rank(sparse(rows), QQ) == fraction_rank(rows), rows
        for p in (2, BIG_PRIME):
            assert rank(sparse(rows), PrimeField(p)) == modular_rank(rows, p), (p, rows)


def dense_add(span, w, v):
    """``PairedSpan.add`` on the dense lists ``DensePairedSpan`` takes: column
    j of w and of v is the key j, and a kernel vector comes back as a list."""
    status, u = span.add(dict(enumerate(w)), dict(enumerate(v)))
    if status == "kernel":
        u = [u.get(j, span.field.coerce(0)) for j in range(len(v))]
    return status, u


def dense_rows(span, width) -> dict:
    """The span's rows in the dense reference's columns: w's column (0, j)
    is j and v's column (1, j) is width + j."""

    def col(key):
        side, j = key
        return side * width + j

    return {col(p): {col(k): c for k, c in row.items()} for p, row in span.rows.items()}


def test_paired_span_matches_the_dense_reference():
    """Same statuses and the same kernel vectors as dense elimination."""
    rng = random.Random(5)
    statuses = set()
    for field in (QQ, PrimeField(2), PrimeField(7), PrimeField(32003)):
        for _ in range(300):
            width, vwidth = rng.randint(1, 6), rng.randint(1, 6)
            density = rng.uniform(0.2, 0.9)

            def draw(size):
                return [
                    field.coerce(rng.randint(-3, 3)) if rng.random() < density else field.coerce(0)
                    for _ in range(size)
                ]

            span, ref = PairedSpan(field), DensePairedSpan(field)
            for _ in range(rng.randint(1, 10)):
                w, v = draw(width), draw(vwidth)
                got, expected = dense_add(span, w, v), ref.add(w, v)
                assert got == expected, (field, w, v)
                statuses.add(got[0])
    assert statuses == {"new", "kernel", "dependent"}


def draw_fraction(rng):
    """A nonzero rational with denominator in 1..5."""
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 5))


def test_rank_of_fraction_matrices_matches_fraction_rank():
    rng = random.Random(13)
    for _ in range(500):
        n, cols = rng.randint(1, 7), rng.randint(1, 7)
        zero_frac = rng.uniform(0.0, 0.8)
        rows = [
            [Fraction(0) if rng.random() < zero_frac else draw_fraction(rng) for _ in range(cols)]
            for _ in range(n)
        ]
        assert rank(sparse(rows), QQ) == fraction_rank(rows), rows
    # dependent only over QQ: the second row is 5/6 times the first
    f = Fraction
    rows = [[f(1, 2), f(2, 3), f(3, 5)], [f(5, 12), f(5, 9), f(1, 2)]]
    assert rank(sparse(rows), QQ) == fraction_rank(rows) == 1


def test_rank_of_sparse_rows_with_zeros_gaps_fractions_and_large_residues():
    """Sparse rows ``rank`` accepts beyond the ones ``koszul`` builds:
    explicit zero values, empty rows and left-out columns; QQ fractions; and
    over GF(BIG_PRIME), values r + k * BIG_PRIME, some of them >= p and some
    zero mod p.  The rank matches ``fraction_rank`` of the dense matrix (of the
    r over GF, whose rank mod BIG_PRIME is their rank over QQ), and the rows
    are left as they were."""
    rng = random.Random(19)
    gf = PrimeField(BIG_PRIME)
    seen = set()
    for _ in range(500):
        n, cols = rng.randint(1, 6), rng.randint(1, 6)
        qq_rows, gf_rows, qq_dense, gf_dense = [], [], [], []
        for _ in range(n):
            support = rng.sample(range(cols), rng.randint(0, cols))
            qq_row = {j: rng.choice([0, draw_fraction(rng), rng.randint(-4, 4)]) for j in support}
            small = {j: rng.randint(-4, 4) for j in support}
            gf_row = {j: r + rng.randint(0, 3) * BIG_PRIME for j, r in small.items()}
            qq_rows.append(qq_row)
            gf_rows.append(gf_row)
            qq_dense.append([qq_row.get(j, 0) for j in range(cols)])
            gf_dense.append([small.get(j, 0) for j in range(cols)])
            seen.add("empty" if not support else "partial" if len(support) < cols else "full")
            seen.update("zero" for v in qq_row.values() if v == 0)
            seen.update("fraction" for v in qq_row.values() if isinstance(v, Fraction))
            seen.update("residue >= p" for v in gf_row.values() if v >= BIG_PRIME)
            seen.update("zero mod p" for v in gf_row.values() if v and v % BIG_PRIME == 0)
        copies = [dict(r) for r in qq_rows + gf_rows]
        assert rank(qq_rows, QQ) == fraction_rank(qq_dense), qq_rows
        assert rank(gf_rows, gf) == fraction_rank(gf_dense), gf_rows
        assert qq_rows + gf_rows == copies
    assert seen == {"empty", "partial", "full", "zero", "fraction", "residue >= p", "zero mod p"}


def sparse_monic(row: dict) -> dict:
    """A row divided by its entry at its pivot, the smallest column."""
    a = row[min(row)]
    return {j: Fraction(v, a) for j, v in row.items()}


def test_paired_span_on_fraction_entries_matches_the_dense_reference():
    """Statuses and exact kernel vectors as dense elimination over fractions
    gives them; every stored row is a primitive integer row with a positive
    pivot, proportional to the reference's monic row."""
    rng = random.Random(17)
    statuses = set()
    for _ in range(400):
        width, vwidth = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.uniform(0.3, 0.9)

        def draw(size):
            return [draw_fraction(rng) if rng.random() < density else QQ.coerce(0) for _ in range(size)]

        span, ref = PairedSpan(QQ), DensePairedSpan(QQ)
        for _ in range(rng.randint(1, 8)):
            w, v = draw(width), draw(vwidth)
            got, expected = dense_add(span, w, v), ref.add(w, v)
            assert got == expected, (w, v)
            statuses.add(got[0])
            if got[0] == "kernel" and any(c.denominator > 1 for c in got[1]):
                statuses.add("fractional kernel")
            expected_rows = {}
            for pivot, wr, vr in ref.rows:
                dense = list(wr) + list(vr)
                expected_rows[pivot] = {j: c for j, c in enumerate(dense) if c}
            assert {p: sparse_monic(r) for p, r in dense_rows(span, width).items()} == expected_rows
            for pivot, row in span.rows.items():
                assert all(type(c) is int for c in row.values()), row
                assert row[pivot] > 0 and gcd(*row.values()) == 1, row
    assert statuses == {"new", "kernel", "dependent", "fractional kernel"}
