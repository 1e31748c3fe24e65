import random
from fractions import Fraction

import pytest

from brim import InvalidInput
from brim.linalg import bareiss_rank, rank
from brim.ring import QQ, PrimeField

# Above every minor of the matrices below (Hadamard: (4 * 6**0.5)**6 < 10**6),
# so the rank mod BIG_PRIME equals the rank over QQ.
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


def test_bareiss_rank_scales_rows_with_zero_in_the_pivot_column():
    rows = [[2, 0, 1, -1], [0, 0, 0, -1], [3, 0, -1, 3], [0, -1, 1, 0]]
    assert fraction_rank(rows) == 4
    assert bareiss_rank(rows) == 4
    assert rank(rows, QQ) == 4


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
        assert bareiss_rank(rows) == expected, rows
        assert rank(rows, gf) == expected, rows


def test_rank_rejects_unknown_field():
    with pytest.raises(InvalidInput):
        rank([[1, 2]], object())
