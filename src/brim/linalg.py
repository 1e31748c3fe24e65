"""Exact dense linear algebra over the coefficient fields.

Ranks over the rationals are computed by fraction-free (Bareiss) elimination
on integer matrices after clearing denominators; prime-field ranks by plain
modular elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidInput
from .ring import PrimeField, Rationals


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix, fraction-free one-step Bareiss."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0 or not m[0]:
        return 0
    cols = len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pivot = m[r][c]
        for i in range(r + 1, n):
            mic = m[i][c]
            if mic == 0 and pivot == prev:  # the update would leave row i as it is
                continue
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, cols):
                row_i[j] = (row_i[j] * pivot - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = pivot
        r += 1
        if r == n:
            break
    return r


def _clear_row(row):
    den = 1
    for v in row:
        f = Fraction(v)
        den = den * f.denominator // gcd(den, f.denominator)
    return [int(Fraction(v) * den) for v in row]


def rank(rows, field) -> int:
    """Exact rank over the given field."""
    rows = list(rows)
    if not rows or not rows[0]:
        return 0
    if isinstance(field, Rationals):
        return bareiss_rank([_clear_row(r) for r in rows])
    if not isinstance(field, PrimeField):
        raise InvalidInput(f"rank over unsupported field {field!r}")
    p = field.p
    m = [[v % p for v in r] for r in rows]
    n, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, n):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(v * inv) % p for v in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        if r == n:
            break
    return r


class IncrementalSpan:
    """Row-echelon accumulator; add() reports whether the vector was new."""

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self.rows = []  # (pivot_col, normalized row)

    def _reduce(self, vec):
        fld = self.field
        vec = list(vec)
        for pivot, row in self.rows:
            c = vec[pivot]
            if not fld.is_zero(c):
                vec = [fld.sub(a, fld.mul(c, b)) for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        fld = self.field
        vec = self._reduce(vec)
        for i, v in enumerate(vec):
            if not fld.is_zero(v):
                inv = fld.invert(v)
                row = [fld.mul(a, inv) for a in vec]
                self.rows.append((i, row))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.rows)


class PairedSpan:
    """Echelon on image vectors with carried preimages.

    add(w, v) returns ("new", None) when w enlarges the image span,
    ("kernel", u) when w reduces to zero but the carried preimage u does not
    (a witness that the map is not injective on the accumulated span), and
    ("dependent", None) when both collapse.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot_col, w_row, v_row)

    def add(self, w, v):
        fld = self.field
        w = list(w)
        v = list(v)
        for pivot, wr, vr in self.rows:
            c = w[pivot]
            if not fld.is_zero(c):
                w = [fld.sub(a, fld.mul(c, b)) for a, b in zip(w, wr)]
                v = [fld.sub(a, fld.mul(c, b)) for a, b in zip(v, vr)]
        for i, val in enumerate(w):
            if not fld.is_zero(val):
                inv = fld.invert(val)
                w = [fld.mul(a, inv) for a in w]
                v = [fld.mul(a, inv) for a in v]
                self.rows.append((i, w, v))
                self.rows.sort(key=lambda t: t[0])
                return ("new", None)
        if any(not fld.is_zero(a) for a in v):
            return ("kernel", v)
        return ("dependent", None)
