"""Exact linear algebra over the coefficient fields: one sparse integer kernel.

Vectors are sparse ``{column: int}`` dicts, for both fields, and a column
is any totally ordered key: ``koszul`` numbers its columns, and the
superficial witness keys them by monomial codes.  Over GF(p) the
ints are residues in [0, p).  Over QQ they are integers: a vector of
rationals enters once, times the lcm of its denominators
(``Echelon.integral``), and no fraction is formed inside the elimination.
``rank`` takes a matrix in the same form, as a list of sparse rows, the way
``koszul`` builds its differentials; no dense matrix is formed.

An ``Echelon`` holds rows keyed by their pivot, the smallest column, and
each row stores its pivot entry a.  A GF(p) row is monic (a = 1); a QQ row
is primitive (the gcd of its entries is one) with a > 0.  ``reduce``
eliminates every pivot column of a vector in increasing order.  With c the
vector's entry in the pivot column and g = gcd(a, c), one step is
v <- (a/g) v - (c/g) row over QQ and v <- (v - c row) mod p over GF(p).  A
step changes no column below its pivot, so the remainder has no entry in any
pivot column.  ``insert`` stores a nonzero remainder as a new row.

Remainders are exact.  The rows are independent with distinct pivots, and
a nonzero combination of them is nonzero at the smallest pivot it uses.  So
a vector u has exactly one remainder: the vector of u + span(rows) with no
pivot-column entry, whatever the order or scale of the rows.  The integer
remainder is that vector times the product of the factors a/g, which
``reduce`` returns; dividing by it (and by the lcm of the input's
denominators) once gives the remainder that elimination over fractions
gives.  ``PairedSpan`` does so for its kernel vectors; ``rank`` and
``rees.DegreeSweep`` need only whether a remainder is zero.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import InvalidInput
from .ring import PrimeField, Rationals


class Echelon:
    """Sparse integer rows in echelon form, keyed by pivot column."""

    def __init__(self, field):
        if not isinstance(field, (PrimeField, Rationals)):
            raise InvalidInput(f"linear algebra over unsupported field {field!r}")
        self.modulus = field.p  # the characteristic: 0 over QQ
        self.field = field
        self.rows = {}  # pivot column -> {column: int}, the pivot entry included

    def integral(self, vec: dict) -> int:
        """Make a vector of field elements integral in place; returns the
        factor it now carries.  Over QQ the values, ints or fractions, are
        multiplied by the lcm of their denominators; GF(p) residues are
        integral already."""
        if self.modulus:
            return 1
        den = lcm(*(v.denominator for v in vec.values()))
        for j, v in vec.items():
            vec[j] = v.numerator * (den // v.denominator)
        return den

    def reduce(self, vec: dict) -> int:
        """Eliminate every pivot column of vec in place.  Returns the factor
        s with vec_out = s * (vec_in - a combination of rows); s is one
        over GF(p)."""
        p = self.modulus
        rows = self.rows
        scale = 1
        heap = [j for j in vec if j in rows]
        heapify(heap)
        while heap:
            pivot = heappop(heap)
            c = vec.get(pivot)
            if c is None:  # pushed twice, or cancelled since it was pushed
                continue
            row = rows[pivot]
            a = row[pivot]
            if a != 1:  # over QQ only: v <- (a/g) v - (c/g) row
                g = gcd(a, c)
                a //= g
                c //= g
                if a != 1:
                    scale *= a
                    for j in vec:
                        vec[j] *= a
            for j, b in row.items():  # cancels the pivot entry too
                v = vec.get(j)
                if v is None:
                    v = -c * b
                    if j in rows:
                        heappush(heap, j)
                else:
                    v -= c * b
                if p:
                    v %= p
                if v:
                    vec[j] = v
                else:
                    del vec[j]
        return scale

    def insert(self, rem: dict):
        """Store a nonzero remainder of ``reduce`` as a row: monic over
        GF(p), primitive with a positive pivot over QQ."""
        pivot = min(rem)
        a = rem[pivot]
        p = self.modulus
        if p:
            inv = pow(a, -1, p)
            rem = {j: v * inv % p for j, v in rem.items()}
        else:
            g = gcd(*rem.values())
            if a < 0:
                g = -g
            if g != 1:
                rem = {j: v // g for j, v in rem.items()}
        self.rows[pivot] = rem


def rank(rows, field) -> int:
    """Exact rank over the given field of a matrix given as sparse rows,
    ``{column: value}`` dicts.  Over GF(p) ints are reduced mod p and
    fractions coerced to residues; over QQ, ints and fractions enter as they
    are.  Zero values are dropped, and the rows are left as they were."""
    echelon = Echelon(field)
    p = echelon.modulus
    for row in rows:
        if p:
            vec = {
                j: c
                for j, v in row.items()
                if (c := v % p if isinstance(v, int) else field.coerce(v))
            }
        else:
            vec = {j: v for j, v in row.items() if v}
            echelon.integral(vec)
        echelon.reduce(vec)
        if vec:
            echelon.insert(vec)
    return len(echelon.rows)


class PairedSpan(Echelon):
    """Echelon on image vectors with carried preimages.

    add(w, v) takes two sparse vectors whose columns are any totally ordered
    keys, and reduces w together with v; every column of w sorts before
    every column of v, as (0, j) before (1, j).  It returns ("new", None)
    when w enlarges the image span, ("kernel", u) when w reduces to zero
    but the carried preimage u does not (a witness that the map is not
    injective on the accumulated span), and ("dependent", None) when both
    collapse.  u is the exact remainder of v, as {column: field value}.
    """

    def add(self, w: dict, v: dict):
        vec = {(0, j): a for j, a in w.items() if a}
        vec.update(((1, j), a) for j, a in v.items() if a)
        scale = self.integral(vec)
        scale *= self.reduce(vec)
        if not vec:
            return ("dependent", None)
        if min(vec)[0] == 0:
            self.insert(vec)
            return ("new", None)
        fld = self.field
        return ("kernel", {j: fld.from_fraction(a, scale) for (_, j), a in vec.items()})
