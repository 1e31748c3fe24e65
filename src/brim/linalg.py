"""Exact linear algebra over the coefficient fields: one sparse echelon kernel.

Vectors are sparse ``{column: value}`` dicts over a field of ``brim.ring``.
An ``Echelon`` holds rows keyed by their pivot.  A row's pivot is its
smallest column and its entry there is one, so only the entries after the
pivot are stored.  ``reduce`` eliminates every pivot column of a vector in
increasing order; subtracting a row changes no column below its pivot, so
the remainder has no entry in any pivot column.  ``insert`` stores a nonzero
remainder as a new row.  ``rank`` and ``PairedSpan`` both run on it.
"""

from __future__ import annotations

import heapq

from .errors import InvalidInput
from .ring import PrimeField, Rationals


class Echelon:
    """Sparse rows in echelon form over a field, keyed by pivot column."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> {column: value} after the pivot

    def reduce(self, vec: dict) -> dict:
        """Remainder of vec after eliminating every pivot column; consumes vec."""
        fld = self.field
        rows = self.rows
        heap = [j for j in vec if j in rows]
        heapq.heapify(heap)
        while heap:
            pivot = heapq.heappop(heap)
            c = vec.pop(pivot, None)
            if c is None:  # pushed twice, or cancelled since it was pushed
                continue
            for j, b in rows[pivot].items():
                a = vec.get(j)
                if a is None:
                    vec[j] = fld.neg(fld.mul(c, b))
                    if j in rows:
                        heapq.heappush(heap, j)
                else:
                    a = fld.sub(a, fld.mul(c, b))
                    if fld.is_zero(a):
                        del vec[j]
                    else:
                        vec[j] = a
        return vec

    def insert(self, rem: dict):
        """Store a nonzero remainder of ``reduce`` as a row, monic at its pivot."""
        fld = self.field
        pivot = min(rem)
        inv = fld.invert(rem.pop(pivot))
        self.rows[pivot] = {j: fld.mul(a, inv) for j, a in rem.items()}


def rank(rows, field) -> int:
    """Exact rank over the given field of a matrix given as dense rows."""
    if not isinstance(field, (Rationals, PrimeField)):
        raise InvalidInput(f"rank over unsupported field {field!r}")
    echelon = Echelon(field)
    for row in rows:
        vec = {}
        for j, v in enumerate(row):
            if v:  # most entries are zero: skip them before coercing
                c = field.coerce(v)
                if not field.is_zero(c):
                    vec[j] = c
        rem = echelon.reduce(vec)
        if rem:
            echelon.insert(rem)
    return len(echelon.rows)


class PairedSpan(Echelon):
    """Echelon on image vectors with carried preimages.

    add(w, v) reduces w, in columns 0..len(w)-1, together with v, placed
    after it.  It returns ("new", None) when w enlarges the image span,
    ("kernel", u) when w reduces to zero but the carried preimage u does not
    (a witness that the map is not injective on the accumulated span), and
    ("dependent", None) when both collapse.
    """

    def add(self, w, v):
        fld = self.field
        width = len(w)
        vec = {j: a for j, a in enumerate(w) if not fld.is_zero(a)}
        vec.update((width + j, a) for j, a in enumerate(v) if not fld.is_zero(a))
        rem = self.reduce(vec)
        if not rem:
            return ("dependent", None)
        if min(rem) < width:
            self.insert(rem)
            return ("new", None)
        u = [fld.zero] * len(v)
        for j, a in rem.items():
            u[j - width] = a
        return ("kernel", u)
