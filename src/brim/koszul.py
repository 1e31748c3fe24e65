"""Koszul g-multiplicity of bihomogeneous elements of S.

The Koszul complex on elements a1..am splits into finite-dimensional slices
by t-degree and x-degree because every a_i is bihomogeneous; homology
dimensions per slice are ranks of sparse rows whose basis monomials are
codes of the ring's one ``poly.Packing``, the codes every ``Polynomial``
holds, so an element's terms enter the rows as they are.  The degree-t
g-multiplicity is the alternating sum of homology dimensions.  A rank above
the smaller side of its matrix, or a negative homology dimension, raises
InternalError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InternalError, InvalidInput, NoStabilization, NotMultiplicitySystem
from .groebner import GeneratorSet, buchberger, colength
from .linalg import rank as matrix_rank
from .poly import count_bidegree, packing, t_shifts

DELTA_CAP = 40
STAB_WIDTH = 3


@dataclass(frozen=True)
class KoszulSpec:
    """Bihomogeneous elements a1..am with their pure bidegrees."""

    ring: object
    elems: tuple
    tdegs: tuple
    xdegs: tuple

    def __init__(self, ring, elems):
        elems = tuple(elems)
        if not elems:
            raise InvalidInput("need at least one element")
        tdegs, xdegs = [], []
        for a in elems:
            if a.ring != ring:
                raise InvalidInput("element from a different ring")
            if a.is_zero() or not a.is_bihomogeneous():
                raise InvalidInput(f"element {a} is not nonzero bihomogeneous")
            xd, td = a.bidegree()
            tdegs.append(td)
            xdegs.append(xd)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "elems", elems)
        object.__setattr__(self, "tdegs", tuple(tdegs))
        object.__setattr__(self, "xdegs", tuple(xdegs))

    @property
    def m(self) -> int:
        return len(self.elems)


def default_t(spec: KoszulSpec) -> int:
    return 2 * sum(spec.tdegs) + spec.ring.d + spec.ring.p


def chain_dim(spec: KoszulSpec, i: int, t: int, delta: int) -> int:
    """Dimension of the (t, delta) slice of the i-th Koszul chain module."""
    if i < 0 or i > spec.m:
        return 0
    total = 0
    for subset in itertools.combinations(range(spec.m), i):
        kt = sum(spec.tdegs[s] for s in subset)
        kx = sum(spec.xdegs[s] for s in subset)
        total += count_bidegree(spec.ring, t - kt, delta - kx)
    return total


def _slice_basis(spec: KoszulSpec, n: int, t: int, delta: int):
    """Basis of the slice: pairs (subset, code), the code a monomial of the
    ring's ``Packing``, deterministically ordered.  Subsets of one bidegree
    share one list of codes, descending in the term order."""
    pack = packing(spec.ring)
    basis, codes = [], {}
    for subset in itertools.combinations(range(spec.m), n):
        kt = t - sum(spec.tdegs[s] for s in subset)
        kx = delta - sum(spec.xdegs[s] for s in subset)
        if kt < 0 or kx < 0:
            continue
        if (kt, kx) not in codes:
            xs = pack.x_codes(kx)
            codes[kt, kx] = [s + x for s in pack.t_codes(kt) for x in xs]
        basis.extend((subset, c) for c in codes[kt, kx])
    return basis


def _differentials(spec: KoszulSpec, t: int, delta: int):
    """Sparse rows of d_1..d_m on the (t, delta) slice, one {source column:
    coefficient} dict per target basis element, with the column count.  The
    bases and the elements' terms are codes of one ``Packing``, so a
    product's code is the sum of the codes; its bidegree (t, delta) is below
    the slot base, which the gate's t-shifts have checked for t."""
    # the terms of each element and of its negative, as they are held
    terms = [[f._terms.items() for f in (a, -a)] for a in spec.elems]
    bases = [_slice_basis(spec, i, t, delta) for i in range(spec.m + 1)]
    out = []
    for src, tgt in zip(bases[1:], bases):
        rows = [{} for _ in tgt] if src else []
        tgt_index = {key: r for r, key in enumerate(tgt)}
        for col, (subset, u) in enumerate(src):
            for pos, elem_idx in enumerate(subset):
                rest = subset[:pos] + subset[pos + 1 :]
                for code, c in terms[elem_idx][pos % 2]:  # the negative at odd positions
                    rows[tgt_index[rest, code + u]][col] = c
        out.append((rows, len(src)))
    return out


def _sweep(spec: KoszulSpec, t: int):
    """Per-delta homology dimensions h[i], scanned until a trailing width-3
    window of zero contribution; K_0..K_m's bases are built once per delta."""
    m = spec.m
    fld = spec.ring.field
    per_delta = []
    zero_run = 0
    for delta in range(DELTA_CAP + 1):
        dims = [chain_dim(spec, i, t, delta) for i in range(m + 1)]
        ranks = [0] * (m + 2)
        for n, (rows, cols) in enumerate(_differentials(spec, t, delta), start=1):
            ranks[n] = matrix_rank(rows, fld) if rows else 0
            if ranks[n] > min(len(rows), cols):
                raise InternalError(
                    f"rank {ranks[n]} of the {len(rows)}x{cols} matrix of d_{n} "
                    f"at t={t}, delta={delta} exceeds its smaller side"
                )
        h = [dims[i] - ranks[i] - ranks[i + 1] for i in range(m + 1)]
        if any(v < 0 for v in h):
            raise InternalError(f"negative homology dimensions {h} at t={t}, delta={delta}")
        per_delta.append(h)
        if all(v == 0 for v in h):
            zero_run += 1
            if zero_run >= STAB_WIDTH and delta >= STAB_WIDTH:
                return per_delta
        else:
            zero_run = 0
    raise NoStabilization(
        f"homology contributions did not vanish within x-degree {DELTA_CAP}"
    )


@dataclass
class GMultResult:
    value: int
    t: int
    homology_dims: dict  # (i, delta) -> dim, up to the stabilization cutoff


def _multiplicity_system_gate(spec: KoszulSpec, t: int):
    ring = spec.ring
    gens = []
    for a, kt in zip(spec.elems, spec.tdegs):
        if kt <= t:
            gens.extend(t_shifts(ring, [a], t - kt))
    basis = buchberger(GeneratorSet(ring, t, gens))
    report = colength(basis)
    if not report.finite:
        raise NotMultiplicitySystem(
            f"the degree-{t} quotient slice has infinite length"
        )


def g_mult_et(spec: KoszulSpec, t: Optional[int] = None) -> GMultResult:
    """Alternating sum of degree-t Koszul homology lengths."""
    if t is None:
        t = default_t(spec)
    if t < 0:
        raise InvalidInput("t must be non-negative")
    _multiplicity_system_gate(spec, t)
    per_delta = _sweep(spec, t)
    value = 0
    dims = {}
    for delta, h in enumerate(per_delta):
        for i, v in enumerate(h):
            dims[(i, delta)] = v
        value += sum((-1) ** i * v for i, v in enumerate(h))
    return GMultResult(value=value, t=t, homology_dims=dims)
