"""Buchberger-style Groebner bases for R-submodules of a t-degree slice of S.

A t-homogeneous polynomial of degree e is a vector over R = k[x1..xd] whose
positions are the degree-e t-monomials; leading-term divisibility therefore
requires equal t-exponents and componentwise <= on x-exponents.  Leading
terms are taken in the one term order of ``poly``, the int order of its
``Packing`` codes: positions first, then degrevlex on x.  S-pairs are only formed between
elements whose leading positions coincide, and leading terms are indexed by
position, so every scan stays inside one position.

Input generators are queued with the S-pairs by sugar degree, as in the
sugar strategy of Giovini et al. (ISSAC 1991): each is reduced by the basis
built so far when its turn comes and joins only if its remainder is nonzero,
so a redundant generator never forms pairs.

Pairs are pruned by the Gebauer-Moeller update (J. Symb. Comput. 6, 1988),
applied one position at a time as each element joins the basis: criterion
B_k drops queued pairs that now have a chain through the new element, and
M/F keep, of the new element's pairs, only those whose lcm no other new lcm
divides.  No pair rescans the basis, and the update's active set, the
elements whose leading monomial no later one divides, is the basis kept.
The product (coprimality) criterion is left out: it rests on f*g = g*f
for ring elements, and two module elements at the same position with
coprime leading monomials need not have an S-pair that reduces to zero.

Division and Buchberger compute on the packed terms that every
``Polynomial`` holds (``poly.Packing``, after M. Monagan and R. Pearce, CASC
2007): each monomial is one int whose order is the term order, a product is
a sum of codes, the position is the code's top slots, and divisibility and
lcms are guard-bit operations on exponent codes.  Nothing is converted: the
generators' terms are read as they are, and basis elements and normal forms
are polynomials on the terms computed.  A degree that reaches the slot base
is a ``ResourceLimit``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import prod
from typing import Optional

from .errors import InternalError, InvalidInput, ResourceLimit
from .poly import Monomial, Packing, Polynomial, _add_terms, packing, t_monomials
from .ring import RingSpec

STANDARD_MONOMIAL_CAP = 10**6
PAIR_CAP = 200_000


@dataclass(frozen=True)
class GeneratorSet:
    """Generators of an R-submodule of the degree-tdeg t-slice of S."""

    ring: RingSpec
    tdeg: int
    gens: tuple

    def __init__(self, ring: RingSpec, tdeg: int, gens):
        kept = []
        for g in gens:
            if not isinstance(g, Polynomial):
                raise InvalidInput("generators must be polynomials")
            if g.ring != ring:
                raise InvalidInput("generator from a different ring")
            if g.is_zero():
                continue
            if g.tdeg_if_homogeneous() != tdeg:
                raise InvalidInput(
                    f"generator {g} is not t-homogeneous of degree {tdeg}"
                )
            kept.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "tdeg", tdeg)
        object.__setattr__(self, "gens", tuple(kept))


class _Reducer:
    """Division engine on packed polynomials (``poly.Packing``): monic
    divisors indexed by leading position, each with its leading code, the
    exponent code of that and its other terms; sums are reduced mod the
    field's characteristic p when it is nonzero."""

    __slots__ = ("pack", "p", "by_pos")

    def __init__(self, pack: Packing):
        self.pack = pack
        self.p = pack.ring.field.p
        self.by_pos = {}

    def add(self, g: dict, lt: int):
        """Add the monic packed divisor g, whose leading code is lt."""
        tail = tuple((c, v) for c, v in g.items() if c != lt)
        divisor = (self.pack.exponents(lt), lt, tail)
        self.by_pos.setdefault(lt >> self.pack.tshift, []).append(divisor)

    def reduce(self, work: dict) -> dict:
        """Full normal form of the packed terms, its terms in descending
        order; consumes work.  Terms are popped largest first; the exponent
        code and the guard test are ``Packing.exponents`` and ``divides``."""
        pack, p, by_pos = self.pack, self.p, self.by_pos
        tshift, xmask, width, guards = pack.tshift, pack.xmask, pack.width, pack.guards
        heap = [-m for m in work]
        heapify(heap)
        rem = {}
        while heap:
            m = -heappop(heap)
            c = work.pop(m, None)
            if c is None:
                continue
            e = (m & xmask) - (m << width & xmask)
            for ed, lt, tail in by_pos.get(m >> tshift, ()):
                if not (e - ed) & guards:
                    break
            else:
                rem[m] = c
                continue
            shift = m - lt  # the divisor is monic: leading terms cancel exactly
            for tm, tc in tail:
                mm = tm + shift
                acc = work.get(mm)
                if acc is None:  # a new term: -c * tc is nonzero in a field
                    if mm >= m or mm & guards:
                        self._refuse(m, lt, mm)
                    work[mm] = -c * tc % p if p else -c * tc
                    heappush(heap, -mm)
                else:
                    acc -= c * tc
                    if p:
                        acc %= p
                    if acc:
                        work[mm] = acc
                    else:
                        del work[mm]
        return rem

    def _refuse(self, m: int, lt: int, mm: int):
        """Raise for the tail term mm that dividing m by lt formed: one that
        does not sort below m, or one whose x-degree reaches the slot base."""
        pack = self.pack
        if mm >= m:
            raise InternalError(
                f"division by a divisor whose leading monomial is not {pack.monomial(lt)}: "
                f"tail term {pack.monomial(mm)} does not sort below {pack.monomial(m)}"
            )
        pack.check(pack.xdeg(mm))


def _monic(g: dict, field):
    """The leading code of the packed g, and g scaled to leading coefficient one."""
    lt = max(g)
    lc, p = g[lt], field.p
    if lc != 1:
        inv = field.invert(lc)
        g = {c: v * inv % p for c, v in g.items()} if p else {c: v * inv for c, v in g.items()}
    return lt, g


class GroebnerBasis:
    """Reduced basis: inter-reduced, monic, leading terms pairwise indivisible.

    ``lts`` holds each element's leading code, in element order; the
    division engine holds the elements' terms.
    """

    __slots__ = ("ring", "tdeg", "elements", "lts", "_reducer")

    def __init__(self, ring, tdeg, elements):
        pack = packing(ring)
        rows = [(f, *_monic(f._terms, ring.field)) for f in elements]
        self.ring, self.tdeg = ring, tdeg
        # an element already monic is kept as it is
        self.elements = tuple(f if g is f._terms else Polynomial._raw(pack, g) for f, _, g in rows)
        self.lts = tuple(lt for _, lt, _ in rows)
        self._reducer = _Reducer(pack)
        for _, lt, g in rows:
            self._reducer.add(g, lt)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def normal_form(v: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Remainder of v on division by the basis; idempotent, v - result in span."""
    if v.ring != basis.ring:
        raise InvalidInput("polynomial from a different ring")
    if not v.is_zero() and v.tdeg_if_homogeneous() != basis.tdeg:
        raise InvalidInput(
            f"normal form requires t-degree {basis.tdeg}, got {v.tdeg_if_homogeneous()}"
        )
    return Polynomial._raw(v.pack, basis._reducer.reduce(dict(v._terms)))


def contains(basis: GroebnerBasis, v: Polynomial) -> bool:
    return normal_form(v, basis).is_zero()


def _minimalize_monomials(ring, tdeg, gens):
    """Reduced basis for monomial generators: drop dominated monomials."""
    pack, one = packing(ring), ring.field.one
    kept = {}  # position -> kept exponent codes
    elements = []
    for lt in sorted({c for g in gens for c in g._terms}):  # divisors first
        e, here = pack.exponents(lt), kept.setdefault(lt >> pack.tshift, [])
        if not any(pack.divides(k, e) for k in here):
            here.append(e)
            elements.append(Polynomial._raw(pack, {lt: one}))
    return GroebnerBasis(ring, tdeg, elements)


def buchberger(gset: GeneratorSet) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic for a fixed input generator order.

    Input generators and S-pairs share one queue, ordered by sugar degree;
    at equal sugar the inputs come first, in input order, then the pairs by
    index.  An input is reduced by the current basis when it is popped and
    joins it only if the remainder is nonzero.  Pairs with distinct leading
    positions are never formed, and ``PAIR_CAP`` counts S-pairs only.  The
    elements kept are the Gebauer-Moeller active set, tail-reduced.  Every
    term is a code; lcms and divisibility are on exponent codes, and
    a pair whose sugar reaches the slot base is a ``ResourceLimit``.
    """
    ring = gset.ring
    if all(g.num_terms() == 1 for g in gset.gens):
        return _minimalize_monomials(ring, gset.tdeg, gset.gens)

    pack, field = packing(ring), ring.field
    xdeg, divides, lcm_of, ones = pack.xdeg, pack.divides, pack.lcm, pack.ones
    gens = [g._terms for g in gset.gens]
    reducer = _Reducer(pack)
    G = []
    lts = []  # leading codes
    exps = []  # their exponent codes
    lifts = []  # sugar minus the leading term's x-degree
    active = {}  # position -> indices whose leading term no later one divides
    queued = {}  # position -> {(i, j): exponent code of the lcm} for pairs still to reduce
    pairs = []  # heap of (sugar, i, j); entries gone from queued are skipped

    def sugar(g):
        return max(map(xdeg, g))

    def append(g):
        """Add g, made monic, to the basis and queue its surviving pairs."""
        k = len(G)
        lt, g = _monic(g, field)
        x = pack.exponents(lt)
        G.append(g)
        lts.append(lt)
        exps.append(x)
        lifts.append(sugar(g) - xdeg(lt))
        reducer.add(g, lt)
        pos = lt >> pack.tshift
        live = queued.setdefault(pos, {})
        # B_k: (i, j) has a chain through k unless k's lcm with i or j is lcm(i, j)
        for (i, j), lcm in list(live.items()):
            if divides(x, lcm) and lcm_of(exps[i], x) != lcm and lcm_of(exps[j], x) != lcm:
                del live[(i, j)]
        # M and F: keep (i, k) only if no other new pair's lcm divides its lcm;
        # of pairs with equal lcms the last is kept
        olds = active.setdefault(pos, [])
        new = [(i, lcm_of(exps[i], x)) for i in olds]
        kept = []
        for n, (i, lcm) in enumerate(new):
            if any(divides(other, lcm) for _, other in new[n + 1:]) or any(
                divides(other, lcm) for _, other in kept
            ):
                continue
            kept.append((i, lcm))
        for i, lcm in kept:
            live[(i, k)] = lcm
            # lcm * ones is the lcm's x-code, with spill above its s_d slot
            heappush(pairs, (xdeg(lcm * ones) + max(lifts[i], lifts[k]), i, k))
        olds[:] = [i for i in olds if not divides(x, exps[i])]
        olds.append(k)

    # input k waits as (sugar, -1, k), ahead of the S-pairs of its sugar
    for k, g in enumerate(gens):
        heappush(pairs, (sugar(g), -1, k))

    processed = 0
    while pairs:
        s, i, j = heappop(pairs)
        if i < 0:
            rem = reducer.reduce(dict(gens[j]))
        else:
            processed += 1
            if processed > PAIR_CAP:
                raise ResourceLimit(
                    f"Buchberger on the t-degree {gset.tdeg} slice: {processed - 1} pairs "
                    f"processed from {len(gset.gens)} input generators, basis reached "
                    f"{len(G)} elements (pair cap {PAIR_CAP})"
                )
            lcm = queued[lts[i] >> pack.tshift].pop((i, j), None)
            if lcm is None:
                continue
            pack.check(s)  # the largest x-degree of the S-pair's terms
            rem = reducer.reduce(_spair(pack, G[i], G[j], lts[i], lts[j], lcm))
        if rem:
            append(rem)

    # each element joined reduced by the earlier ones, and active drops every
    # index a later leading term divides: it holds the minimal basis already
    keep = sorted((i for olds in active.values() for i in olds), key=lts.__getitem__)
    # tail-reduce: an element's own leading term divides none of its tail terms
    tails = _Reducer(pack)
    for i in keep:
        tails.add(G[i], lts[i])
    one = field.one
    elements = []
    for i in keep:
        lt = lts[i]
        tail = tails.reduce({c: v for c, v in G[i].items() if c != lt})
        elements.append(Polynomial._raw(pack, {lt: one, **tail}))
    return GroebnerBasis(ring, gset.tdeg, elements)


def _spair(pack: Packing, f: dict, g: dict, lf: int, lg: int, lcm: int) -> dict:
    """The S-polynomial of the monic packed f and g, whose leading codes lf
    and lg share a position and whose exponent codes have the lcm given."""
    top, xmask, p = lcm * pack.ones & pack.xmask, pack.xmask, pack.ring.field.p
    sf, sg = top - (lf & xmask), top - (lg & xmask)
    minus = ((c + sg, -v % p if p else -v) for c, v in g.items())
    return _add_terms({c + sf: v for c, v in f.items()}, minus, p)


@dataclass
class ColengthReport:
    finite: bool
    value: Optional[int]


def colength(basis: GroebnerBasis) -> ColengthReport:
    """Count the standard monomials of the slice, at most STANDARD_MONOMIAL_CAP;
    none is listed.

    Finite iff at every position the leading-term staircase contains a pure
    power of every x-variable; infinite is a valid report, not an error.
    At a position the pure powers bound a box.  The count runs over the heads
    (e_1..e_(d-1)) of that box in lex order: the standard monomials over a
    head are x^head * x_d^j for j below its column height, the smallest last
    exponent among the leading monomials whose other exponents divide the
    head.  That is the smallest of those whose other exponents are the
    head's and of the heights one step below the head in each variable,
    which the count has passed already.  Both the pure powers and the column
    heights are minima over the monomials that divide, so a basis that is
    not reduced gives the same report.
    """
    ring = basis.ring
    d = ring.d
    positions = t_monomials(ring, basis.tdeg)
    lead = {}
    for lt in map(packing(ring).monomial, basis.lts):
        lead.setdefault(lt.texp, []).append(lt.xexp)

    per_pos = []
    for pos in positions:
        exps = lead.get(tuple(pos), [])
        bounds = []
        for i in range(d):
            pure = [e[i] for e in exps if all(e[j] == 0 for j in range(d) if j != i)]
            if not pure:
                return ColengthReport(False, None)
            bounds.append(min(pure))
        per_pos.append((exps, bounds))

    cap = STANDARD_MONOMIAL_CAP
    total = 0
    for pos, (exps, bounds) in zip(positions, per_pos):
        box = prod(bounds)
        if box > cap:
            at = Polynomial.from_monomial(ring, Monomial(tuple(pos), (0,) * d))
            raise ResourceLimit(
                f"the pure-power box at {at} holds {box} monomials (standard monomial cap {cap})"
            )
        dims, top = bounds[:-1], bounds[-1]
        strides = [prod(dims[i + 1:]) for i in range(d - 1)]  # a head's index, lex
        own = {}  # head index -> least last exponent over the head exactly
        for e in exps:
            if all(a < b for a, b in zip(e, dims)):
                k = sum(a * s for a, s in zip(e, strides))
                own[k] = min(own.get(k, top), e[-1])
        heights = []
        for k, head in enumerate(itertools.product(*map(range, dims))):
            height = own.get(k, top)
            for a, s in zip(head, strides):
                if a and heights[k - s] < height:
                    height = heights[k - s]
            heights.append(height)
            total += height
            if total > cap:
                raise ResourceLimit(f"the standard monomial count reached {total} (cap {cap})")
    return ColengthReport(True, total)
