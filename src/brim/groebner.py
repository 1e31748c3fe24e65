"""Buchberger-style Groebner bases for R-submodules of a t-degree slice of S.

A t-homogeneous polynomial of degree e is a vector over R = k[x1..xd] whose
positions are the degree-e t-monomials; leading-term divisibility therefore
requires equal t-exponents and componentwise <= on x-exponents.  Leading
terms are taken in the one term order of ``poly``, ``DEGREVLEX_X``:
positions first, then degrevlex on x.  S-pairs are only formed between
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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import InternalError, InvalidInput, ResourceLimit
from .poly import DEGREVLEX_X, Monomial, Polynomial, t_monomials
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
    """Division engine: monic divisors indexed by leading position; sums are
    reduced mod the field's characteristic p when it is nonzero."""

    __slots__ = ("p", "by_pos")

    def __init__(self, field):
        self.p = field.p
        self.by_pos = {}

    def add(self, g: Polynomial, lt: Monomial):
        """Add the monic divisor g, whose leading monomial is lt."""
        tail = tuple((m, c) for m, c in g.items() if m != lt)
        self.by_pos.setdefault(lt.texp, []).append((lt.xexp, tail))

    def reduce(self, work: dict) -> dict:
        """Full normal form of the term dict; consumes and returns dicts."""
        order_key = DEGREVLEX_X.key
        p = self.p
        by_pos = self.by_pos
        heap = [(tuple(-k for k in order_key(m)), m) for m in work]
        heapq.heapify(heap)
        rem = {}
        while heap:
            top, m = heapq.heappop(heap)
            c = work.get(m)
            if c is None:
                continue
            divisor = None
            for lx, tail in by_pos.get(m.texp, ()):
                if all(a <= b for a, b in zip(lx, m.xexp)):
                    divisor = (lx, tail)
                    break
            if divisor is None:
                rem[m] = c
                del work[m]
                continue
            lx, tail = divisor
            shift = Monomial(
                (0,) * len(m.texp), tuple(b - a for a, b in zip(lx, m.xexp))
            )
            del work[m]  # the divisor is monic: leading terms cancel exactly
            for gm, gc in tail:
                mm = gm.mul(shift)
                acc = work.get(mm)
                if acc is None:
                    nc = -c * gc % p if p else -c * gc
                    if nc:
                        work[mm] = nc
                        key = tuple(-k for k in order_key(mm))
                        if key <= top:
                            raise InternalError(
                                f"division by a divisor whose leading monomial is not "
                                f"{Monomial(m.texp, lx)}: tail term {mm} does not sort "
                                f"below {m}"
                            )
                        heapq.heappush(heap, (key, mm))
                else:
                    acc -= c * gc
                    if p:
                        acc %= p
                    if acc:
                        work[mm] = acc
                    else:
                        del work[mm]
        return rem


def _monic(g: Polynomial):
    """g scaled to leading coefficient one, and its leading monomial."""
    lt, lc = g.leading_term()
    fld = g.ring.field
    return (g if lc == fld.one else g.scale(fld.invert(lc))), lt


class GroebnerBasis:
    """Reduced basis: inter-reduced, monic, leading terms pairwise indivisible.

    ``lts`` holds each element's leading monomial, in element order.  A
    caller that already holds them passes ``lts`` with monic elements; each
    given lt must be a term of its element with coefficient one.
    """

    __slots__ = ("ring", "tdeg", "elements", "lts", "_reducer")

    def __init__(self, ring, tdeg, elements, lts=None):
        self.ring = ring
        self.tdeg = tdeg
        if lts is None:
            pairs = [_monic(g) for g in elements]
            elements = [g for g, _ in pairs]
            lts = [lt for _, lt in pairs]
        else:
            if len(lts) != len(elements):
                raise InternalError(f"{len(lts)} leading monomials for {len(elements)} elements")
            one = ring.field.one
            for g, lt in zip(elements, lts):
                if g._terms.get(lt) != one:
                    raise InternalError(
                        f"leading monomial {lt} given for {g} is not a term with coefficient one"
                    )
        self.elements = tuple(elements)
        self.lts = tuple(lts)
        self._reducer = _Reducer(ring.field)
        for g, lt in zip(self.elements, self.lts):
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
    rem = basis._reducer.reduce(dict(v.items()))
    return Polynomial._raw(v.ring, rem)


def contains(basis: GroebnerBasis, v: Polynomial) -> bool:
    return normal_form(v, basis).is_zero()


def _spair_of(f: Polynomial, g: Polynomial, lf: Monomial, lg: Monomial) -> Polynomial:
    # lf, lg: the leading monomials of the monic f and g; their positions agree
    lcm = tuple(max(a, b) for a, b in zip(lf.xexp, lg.xexp))
    mf = Monomial((0,) * len(lf.texp), tuple(l - a for l, a in zip(lcm, lf.xexp)))
    mg = Monomial((0,) * len(lg.texp), tuple(l - a for l, a in zip(lcm, lg.xexp)))
    return f.mul_term(mf, 1) + g.mul_term(mg, -1)


def _sugar(f: Polynomial) -> int:
    return max(m.xdeg for m, _ in f.items())


def _xdivides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _xlcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def _minimalize_monomials(ring, tdeg, monos):
    """Reduced basis for monomial generators: drop dominated monomials."""
    kept = {}  # position -> kept x-exponents
    for m in sorted(set(monos)):  # componentwise divisors sort first
        here = kept.setdefault(m.texp, [])
        if not any(_xdivides(k, m.xexp) for k in here):
            here.append(m.xexp)
    lts = sorted(
        (Monomial(pos, x) for pos, xs in kept.items() for x in xs), key=DEGREVLEX_X.key
    )
    return GroebnerBasis(ring, tdeg, [Polynomial.from_monomial(ring, m, 1) for m in lts], lts)


def buchberger(gset: GeneratorSet) -> GroebnerBasis:
    """Reduced Groebner basis; deterministic for a fixed input generator order.

    Input generators and S-pairs share one queue, ordered by sugar degree;
    at equal sugar the inputs come first, in input order, then the pairs by
    index.  An input is reduced by the current basis when it is popped and
    joins it only if the remainder is nonzero.  Pairs with distinct leading
    positions are never formed, and ``PAIR_CAP`` counts S-pairs only.  The
    elements kept are the Gebauer-Moeller active set, tail-reduced.
    """
    ring = gset.ring
    if all(g.num_terms() == 1 for g in gset.gens):
        return _minimalize_monomials(ring, gset.tdeg, [g.leading_term()[0] for g in gset.gens])

    reducer = _Reducer(ring.field)
    G = []
    lts = []
    sugars = []
    active = {}  # position -> indices whose leading term no later one divides
    queued = {}  # position -> {(i, j): x-lcm} for pairs still to reduce
    pairs = []  # heap of (sugar, i, j); entries gone from queued are skipped

    def append(g):
        """Add g, made monic, to the basis and queue its surviving pairs."""
        k = len(G)
        g, lt = _monic(g)
        G.append(g)
        lts.append(lt)
        sugars.append(_sugar(g))
        reducer.add(g, lt)
        pos, x = lt.texp, lt.xexp
        live = queued.setdefault(pos, {})
        # B_k: (i, j) has a chain through k unless k's lcm with i or j is lcm(i, j)
        for (i, j), lcm in list(live.items()):
            if (
                _xdivides(x, lcm)
                and _xlcm(lts[i].xexp, x) != lcm
                and _xlcm(lts[j].xexp, x) != lcm
            ):
                del live[(i, j)]
        # M and F: keep (i, k) only if no other new pair's lcm divides its lcm;
        # of pairs with equal lcms the last is kept
        olds = active.setdefault(pos, [])
        new = [(i, _xlcm(lts[i].xexp, x)) for i in olds]
        kept = []
        for n, (i, lcm) in enumerate(new):
            if any(_xdivides(other, lcm) for _, other in new[n + 1:]) or any(
                _xdivides(other, lcm) for _, other in kept
            ):
                continue
            kept.append((i, lcm))
        for i, lcm in kept:
            lcm_deg = sum(lcm)
            s = max(sugars[i] + lcm_deg - lts[i].xdeg, sugars[k] + lcm_deg - lt.xdeg)
            live[(i, k)] = lcm
            heapq.heappush(pairs, (s, i, k))
        olds[:] = [i for i in olds if not _xdivides(x, lts[i].xexp)]
        olds.append(k)

    # input k waits as (sugar, -1, k), ahead of the S-pairs of its sugar
    for k, g in enumerate(gset.gens):
        heapq.heappush(pairs, (_sugar(g), -1, k))

    processed = 0
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if i < 0:
            rem = reducer.reduce(dict(gset.gens[j].items()))
        else:
            processed += 1
            if processed > PAIR_CAP:
                raise ResourceLimit(
                    f"Buchberger on the t-degree {gset.tdeg} slice: {processed - 1} pairs "
                    f"processed from {len(gset.gens)} input generators, basis reached "
                    f"{len(G)} elements (pair cap {PAIR_CAP})"
                )
            if queued[lts[i].texp].pop((i, j), None) is None:
                continue
            rem = reducer.reduce(dict(_spair_of(G[i], G[j], lts[i], lts[j]).items()))
        if rem:
            append(Polynomial._raw(ring, rem))

    # each element joined reduced by the earlier ones, and active drops every
    # index a later leading term divides: it holds the minimal basis already
    keep = [i for olds in active.values() for i in olds]
    # tail-reduce: an element's own leading term divides none of its tail terms
    tails = _Reducer(ring.field)
    for i in keep:
        tails.add(G[i], lts[i])
    one = ring.field.one
    keep.sort(key=lambda i: DEGREVLEX_X.key(lts[i]))
    reduced = []
    for i in keep:
        lt = lts[i]
        tail = tails.reduce({m: c for m, c in G[i].items() if m != lt})
        reduced.append(Polynomial._raw(ring, {lt: one, **tail}))
    return GroebnerBasis(ring, gset.tdeg, reduced, [lts[i] for i in keep])


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
    (e_1..e_(d-1)) of that box: the standard monomials over a head are
    x^head * x_d^j for j below the smallest last exponent among the leading
    monomials whose other exponents divide the head.  Both the pure powers
    and the column heights are minima over the monomials that divide, so a
    basis that is not reduced gives the same report.
    """
    ring = basis.ring
    d = ring.d
    positions = t_monomials(ring, basis.tdeg)
    lead = {}
    for lt in basis.lts:
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
    for exps, bounds in per_pos:
        box = 1
        for b in bounds:
            box *= b
        if box > cap:
            raise ResourceLimit("standard monomial enumeration exceeds the cap")
        for head in itertools.product(*(range(b) for b in bounds[:-1])):
            height = bounds[-1]
            for e in exps:
                if e[-1] < height and all(a <= b for a, b in zip(e, head)):
                    height = e[-1]
            total += height
            if total > cap:
                raise ResourceLimit("standard monomial enumeration exceeds the cap")
    return ColengthReport(True, total)
