"""Length tables over multi-index windows and multiplicity extraction.

Every multiplicity is the normalized leading coefficient of an integer-valued
length polynomial, read off exactly by iterated forward differences: for a
degree-D polynomial the D-th difference is constant and equals D! times the
leading coefficient.  Constancy over a trailing window of width STAB_WIDTH,
with one margin cell, is the stabilization certificate.  A univariate table
grows to n = N_MAX (further when the difference order needs it), a
multi-index box starts at a size set by the type vector, and either extends
MAX_EXTENSIONS times by EXTENSION_STEP when stabilization fails.  Every
extraction uses these settings.

A length cell is counted one of two ways.  When every module's reduced basis
and every quotient element is x-homogeneous, the cell's submodule N is graded
and l = sum over delta of (monomials of x-degree delta) - dim N_delta, with
N built degree by degree (``rees.DegreeSweep``) on packed monomials
(``poly.Packing``), where products and t-shifts add codes.  The sweep that
picks a product's minimal generators out of the candidate products builds
N for q = 0 already, so a q = 0 cell without quotient elements that forms a
product of two or more factors sums its codimensions on that one sweep;
other graded cells sweep the product's minimal generators afresh.
Otherwise the cell's submodule is presented by generators and its colength
is read off its reduced Groebner basis.  On either path every factor with a
positive exponent passes the primarity gate first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DegreeDeficiency,
    InfiniteColength,
    InternalError,
    InvalidInput,
    NoStabilization,
    ResourceLimit,
    SupportOffOrigin,
    WindowTooSmall,
)
from .groebner import STANDARD_MONOMIAL_CAP
from .poly import Packing, Polynomial, count_bidegree, t_shifts
from .rees import (
    PRODUCT_GENERATOR_CAP,
    DegreeSweep,
    GradedSubmodule,
    SubmoduleSpec,
    by_xdegree,
    minimal_sweep,
    product,
)


@dataclass(frozen=True)
class LengthQuery:
    """One length cell: l(M_{e.n+q} / E1^n1 ... Ek^nk M_q (+ quotient elems))."""

    modules: tuple
    exponents: tuple
    qdeg: int = 0
    quotient_elems: tuple = ()

    def ambient_tdeg(self) -> int:
        return sum(m.tdeg * n for m, n in zip(self.modules, self.exponents)) + self.qdeg

    def graded(self) -> bool:
        """Is the cell counted on the graded path: the reduced basis of every
        factor and every quotient element x-homogeneous."""
        return all(
            m.minimal_gens is not None for m, n in zip(self.modules, self.exponents) if n >= 1
        ) and all(e and e.bidegree()[0] != "mixed" for e in self.quotient_elems)


@dataclass
class LengthTable:
    """Exact lengths over an inclusive multi-index window."""

    axes: tuple
    window: tuple  # per-axis (lo, hi), inclusive
    values: dict  # multi-index tuple -> int

    def indices(self):
        return itertools.product(*(range(lo, hi + 1) for lo, hi in self.window))

    def to_json(self) -> dict:
        vals = [self.values[idx] for idx in self.indices()]
        return {
            "axes": list(self.axes),
            "window": [[lo, hi] for lo, hi in self.window],
            "values": vals,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LengthTable":
        axes = tuple(doc["axes"])
        window = tuple((int(lo), int(hi)) for lo, hi in doc["window"])
        table = cls(axes, window, {})
        indices = list(table.indices())
        flat = doc["values"]
        if len(flat) != len(indices):
            raise ValueError(f"{len(flat)} values for a window of {len(indices)} cells")
        table.values = {idx: int(v) for idx, v in zip(indices, flat)}
        return table


@dataclass
class MultiplicityResult:
    value: int
    kind: dict
    certificate: dict
    table: LengthTable


N_MAX = 12
STAB_WIDTH = 3
MAX_EXTENSIONS = 2
EXTENSION_STEP = 2


def _class_key(module: GradedSubmodule) -> tuple:
    """Equal exactly for equal submodules: reduced bases are monic and unique."""
    return module.ring, module.tdeg, frozenset(module.gens)


def _lowered(exponents) -> tuple:
    """A product key's exponents with the last lowered by one; every exponent
    of a key is positive, so this is the last positive one."""
    return exponents[:-1] + (exponents[-1] - 1,)


# The base of every product generator label: a digit counts the factors taken
# from one input generator, at most its module's exponent in the key.
LABEL_BASE = 1 << 16


class Evaluator:
    """Caches products of powers and length cells for one computation.

    Memos are keyed by submodule class, not by module object: each module
    stands for the first module seen with its ``_class_key``, the exponents
    of a repeated class are summed in order of first appearance, and product
    keys leave out zero exponents.  So equal submodules share products and
    cells, and a table over (E, E') is a table of E^(a+b).  E1^n1 ... Ek^nk is
    formed as the ``_lowered`` product times E_i, and kept by its reduced
    basis or by its minimal generators.  The memo keeps its modules alive.

    Each minimal generator of a graded product carries a label: the multiset
    of input minimal generators it is the product of, packed into one int.
    The j-th minimal generator of the module at offset o of the key (o the
    number of minimal generators of the modules before it) is the digit
    LABEL_BASE**(o + j), and a product's label is the sum of its factors'.
    The lowered key's modules are a prefix of the key's, so a label means the
    same in both.  The memo keeps the generators packed (``poly.Packing``),
    and unpacked too once ``minimal_product`` has asked for them.
    """

    def __init__(self):
        self._representatives = {}  # module object -> representative of its class
        self._classes = {}  # class key -> representative
        self._products = {}
        self._minimal_products = {}
        self._lengths = {}

    def _canonical(self, factors) -> tuple:
        """(representatives, summed exponents) of (module, exponent) pairs."""
        merged = {}
        for m, n in factors:
            rep = self._representatives.get(m)
            if rep is None:
                rep = self._representatives[m] = self._classes.setdefault(_class_key(m), m)
            merged[rep] = merged.get(rep, 0) + n
        return tuple(merged), tuple(merged.values())

    def _key(self, modules, exponents) -> tuple:
        """A product's memo key: its classes with positive exponents."""
        return self._canonical((m, n) for m, n in zip(modules, exponents) if n)

    def _unformed(self, memo, key) -> list:
        """The (key, lowered key) pairs down key's ``_lowered`` chain that
        memo lacks, top first; the lowered key is None for a single factor.
        Callers form them in reverse order in one loop, never recursing once
        per factor."""
        chain = []
        while key not in memo:
            modules, exponents = key
            lowered = _lowered(exponents)
            below = self._key(modules, lowered) if any(lowered) else None
            chain.append((key, below))
            if below is None:
                break
            key = below
        return chain

    def minimal_product(self, modules, exponents) -> tuple:
        """``_minimal_codes`` with the generators unpacked.  The memo entry
        keeps them, so each product is unpacked once."""
        gens, sweep = self._minimal_codes(modules, exponents)
        # the memo does not hold the unit, which gets an entry of its own
        entry = self._minimal_products.get(self._key(modules, exponents)) or [gens, None, None]
        if entry[2] is None:
            entry[2] = tuple(map(Packing(modules[0].ring).unpack, gens))
        return entry[2], sweep

    def _minimal_codes(self, modules, exponents) -> tuple:
        """(packed minimal generators, sweep) of E1^n1 ... Ek^nk: the graded
        Nakayama subset of the lowered product's minimal generators times
        those of its module, and the DegreeSweep that picked them when this
        call formed a product of two or more factors, else None (the memo
        keeps no sweep).  The empty product is the unit.

        The candidates f*g are taken in the order f in the lowered product,
        g in the module, and f*g is formed only for a label not seen before:
        a candidate with a seen label equals the earlier one, which the sweep
        would reduce to zero, so skipping it changes neither the kept
        generators nor the sweep's pieces."""
        key, pack = self._key(modules, exponents), Packing(modules[0].ring)
        if not key[1]:
            return [{0: pack.ring.field.one}], None
        memo = self._minimal_products
        chain = self._unformed(memo, key)
        for (_, exponents), below in chain:
            if below and exponents[-1] >= LABEL_BASE:
                raise ResourceLimit(
                    f"product n={list(exponents)} has an exponent of {LABEL_BASE} or more"
                )
        sweep = None
        for (modules, exponents), below in reversed(chain):
            gens = list(map(pack.pack, modules[-1].minimal_gens))
            offset = sum(len(m.minimal_gens) for m in modules[:-1])
            labels = steps = [LABEL_BASE ** (offset + j) for j in range(len(gens))]
            if below:
                prev, prev_labels, _ = memo[below]
                if len(prev) * len(gens) > PRODUCT_GENERATOR_CAP:
                    raise ResourceLimit(
                        f"product n={list(exponents)} would form "
                        f"{len(prev) * len(gens)} generators (cap {PRODUCT_GENERATOR_CAP})"
                    )
                tdeg = sum(m.tdeg * n for m, n in zip(modules, exponents))
                formed = {}  # label -> candidate, in the order first seen
                for f, label in zip(prev, prev_labels):
                    for g, step in zip(gens, steps):
                        if (lab := label + step) not in formed:
                            formed[lab] = pack.mul(f, g)
                gens, sweep = minimal_sweep(pack.ring, tdeg, list(formed.values()))
                # the kept generators are candidate objects: their ids find their labels
                label_of = {id(c): label for label, c in formed.items()}
                labels = [label_of[id(g)] for g in gens]
            memo[modules, exponents] = [gens, labels, None]  # unpacked on demand
        return memo[key][0], sweep

    def generators(self, modules, exponents) -> tuple:
        """Generators of E1^n1 ... Ek^nk as its length cell counts them: the
        minimal generators when the factors are graded, else the reduced
        basis; the unit for the empty product."""
        if LengthQuery(tuple(modules), tuple(exponents)).graded():
            return self.minimal_product(modules, exponents)[0]
        return self.product_of_powers(modules, exponents).gens

    def product_of_powers(self, modules, exponents) -> Optional[GradedSubmodule]:
        """E1^n1 ... Ek^nk by its reduced basis; None when every n_i is 0."""
        key = self._key(modules, exponents)
        if key[1]:
            for (modules, exponents), below in reversed(self._unformed(self._products, key)):
                result = modules[-1]
                if below:
                    result = product(self._products[below], result)
                self._products[modules, exponents] = result
        return self._products.get(key)

    def length(self, query: LengthQuery) -> int:
        modules, exponents = self._canonical(zip(query.modules, query.exponents))
        query = LengthQuery(modules, exponents, query.qdeg, query.quotient_elems)
        if query not in self._lengths:
            if query.qdeg < 0:
                raise InvalidInput("q must be non-negative")
            self._lengths[query] = _length_uncached(query, self)
        return self._lengths[query]


def build_slice_submodule(query: LengthQuery, evaluator: Evaluator) -> GradedSubmodule:
    """The cell's submodule E1^n1...Ek^nk * M_q + sum elem * S_(., amb - tdeg elem)
    of the ambient slice, presented by explicit generators."""
    ring, amb = query.modules[0].ring, query.ambient_tdeg()
    prod = evaluator.product_of_powers(query.modules, query.exponents)
    if prod is None:
        # empty product acts as the unit: the full degree-amb slice
        gens = t_shifts(ring, [Polynomial.constant(ring, 1)], amb)
    elif query.qdeg == 0 and not query.quotient_elems:
        return prod  # presented by its reduced basis already
    else:
        gens = t_shifts(ring, prod.gens, query.qdeg)
    gens += [s for elem, deg in _quotient_lifts(query) for s in t_shifts(ring, [elem], deg)]
    return GradedSubmodule(SubmoduleSpec(ring, amb, gens))


def _quotient_lifts(query: LengthQuery):
    """(elem, deg) for every quotient element of the cell: the t-monomials
    of degree deg lift it to the cell's t-degree."""
    amb = query.ambient_tdeg()
    for elem in query.quotient_elems:
        etd = elem.tdeg_if_homogeneous()
        if etd is None:
            raise InvalidInput("quotient elements must be t-homogeneous and nonzero")
        if etd > amb:
            raise InvalidInput("quotient element t-degree exceeds the ambient degree")
        yield elem, amb - etd


def _cell_name(query: LengthQuery) -> str:
    return (
        f"length cell n={list(query.exponents)}, q={query.qdeg}, "
        f"t-degree {query.ambient_tdeg()}"
    )


def _length_uncached(query: LengthQuery, evaluator: Evaluator) -> int:
    """The cell's length on its path, once every factor passes the primarity
    gate: the quotient is then finite and supported at the origin, so the
    count over the whole slice is the local length."""
    try:
        for m, n in zip(query.modules, query.exponents):
            if n >= 1:
                m.primarity()
        if query.graded():
            return _graded_length(query, evaluator)
        report = build_slice_submodule(query, evaluator).colength_report()
    except (InfiniteColength, SupportOffOrigin, ResourceLimit) as exc:
        raise type(exc)(f"{_cell_name(query)}: {exc}") from exc
    if not report.finite:
        raise InternalError(f"{_cell_name(query)} is infinite, yet its factors pass the gate")
    return report.value


def _graded_length(query: LengthQuery, evaluator: Evaluator) -> int:
    """The cell's length as the sum over x-degrees of the codimension of
    N_delta, where N = E1^n1 ... Ek^nk S_q + (quotient elements) is generated
    by the product's minimal generators times the degree-q t-monomials and by
    the shifted quotient elements.  Stops at the first degree where N is
    everything, which is exact because m * S_delta = S_(delta+1).

    A cell with q = 0 and no quotient elements whose product this call forms
    from two or more factors reads its pieces off the sweep that picked the
    product's minimal generators: that sweep builds the same N_delta from
    all the candidate products.  Every other cell sweeps N afresh, shifting
    its generators by adding t-monomial codes."""
    ring = query.modules[0].ring
    amb = query.ambient_tdeg()
    cell = _cell_name(query)
    pack = Packing(ring)
    factors = [(m, n) for m, n in zip(query.modules, query.exponents) if n >= 1]
    # m^(N_i) F^(e_i) <= E_i, so m^(sum n_i N_i) kills the cell's quotient
    killed = sum(n * m.primarity().nakayama_exponent for m, n in factors)
    products, sweep = evaluator._minimal_codes(query.modules, query.exponents)
    if sweep is not None and not query.qdeg and not query.quotient_elems:
        # the sweep that picked the products spans N already
        top = max(pack.xdeg(min(g)) for g in products)  # each is x-homogeneous
    else:
        shifts = pack.t_codes(query.qdeg)
        lifts = [(g, shifts) for g in products]
        lifts += [(pack.pack(elem), pack.t_codes(deg)) for elem, deg in _quotient_lifts(query)]
        gens = [{c + s: v for c, v in g.items()} for g, codes in lifts for s in codes]
        sweep = DegreeSweep(ring, amb, by_xdegree(gens, pack))
        top = sweep.top
    bound = max(top, killed)
    total = sum(count_bidegree(ring, amb, delta) for delta in range(sweep.start))
    for delta, count, rank in sweep.pieces():
        total += count - rank
        if total > STANDARD_MONOMIAL_CAP:
            raise ResourceLimit(
                f"more than {STANDARD_MONOMIAL_CAP} standard monomials by x-degree {delta}"
            )
        if rank == count:
            return total
        if delta >= bound:
            raise InternalError(
                f"{cell}: x-degree {delta} piece has rank {rank} of "
                f"{count}, but the primarity bound {bound} says it is full"
            )


def length(query: LengthQuery, evaluator: Optional[Evaluator] = None) -> int:
    """Exact length of one cell.  Every module must pass the primarity gate
    and at least one exponent must be >= 1."""
    if len(query.modules) != len(query.exponents):
        raise InvalidInput("exponent count does not match module count")
    if not any(n >= 1 for n in query.exponents):
        raise InvalidInput("at least one exponent must be >= 1")
    if any(n < 0 for n in query.exponents):
        raise InvalidInput("exponents must be non-negative")
    for m in query.modules:
        m.primarity()
    amb = query.ambient_tdeg()
    for elem in query.quotient_elems:
        etd = elem.tdeg_if_homogeneous()
        if etd is None or etd > amb:
            raise InvalidInput("quotient elements must be t-homogeneous of degree <= ambient")
    return (evaluator or Evaluator()).length(query)


def table(
    modules: Sequence[GradedSubmodule],
    window: Sequence[tuple],
    q_window: Optional[tuple] = None,
    evaluator: Optional[Evaluator] = None,
) -> LengthTable:
    """Evaluate lengths over the window; products are memoized.

    With q_window an extra trailing "q" axis is added; otherwise q = 0.
    """
    evaluator = evaluator or Evaluator()
    axes = tuple(f"n{i + 1}" for i in range(len(modules)))
    win = tuple((int(lo), int(hi)) for lo, hi in window)
    if q_window is not None:
        axes = axes + ("q",)
        win = win + ((int(q_window[0]), int(q_window[1])),)

    tbl = LengthTable(axes, win, {})
    k = len(modules)
    for idx in tbl.indices():
        q = idx[k] if q_window is not None else 0
        tbl.values[idx] = evaluator.length(LengthQuery(tuple(modules), idx[:k], q))
    return tbl


def finite_difference(tbl: LengthTable, orders: Sequence[int]) -> LengthTable:
    """Iterated forward differences, exact; may be negative pre-stabilization."""
    if len(orders) != len(tbl.axes):
        raise InvalidInput("one difference order per axis required")
    vals = dict(tbl.values)
    window = list(tbl.window)
    for ax, k in enumerate(orders):
        if k < 0:
            raise InvalidInput("difference orders must be non-negative")
        for _ in range(k):
            lo, hi = window[ax]
            if hi - lo < 1:
                raise WindowTooSmall(
                    f"axis {tbl.axes[ax]} window too small for difference order {orders[ax]}"
                )
            vals = {
                idx: vals[idx[:ax] + (idx[ax] + 1,) + idx[ax + 1 :]] - v
                for idx, v in vals.items()
                if idx[ax] < hi
            }
            window[ax] = (lo, hi - 1)
    return LengthTable(tbl.axes, tuple(window), vals)


def stabilized_difference(tbl: LengthTable, orders: Sequence[int]):
    """Certified constant of the iterated difference: the trailing box of
    width STAB_WIDTH must be constant and every differenced axis must keep
    one margin cell.

    Returns (value, certificate) or raises NoStabilization.
    """
    diff = finite_difference(tbl, orders)
    trailing = []
    for (lo, hi) in diff.window:
        if hi - lo + 1 < STAB_WIDTH + 1:
            raise NoStabilization(
                f"window of length {hi - lo + 1} cannot certify width {STAB_WIDTH}"
            )
        trailing.append((hi - STAB_WIDTH + 1, hi))
    vals = {
        idx: diff.values[idx]
        for idx in itertools.product(*(range(lo, hi + 1) for lo, hi in trailing))
    }
    distinct = set(vals.values())
    if len(distinct) != 1:
        raise NoStabilization("trailing differences are not constant")
    value = distinct.pop()
    certificate = {
        "orders": list(orders),
        "width": STAB_WIDTH,
        "window": [[lo, hi] for lo, hi in trailing],
        "constant": value,
    }
    return value, certificate


def _univariate(
    module: GradedSubmodule,
    diff_order: int,
    kind: dict,
    evaluator: Optional[Evaluator],
) -> MultiplicityResult:
    module.primarity()
    evaluator = evaluator or Evaluator()
    first = diff_order + STAB_WIDTH + 1
    last = max(N_MAX, first) + MAX_EXTENSIONS * EXTENSION_STEP
    vals = {}
    for n in range(1, last + 1):
        vals[(n,)] = evaluator.length(LengthQuery((module,), (n,)))
        if n < first:
            continue
        tbl = LengthTable(("n1",), ((1, n),), dict(vals))
        try:
            value, cert = stabilized_difference(tbl, (diff_order,))
        except NoStabilization:
            continue
        if value == 0 and any(vals.values()):
            raise DegreeDeficiency(
                f"order-{diff_order} differences stabilize at 0 on a nonzero table"
            )
        return MultiplicityResult(value, kind, cert, tbl)
    raise NoStabilization(f"no stabilization certificate within n <= {last}")


def ebr(
    module: GradedSubmodule, evaluator: Optional[Evaluator] = None
) -> MultiplicityResult:
    """Buchsbaum-Rim multiplicity of a degree-1 submodule: the certified
    order-(d+p-1) difference of n -> l(F^n / E^n)."""
    if module.tdeg != 1:
        raise InvalidInput("ebr requires a submodule of the degree-1 slice")
    D = module.ring.d + module.ring.p - 1
    return _univariate(module, D, {"type": "ebr"}, evaluator)


def tilde_ebr(
    module: GradedSubmodule, evaluator: Optional[Evaluator] = None
) -> MultiplicityResult:
    """Higher-degree variant for E inside the degree-e slice; at e = 1 it
    agrees with ebr."""
    D = module.ring.d + module.ring.p - 1
    return _univariate(module, D, {"type": "tilde_ebr"}, evaluator)


def _multigraded(
    modules,
    dvec,
    j: Optional[int],
    kind: dict,
    evaluator: Optional[Evaluator],
) -> MultiplicityResult:
    for m in modules:
        m.primarity()
    evaluator = evaluator or Evaluator()
    base = max(4, 12 // len(modules))
    his = [max(d + STAB_WIDTH + 1, base) for d in dvec]
    q_hi = None if j is None else max(4, j + STAB_WIDTH)
    orders = list(dvec) + ([] if j is None else [j])
    for extension in range(MAX_EXTENSIONS + 1):
        step = extension * EXTENSION_STEP
        window = [(1, hi + step) for hi in his]
        q_window = None if q_hi is None else (0, q_hi + step)
        tbl = table(modules, window, q_window=q_window, evaluator=evaluator)
        try:
            value, cert = stabilized_difference(tbl, orders)
            return MultiplicityResult(value, kind, cert, tbl)
        except NoStabilization:
            if extension == MAX_EXTENSIONS:
                raise


def check_type_vector(modules, dvec, j: Optional[int] = None) -> tuple:
    """(modules, dvec) as tuples, dvec as ints, once dvec fits the modules:
    one entry per module, every entry non-negative, and the entries summing
    to d+p-1, together with j for an associated mixed multiplicity."""
    modules = tuple(modules)
    dvec = tuple(int(d) for d in dvec)
    if len(modules) != len(dvec):
        raise InvalidInput("type vector length must match the module count")
    if not modules:
        raise InvalidInput("need at least one module")
    ring = modules[0].ring
    D = ring.d + ring.p - 1
    if j is None:
        if any(d < 0 for d in dvec):
            raise InvalidInput("type vector entries must be non-negative")
        if sum(dvec) != D:
            raise InvalidInput(f"type vector must sum to d+p-1 = {D}")
    else:
        if any(d < 0 for d in dvec) or j < 0:
            raise InvalidInput("type vector entries and j must be non-negative")
        if sum(dvec) + j != D:
            raise InvalidInput(f"j + |dvec| must equal d+p-1 = {D}")
    return modules, dvec


def mixed(
    modules: Sequence[GradedSubmodule],
    dvec: Sequence[int],
    evaluator: Optional[Evaluator] = None,
) -> MultiplicityResult:
    """Mixed multiplicity of type dvec: the certified mixed difference
    Delta_1^d1 ... Delta_k^dk of the multigraded length table."""
    modules, dvec = check_type_vector(modules, dvec)
    kind = {"type": "mixed", "dvec": list(dvec)}
    if len(modules) == 1:
        return _univariate(modules[0], dvec[0], kind, evaluator)
    return _multigraded(modules, dvec, None, kind, evaluator)


def assoc_mixed(
    modules: Sequence[GradedSubmodule],
    dvec: Sequence[int],
    j: int,
    evaluator: Optional[Evaluator] = None,
) -> MultiplicityResult:
    """Associated mixed multiplicity: adds the auxiliary ambient degree q as
    a table axis and differences it j times."""
    modules, dvec = check_type_vector(modules, dvec, j)
    kind = {"type": "assoc", "j": j, "dvec": list(dvec)}
    return _multigraded(modules, dvec, j, kind, evaluator)
