"""Graded submodules of t-degree slices of S and their products.

A submodule E of the degree-e slice generates an ideal of S through the
degree-one embedding w(h) = h1*t1 + ... + hp*tp; its graded powers E^n live
in the degree n*e slice.  ``product`` multiplies the reduced bases of two
submodules pairwise (the cached reduced Groebner basis is the canonical
generator set); every product of powers is formed by ``hilbert.Evaluator``.

Lengths computed downstream are global standard-monomial counts; they agree
with lengths over the local ring at the origin exactly when the quotient is
supported there, which is what mprimary_check certifies.

When the reduced basis is x-homogeneous the submodule is graded by x-degree,
and ``DegreeSweep`` builds its degree pieces on the packed terms of the
generators (``poly.Packing``), by linear algebra or, when every generator
is a single term, on the codes alone, as sets of codes; graded Nakayama
then picks the minimal generators out of the reduced basis
(``minimal_sweep``, which hands back the sweep for its pieces and takes
polynomials or bare codes, so ``hilbert.Evaluator`` can sweep the codes of
monomial products without forming a polynomial for each).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count

from .errors import InfiniteColength, InvalidInput, ResourceLimit, SupportOffOrigin
from .groebner import GeneratorSet, GroebnerBasis, buchberger, colength, contains, normal_form
from .linalg import Echelon
from .poly import (
    Monomial,
    Packing,
    Polynomial,
    _format_coeff_and_vars,
    count_bidegree,
    packing,
    parse_polynomial,
    t_monomials,
)
from .ring import RingSpec  # noqa: F401  (re-exported: ambient data lives here)

PRODUCT_GENERATOR_CAP = 50_000


# the presentation a GradedSubmodule wraps; callers import it by this name
SubmoduleSpec = GeneratorSet


@dataclass(frozen=True)
class PrimarityCertificate:
    """colength = dim_k of the quotient; m^nakayama_exponent * F^e <= E."""

    colength: int
    nakayama_exponent: int


class GradedSubmodule:
    """A submodule of a slice with a lazily computed, cached reduced basis."""

    def __init__(self, spec: SubmoduleSpec):
        if spec.tdeg < 1:
            raise InvalidInput("slice degree must be >= 1")
        self.spec = spec
        self._colength = None
        self._primarity = None

    @classmethod
    def from_gens(cls, ring: RingSpec, tdeg: int, gens) -> "GradedSubmodule":
        polys = [parse_polynomial(ring, g) if isinstance(g, str) else g for g in gens]
        return cls(SubmoduleSpec(ring, tdeg, polys))

    @classmethod
    def from_vectors(cls, ring: RingSpec, tdeg: int, vectors) -> "GradedSubmodule":
        """Generators given as coefficient vectors over the degree-tdeg
        t-monomial basis (lex descending, t1-major)."""
        positions = t_monomials(ring, tdeg)
        polys = []
        for vec in vectors:
            if len(vec) != len(positions):
                raise InvalidInput(
                    f"vector length {len(vec)} != {len(positions)} positions in degree {tdeg}"
                )
            acc = Polynomial.zero(ring)
            for h, pos in zip(vec, positions):
                h = parse_polynomial(ring, h) if isinstance(h, str) else h
                if not h.is_zero() and h.tdeg_if_homogeneous() != 0:
                    raise InvalidInput("vector entries must be x-polynomials")
                acc = acc + h.mul_term(Monomial(tuple(pos), (0,) * ring.d), 1)
            polys.append(acc)
        return cls(SubmoduleSpec(ring, tdeg, polys))

    @property
    def ring(self) -> RingSpec:
        return self.spec.ring

    @property
    def tdeg(self) -> int:
        return self.spec.tdeg

    @cached_property
    def basis(self) -> GroebnerBasis:
        return buchberger(self.spec)

    @property
    def gens(self) -> tuple:
        """Canonical (inter-reduced) generators: the reduced basis elements."""
        return self.basis.elements

    @cached_property
    def minimal_gens(self):
        """The reduced basis elements that graded Nakayama keeps, a minimal
        generating set; None when the basis is not x-homogeneous."""
        return minimal_sweep(self.ring, self.tdeg, self.basis.elements)[0]

    def colength_report(self):
        if self._colength is None:
            self._colength = colength(self.basis)
        return self._colength

    def contains(self, v: Polynomial) -> bool:
        return contains(self.basis, v)

    def primarity(self) -> PrimarityCertificate:
        """Cached mprimary_check; raises on every call if the gate failed."""
        if self._primarity is None:
            try:
                self._primarity = mprimary_check(self)
            except (InfiniteColength, SupportOffOrigin) as exc:
                self._primarity = exc
        if isinstance(self._primarity, Exception):
            raise self._primarity
        return self._primarity

    def power(self, n: int) -> "GradedSubmodule":
        """E^n by iterated ``product``, unmemoized; computations form their
        products in ``hilbert.Evaluator``."""
        if n < 1:
            raise InvalidInput("power exponent must be >= 1")
        return self if n == 1 else product(self, self.power(n - 1))

    def __repr__(self):
        return f"<submodule tdeg={self.tdeg} gens={len(self.spec.gens)}>"


def by_xdegree(gens, pack: Packing):
    """{x-degree: generators of that degree}, in the given order; None
    unless every generator is nonzero and x-homogeneous.  gens are
    polynomials, or the codes (ints) of single terms.  When every generator
    is a single term, the groups hold their codes: ``DegreeSweep``'s
    monomial mode."""
    groups, shift, mask = {}, pack.xshift, pack.mask
    codes = gens if gens and type(gens[0]) is int else None
    if codes is None and all(len(g._terms) == 1 for g in gens):
        codes = [min(g._terms) for g in gens]
    if codes is not None:
        for code in codes:
            groups.setdefault(code >> shift & mask, []).append(code)
        return groups
    for g in gens:
        degs = {c >> shift & mask for c in g._terms}
        if len(degs) != 1:
            return None
        groups.setdefault(degs.pop(), []).append(g)
    return groups


class DegreeSweep:
    """The x-degree pieces N_delta of the submodule N of the degree-tdeg
    slice generated by x-homogeneous generators, built upward one degree at
    a time.

    ``groups`` maps x-degrees to generators (see ``by_xdegree``);
    ``start`` and ``top`` are its lowest and highest degree.  The sweep
    consumes it, letting go of each degree's generators once they are swept.
    ``advance()`` moves from delta-1 to delta: N_delta = x_1 N_(delta-1) +
    ... + x_d N_(delta-1) + span(generators of degree delta), with
    N_(start-1) = 0.  ``count`` is the number of bidegree (tdeg, delta)
    monomials and ``rank`` is dim N_delta.
    ``pieces()`` yields both degree by degree from ``start``, the degrees
    already swept first.

    ``monomial`` is whether the groups hold codes, as ``by_xdegree`` gives
    them when every generator is a single term.  Then N_delta is spanned by
    monomials, and the span of monomials is the set of their codes, whatever
    their nonzero coefficients: the sweep keeps N_delta as that set, shifts
    it by adding the steps, and keeps a code, and ``advance()`` returns it,
    exactly when it is not in the set yet.  This is what elimination does to
    a one-term row, so the kept generators and every (count, rank) are the
    same.  Otherwise the groups hold polynomials and N_delta is a
    ``linalg.Echelon`` whose columns are the negated codes of the monomials
    (``poly.Packing``), so a row's pivot is its leading monomial and x_i
    times a row subtracts x_i's step from each column.
    """

    def __init__(self, ring: RingSpec, tdeg: int, groups: dict):
        self.ring, self.tdeg = ring, tdeg
        self._groups = groups
        self.start, self.top = min(groups), max(groups)
        self.delta = self.start - 1
        self._packing = packing(ring)
        self.monomial = type(next(iter(groups.values()))[0]) is int
        self._span = set() if self.monomial else {}  # its codes, or echelon rows by pivot
        self._swept = []  # (count, rank) of every degree swept, from start

    @property
    def rank(self) -> int:
        return len(self._span)

    def advance(self) -> list:
        """Step to the next degree; returns its generators that enlarged the
        span.  Elimination skips the remaining rows once N_delta is the
        whole degree piece."""
        self.delta += 1
        self._packing.check(self.delta)
        full = self.count = count_bidegree(self.ring, self.tdeg, self.delta)
        fresh = self._groups.pop(self.delta, ())
        kept = []
        if self.monomial:
            span = {c + step for c in self._span for step in self._packing.steps}
            for code in fresh:
                if code not in span:
                    span.add(code)
                    kept.append(code)
        else:
            echelon = Echelon(self.ring.field)
            shifted = (
                (None, {c - step: v for c, v in row.items()})
                for row in self._span.values()
                for step in self._packing.steps
            )
            fresh = ((g, {-c: v for c, v in g._terms.items()}) for g in fresh)
            for g, vec in chain(shifted, fresh):
                if len(echelon.rows) == full:
                    break
                if g is not None:
                    echelon.integral(vec)
                echelon.reduce(vec)
                if vec:
                    echelon.insert(vec)
                    if g is not None:
                        kept.append(g)
            span = echelon.rows
        self._span = span
        self._swept.append((full, len(span)))
        return kept

    def pieces(self):
        """(delta, count, rank) of every degree from start on: the degrees
        already swept, then one ``advance()`` for each further degree."""
        for i in count():
            if i == len(self._swept):
                self.advance()
            yield (self.start + i, *self._swept[i])


def minimal_sweep(ring: RingSpec, tdeg: int, gens):
    """(minimal generators, the DegreeSweep that picked them) of gens:
    those outside m times the submodule they generate, taken degree by
    degree in the given order, a minimal generating set by graded Nakayama.
    The sweep stops at the top degree of gens or at the first full piece,
    above which every generator is redundant.  (None, None) unless every
    generator is x-homogeneous; ((), None) for no generators.

    gens is a sequence of polynomials, or of the codes of single terms, and
    the minimal generators come back as gens gives them.  A monomial sweep
    keeps codes; for polynomials each kept code maps back to the first
    generator with that code, the one elimination would keep."""
    groups = by_xdegree(gens, packing(ring))
    if not groups:
        return (None if groups is None else ()), None
    sweep = DegreeSweep(ring, tdeg, groups)
    kept = sweep.advance()
    while sweep.delta < sweep.top and sweep.rank < sweep.count:
        kept.extend(sweep.advance())
    if sweep.monomial and type(gens[0]) is not int:
        first = {c: g for g in reversed(gens) for c in g._terms}
        kept = [first[c] for c in kept]
    return tuple(kept), sweep


def product(a: GradedSubmodule, b: GradedSubmodule) -> GradedSubmodule:
    """Submodule generated by pairwise products of canonical generators."""
    if a.ring != b.ring:
        raise InvalidInput("product of submodules over different rings")
    ga, gb = a.gens, b.gens
    if len(ga) * len(gb) > PRODUCT_GENERATOR_CAP:
        raise ResourceLimit(
            f"product would create {len(ga) * len(gb)} generators (cap {PRODUCT_GENERATOR_CAP})"
        )
    gens = [f * g for f in ga for g in gb]
    return GradedSubmodule(SubmoduleSpec(a.ring, a.tdeg + b.tdeg, gens))


def mprimary_check(e: GradedSubmodule) -> PrimarityCertificate:
    """Certify that the slice quotient has finite length and is supported at
    the origin: colength finite and x_i^N * mu in E for every variable and
    every position, N = colength.  Since x_i E <= E, the normal form of
    x_i^n * mu is reached by the walk v <- NF(x_i * v) from mu, and the
    first n at which it vanishes is that pair's least exponent; so no
    monomial of degree N is formed, and the certified exponent is the
    largest of the least ones."""
    report = e.colength_report()
    if not report.finite:
        raise InfiniteColength("quotient by the submodule has infinite length")
    ell = report.value
    ring, basis = e.ring, e.basis
    zero_t, zero_x = (0,) * ring.p, (0,) * ring.d
    n_pure = 0
    for i in range(ring.d):
        x_i = Polynomial.from_monomial(ring, Monomial(zero_t, zero_x[:i] + (1,) + zero_x[i + 1 :]))
        for pos in t_monomials(ring, e.tdeg):
            v, n = normal_form(Polynomial.from_monomial(ring, Monomial(pos, zero_x)), basis), 0
            while v and n < ell:
                v, n = normal_form(x_i * v, basis), n + 1
            if v:
                xexp = zero_x[:i] + (ell,) + zero_x[i + 1 :]
                # text only: x_i^ell may not fit the ring's packing
                witness = _format_coeff_and_vars(ring, Monomial(pos, xexp), 1)
                raise SupportOffOrigin(
                    f"colength {ell} is finite but {witness} is outside the submodule"
                )
            n_pure = max(n_pure, n)
    # m^ell kills the quotient (strict chain); pure powers give d*(n-1)+1
    nak = min(ell, ring.d * (n_pure - 1) + 1) if n_pure > 0 else 0
    return PrimarityCertificate(colength=ell, nakayama_exponent=nak)
