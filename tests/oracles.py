"""Independent oracles used to freeze expected values.

The staircase counts here deliberately use other algorithms than the
production code, which counts one column of the pure-power box at a time:
``monomial_staircase_count`` uses inclusion-exclusion over generator subsets,
and ``box_scan_colength`` tests every cell of the box against every minimal
leading monomial.  The three cross-check each other on monomial inputs.
``spair`` forms S-polynomials for the Groebner checks by plain polynomial
products, apart from the production division code.  ``reference_divide``
and ``reference_buchberger`` are textbook division and Buchberger on
``Monomial`` tuples: every same-position pair, no pair criterion, then
minimalization and inter-reduction.  They are the reference for
``brim.groebner``, which computes on packed monomial codes.

``dense_differential`` is the Koszul differential as a dense matrix, built
with ``monomial_product`` on the decoded ``Monomial`` tuples of the slice
bases: the reference for the sparse rows that ``brim.koszul`` builds by
adding monomial codes.

``echelon_sweep`` runs the rows of a graded degree sweep through
``linalg.Echelon`` with no shortcut: the reference for the monomial mode of
``brim.rees.DegreeSweep``, which keeps its pieces as sets of codes.

``embed_w``, ``submodule_eq``, ``order_compare``, ``monic``, ``divides`` and
``monomial_product`` are helpers only the tests need, written on the
package's public API and on exponent tuples.
"""

import itertools
from math import comb

from brim import InvalidInput, ResourceLimit, buchberger, contains, parse_polynomial
from brim.linalg import Echelon
from brim.poly import DEGREVLEX_X, Monomial, Polynomial, packing, t_monomials


def embed_w(ring, h):
    """Degree-one embedding of a length-p vector of x-polynomials: sum h_i*t_i."""
    if len(h) != ring.p:
        raise InvalidInput(f"vector length {len(h)} != rank p = {ring.p}")
    acc = Polynomial.zero(ring)
    for i, entry in enumerate(h):
        hp = parse_polynomial(ring, entry) if isinstance(entry, str) else entry
        if not hp.is_zero() and hp.tdeg_if_homogeneous() != 0:
            raise InvalidInput("vector entries must be x-polynomials")
        texp = tuple(1 if j == i else 0 for j in range(ring.p))
        acc = acc + hp.mul_term(Monomial(texp, (0,) * ring.d), 1)
    return acc


def submodule_eq(a, b):
    """Span equality of two generator sets by mutual membership."""
    if a.ring != b.ring:
        raise InvalidInput("submodules over different rings")
    if a.tdeg != b.tdeg:
        raise InvalidInput("submodules live in different t-degree slices")
    basis_a, basis_b = buchberger(a), buchberger(b)
    return all(contains(basis_b, g) for g in a.gens) and all(
        contains(basis_a, g) for g in b.gens
    )


def order_compare(u, v):
    """1, 0 or -1 as u >, =, < v under the term order; 0 only for identical
    exponents."""
    if len(u.texp) != len(v.texp) or len(u.xexp) != len(v.xexp):
        raise InvalidInput("monomials from different rings")
    ku, kv = DEGREVLEX_X.key(u), DEGREVLEX_X.key(v)
    return (ku > kv) - (ku < kv)


def monic(f):
    """f scaled to leading coefficient one; the zero polynomial as it is."""
    if f.is_zero():
        return f
    _, lc = f.leading_term()
    return f.scale(f.ring.field.invert(lc))


def divides(u, v):
    """Does the monomial u divide v, in both exponent blocks?"""
    return all(a <= b for a, b in zip(u.texp, v.texp)) and all(
        a <= b for a, b in zip(u.xexp, v.xexp)
    )


def monomial_product(u, v):
    """The product of two monomials: exponents added block by block."""
    return Monomial(
        tuple(a + b for a, b in zip(u.texp, v.texp)),
        tuple(a + b for a, b in zip(u.xexp, v.xexp)),
    )


def monomial_staircase_count(d, minimal_exps):
    """Standard monomials of a monomial ideal in d variables given minimal
    generators; None when infinite (some variable has no pure power)."""
    exps = []
    for e in sorted(set(map(tuple, minimal_exps))):
        if not any(all(a <= b for a, b in zip(f, e)) for f in exps):
            exps.append(e)
    bounds = []
    for i in range(d):
        pure = [e[i] for e in exps if all(e[j] == 0 for j in range(d) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    total = 0
    for k in range(len(exps) + 1):
        for subset in itertools.combinations(exps, k):
            lcm = [0] * d
            for e in subset:
                lcm = [max(a, b) for a, b in zip(lcm, e)]
            size = 1
            for b, l in zip(bounds, lcm):
                size *= max(0, b - l)
            total += (-1) ** k * size
    return total


def box_scan_colength(basis, cap):
    """(finite, value) of a Groebner basis's slice, by testing every cell of
    each position's pure-power box against its elements' leading monomials.  ``ResourceLimit`` when a box or the
    count exceeds ``cap``."""
    d = basis.ring.d
    lead = {}
    for lt, _ in (g.leading_term() for g in basis.elements):
        lead.setdefault(lt.texp, []).append(lt.xexp)
    per_pos = []
    for pos in t_monomials(basis.ring, basis.tdeg):
        minimal = []
        for e in sorted(set(lead.get(tuple(pos), []))):
            if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
                minimal.append(e)
        bounds = []
        for i in range(d):
            pure = [e[i] for e in minimal if all(e[j] == 0 for j in range(d) if j != i)]
            if not pure:
                return False, None
            bounds.append(min(pure))
        per_pos.append((minimal, bounds))
    count = 0
    for minimal, bounds in per_pos:
        box = 1
        for b in bounds:
            box *= b
        if box > cap:
            raise ResourceLimit("box exceeds the cap")
        for cand in itertools.product(*(range(b) for b in bounds)):
            if not any(all(a <= b for a, b in zip(e, cand)) for e in minimal):
                count += 1
                if count > cap:
                    raise ResourceLimit("count exceeds the cap")
    return True, count


def spair(f, g):
    """S-polynomial of f and g, whose leading monomials share a position:
    lcm/lt(f) * f / lc(f) - lcm/lt(g) * g / lc(g), lcm the x-lcm of the two
    leading monomials."""
    ring = f.ring
    (lf, cf), (lg, cg) = f.leading_term(), g.leading_term()
    lcm = [max(a, b) for a, b in zip(lf.xexp, lg.xexp)]

    def lift(h, lead, lc):
        shift = Monomial((0,) * ring.p, tuple(m - a for m, a in zip(lcm, lead.xexp)))
        return h * Polynomial.from_monomial(ring, shift, ring.field.invert(lc))

    return lift(f, lf, cf) - lift(g, lg, cg)


def _leading(f):
    """The leading monomial of f under the term order's key."""
    return max((m for m, _ in f.items()), key=DEGREVLEX_X.key)


def reference_divide(f, divisors):
    """The remainder of f on full division by the monic divisors: while some
    term of what is left has a monomial that a divisor's leading monomial
    divides, the largest such term is cancelled by the first such divisor;
    the other terms go to the remainder."""
    ring, p = f.ring, f.ring.field.p
    leads = [_leading(g) for g in divisors]
    left, rem = dict(f.items()), {}
    while left:
        m = max(left, key=DEGREVLEX_X.key)
        c = left.pop(m)
        for g, lead in zip(divisors, leads):
            if divides(lead, m):
                shift = Monomial((0,) * ring.p, tuple(b - a for a, b in zip(lead.xexp, m.xexp)))
                for gm, gc in g.items():
                    if gm != lead:
                        mm = monomial_product(gm, shift)
                        acc = left.get(mm, 0) - c * gc
                        left[mm] = acc % p if p else acc
                        if not left[mm]:
                            del left[mm]
                break
        else:
            rem[m] = c
    return Polynomial(ring, rem)


def reference_buchberger(gset):
    """(elements, leading monomials) of the reduced Groebner basis of the
    generator set, sorted by leading monomial: the monic generators, then
    the remainder of every same-position S-pair of every two elements by
    all elements so far, joined while nonzero; then the elements whose
    leading monomial no other's divides (the first of equal ones), each
    with its tail reduced by the others."""
    ring = gset.ring
    basis = [monic(g) for g in gset.gens]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        if _leading(basis[i]).texp != _leading(basis[j]).texp:
            continue
        rem = reference_divide(spair(basis[i], basis[j]), basis)
        if rem:
            basis.append(monic(rem))
            pairs += [(k, len(basis) - 1) for k in range(len(basis) - 1)]
    leads = [_leading(g) for g in basis]
    minimal = [
        i for i, lead in enumerate(leads)
        if not any(divides(other, lead) and (other != lead or k < i)
                   for k, other in enumerate(leads) if k != i)
    ]
    reduced = []
    for i in minimal:
        lead = Polynomial.from_monomial(ring, leads[i], 1)
        others = [basis[k] for k in minimal if k != i]
        reduced.append((leads[i], lead + reference_divide(basis[i] - lead, others)))
    reduced.sort(key=lambda pair: DEGREVLEX_X.key(pair[0]))
    return [g for _, g in reduced], [lead for lead, _ in reduced]


def monomial_module_colength(ring, tdeg, monomials):
    """Colength of the module generated by monomials (position, xexp) pairs."""
    by_pos = {}
    for mono in monomials:
        by_pos.setdefault(tuple(mono.texp), []).append(tuple(mono.xexp))
    total = 0
    for pos in t_monomials(ring, tdeg):
        count = monomial_staircase_count(ring.d, by_pos.get(tuple(pos), []))
        if count is None:
            return None
        total += count
    return total


def length_m_power(d, n):
    """l(k[x1..xd] / m^n)."""
    return comb(n + d - 1, d)


def length_mF_power(n):
    """l(F^n / (mF)^n) for d = p = 2: positions times l(R/m^n)."""
    return (n + 1) * length_m_power(2, n)


def linear_algebra_colength(ring, tdeg, gens, bound):
    """dim_k of (slice / (span(gens) + m^bound * slice)) by truncated
    multiplication matrices and exact rank; equals the colength whenever
    m^bound annihilates the quotient.  Entirely independent of the
    Groebner/staircase path."""
    from brim.linalg import rank
    from brim.poly import compositions_desc

    d = ring.d
    cols = []
    for pos in t_monomials(ring, tdeg):
        for k in range(bound):
            for xe in compositions_desc(k, d):
                cols.append(Monomial(tuple(pos), tuple(xe)))
    index = {m: i for i, m in enumerate(cols)}
    fld = ring.field
    rows = []
    for g in gens:
        for k in range(bound):
            for be in compositions_desc(k, d):
                shift = Monomial((0,) * ring.p, tuple(be))
                row = [0] * len(cols)
                nonzero = False
                for m, c in g.items():
                    mm = monomial_product(m, shift)
                    if sum(mm.xexp) < bound:
                        row[index[mm]] += c
                        nonzero = True
                if nonzero:
                    rows.append(dict(enumerate(row)))
    r = rank(rows, fld) if rows else 0
    return len(cols) - r


def dense_differential(spec, n, t, delta):
    """Dense matrix of d_n on the (t, delta) Koszul slice, rows = target
    basis, columns = source basis, both in ``_slice_basis`` order; returns
    (rows, source size, target size), rows = [] when either basis is empty.
    The basis codes are decoded, and products formed on the tuples."""
    from brim.koszul import _slice_basis

    monomial = packing(spec.ring).monomial
    src = [(s, monomial(c)) for s, c in _slice_basis(spec, n, t, delta)]
    tgt = [(s, monomial(c)) for s, c in _slice_basis(spec, n - 1, t, delta)]
    if not src or not tgt:
        return [], len(src), len(tgt)
    tgt_index = {key: r for r, key in enumerate(tgt)}
    p = spec.ring.field.p
    rows = [[0] * len(src) for _ in tgt]
    for col, (subset, u) in enumerate(src):
        for pos, elem_idx in enumerate(subset):
            rest = subset[:pos] + subset[pos + 1 :]
            sign = 1 if pos % 2 == 0 else -1
            for am, ac in spec.elems[elem_idx].items():
                target = (rest, monomial_product(am, u))
                r = tgt_index[target]
                rows[r][col] += sign * ac
                if p:
                    rows[r][col] %= p
    return rows, len(src), len(tgt)


class DensePairedSpan:
    """Reference for ``brim.linalg.PairedSpan``: the same elimination on dense
    lists, rows kept in pivot order, each monic at its pivot."""

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot_col, w_row, v_row)

    def add(self, w, v):
        fld = self.field
        p = fld.p

        def reduced(vec):
            return [a % p for a in vec] if p else vec

        w = list(w)
        v = list(v)
        for pivot, wr, vr in self.rows:
            c = w[pivot]
            if c:
                w = reduced([a - c * b for a, b in zip(w, wr)])
                v = reduced([a - c * b for a, b in zip(v, vr)])
        for i, val in enumerate(w):
            if val:
                inv = fld.invert(val)
                w = reduced([a * inv for a in w])
                v = reduced([a * inv for a in v])
                self.rows.append((i, w, v))
                self.rows.sort(key=lambda t: t[0])
                return ("new", None)
        if any(v):
            return ("kernel", v)
        return ("dependent", None)


def echelon_sweep(field, steps, groups):
    """Reference for ``brim.rees.DegreeSweep``: for each x-degree from the
    lowest in ``groups`` (x-degree -> packed generators) to the highest,
    (the generators of that degree that enlarge the span, in order;
    dim N_delta).  N_delta is spanned by x_i times the rows of N_(delta-1),
    x_i adding ``steps[i]`` to every code, and then by the degree's
    generators; every row goes through ``linalg.Echelon`` on its codes."""
    rows, out = [], []
    for delta in range(min(groups), max(groups) + 1):
        echelon, kept = Echelon(field), []
        shifted = [(None, {c + s: v for c, v in row.items()}) for row in rows for s in steps]
        for g, vec in shifted + [(g, dict(g)) for g in groups.get(delta, ())]:
            echelon.integral(vec)
            echelon.reduce(vec)
            if vec:
                echelon.insert(vec)
                if g is not None:
                    kept.append(g)
        rows = list(echelon.rows.values())
        out.append((kept, len(rows)))
    return out
