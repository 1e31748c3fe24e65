"""Independent oracles used to freeze expected values.

The staircase counts here deliberately use other algorithms than the
production code, which counts one column of the pure-power box at a time:
``monomial_staircase_count`` uses inclusion-exclusion over generator subsets,
and ``box_scan_colength`` tests every cell of the box against every minimal
leading monomial.  The three cross-check each other on monomial inputs.
``spair`` forms S-polynomials for the Groebner checks by plain polynomial
products, apart from the production division code.
"""

import itertools
from math import comb

from brim.poly import DEGREVLEX_X, Polynomial, t_monomials


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


def box_scan_colength(basis, cap, keep_cap):
    """(finite, value, standard monomials) of a Groebner basis's slice, by
    testing every cell of each position's pure-power box.  ``ResourceLimit``
    when a box or the count exceeds ``cap``; the monomials, sorted by the
    term order, are None above ``keep_cap``."""
    from brim import ResourceLimit
    from brim.poly import Monomial

    d = basis.ring.d
    lead = {}
    for lt in basis.lts:
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
                return False, None, None
            bounds.append(min(pure))
        per_pos.append((tuple(pos), minimal, bounds))
    monomials = []
    for pos, minimal, bounds in per_pos:
        box = 1
        for b in bounds:
            box *= b
        if box > cap:
            raise ResourceLimit("box exceeds the cap")
        for cand in itertools.product(*(range(b) for b in bounds)):
            if not any(all(a <= b for a, b in zip(e, cand)) for e in minimal):
                monomials.append(Monomial(pos, cand))
                if len(monomials) > cap:
                    raise ResourceLimit("count exceeds the cap")
    kept = None
    if len(monomials) <= keep_cap:
        kept = tuple(sorted(monomials, key=DEGREVLEX_X.key))
    return True, len(monomials), kept


def spair(f, g):
    """S-polynomial of f and g, whose leading monomials share a position:
    lcm/lt(f) * f / lc(f) - lcm/lt(g) * g / lc(g), lcm the x-lcm of the two
    leading monomials."""
    from brim.poly import Monomial

    ring = f.ring
    (lf, cf), (lg, cg) = f.leading_term(), g.leading_term()
    lcm = [max(a, b) for a, b in zip(lf.xexp, lg.xexp)]

    def lift(h, lead, lc):
        shift = Monomial((0,) * ring.p, tuple(m - a for m, a in zip(lcm, lead.xexp)))
        return h * Polynomial.from_monomial(ring, shift, ring.field.invert(lc))

    return lift(f, lf, cf) - lift(g, lg, cg)


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
    from brim.poly import Monomial, compositions_desc

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
                row = [fld.zero] * len(cols)
                nonzero = False
                for m, c in g.items():
                    mm = m.mul(shift)
                    if sum(mm.xexp) < bound:
                        row[index[mm]] = fld.add(row[index[mm]], c)
                        nonzero = True
                if nonzero:
                    rows.append(row)
    r = rank(rows, fld) if rows else 0
    return len(cols) - r


class DensePairedSpan:
    """Reference for ``brim.linalg.PairedSpan``: the same elimination on dense
    lists, rows kept in pivot order, each monic at its pivot."""

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
