"""Sparse bigraded polynomials in S = k[x1..xd, t1..tp].

Monomials carry separate x- and t-exponent blocks.  There is one term order,
position over term: t-exponents compare lexicographically first (positions),
then degrevlex on the x-block.  It is a multiplicative total order.  Every
computation stays inside one t-degree slice, where any position-over-term
order with degrevlex on x agrees with it, so no other order is offered.

A polynomial holds its terms as ``{code: coefficient}``, each monomial packed
into one int by its ring's ``Packing`` (M. Monagan and R. Pearce, CASC 2007):
int order is the term order, and a product or a t-shift adds codes.
``Monomial`` tuples are the decoded view at the boundary: the constructor
encodes them, ``items``, ``terms`` and ``leading_term`` decode, and parsing
and formatting go through them.  Every product, ``mul_term`` and
``t_shifts`` checks that its degree stays below the slot base, so no code
carries into a neighbouring slot; one that reaches it is a ``ResourceLimit``.
"""

from __future__ import annotations

import re
from functools import cache, reduce
from math import comb
from operator import mul, or_
from typing import NamedTuple

from .errors import InvalidInput, ResourceLimit, Undefined
from .ring import RingSpec


class Monomial(NamedTuple):
    """A monomial decoded: its t- and x-exponent tuples."""

    texp: tuple
    xexp: tuple


def _degrevlex_key(xexp: tuple) -> tuple:
    # descending degrevlex: compare total degree, then negated reversed exps
    return (sum(xexp),) + tuple(-e for e in reversed(xexp))


class MonomialOrder:
    """The term order: t-exponents lexicographically, then degrevlex on x.
    Larger keys are larger monomials."""

    def key(self, m: Monomial) -> tuple:
        return m.texp + _degrevlex_key(m.xexp)


DEGREVLEX_X = MonomialOrder()


# ---------------------------------------------------------------------------
# packed monomials (M. Monagan and R. Pearce, CASC 2007): one int a monomial

SLOT_BITS = 16


class Packing:
    """A ring's monomials as ints with d + p + 1 slots of bits + 1 bits,
    from the top t1..tp, T, s_d, ..., s_1 with T = t1 + ... + tp and s_k =
    x1 + ... + xk.  Int order is the term order (positions, then degrevlex;
    T follows from the slots above it, so it never decides), a product's
    code is the sum of the codes, x_i adds ``steps[i]``, and ``tdeg`` and
    ``xdeg`` read the T and s_d slots.  ``exponents`` gives a code's
    exponent code, x_k in the k-th slot from the bottom, as the difference
    of neighbouring slots; there the top bit of each slot is a guard, so u
    divides v exactly when v - u sets no guard bit (``divides``), and
    ``lcm`` is the slotwise maximum by the same borrow.  All of this holds
    while degrees stay below the slot base 2**bits: then no slot of a sum of
    two codes carries, and a degree that reaches the base sets the guard bit
    of its slot, which ``code``, ``mul`` and ``check_codes`` refuse.  A
    packed polynomial is a ``{code: coefficient}`` dict."""

    def __init__(self, ring: RingSpec, bits: int):
        d, p, self.ring = ring.d, ring.p, ring
        w = self.width = bits + 1
        self.bits, self.base, self.mask = bits, 1 << bits, (1 << w) - 1
        self.xshift, self.dshift = w * (d - 1), w * d  # the s_d and T slots
        self.tshift = w * (d + 1)  # the position
        self.xmask = (1 << self.dshift) - 1  # the x slots
        self.ones = self.xmask // self.mask  # a one in each: x-code = e * ones & xmask
        self.guards = self.ones << bits
        self.over = (1 << self.xshift | 1 << self.dshift) << bits  # the s_d and T guards
        self.xshifts = range(0, self.dshift, w)  # x1..xd in an exponent code
        self.tshifts = range(w * (d + p), self.dshift, -w)  # t1..tp
        self.steps = [self.ones >> s << s for s in self.xshifts]
        self.weights = [1 << s | 1 << self.dshift for s in self.tshifts] + self.steps

    def check(self, *degrees: int):
        if max(degrees) >= self.base:
            raise ResourceLimit(f"degree {max(degrees)} reaches the slot base {self.base}")

    def check_codes(self, codes):
        """``check`` the largest t- and x-degree of codes that are sums of
        valid codes, once the guard bits show that one reaches the base."""
        if reduce(or_, codes, 0) & self.over:
            self.check(max(map(self.tdeg, codes)), max(map(self.xdeg, codes)))

    def code(self, m: Monomial) -> int:
        """m's code: ``InvalidInput`` unless m is a monomial of the ring
        with no negative exponent, ``ResourceLimit`` at a degree that
        reaches the slot base."""
        exps = m.texp + m.xexp
        if len(m.texp) != self.ring.p or len(m.xexp) != self.ring.d:
            raise InvalidInput("monomial does not match ring dimensions")
        if min(exps) < 0:
            raise InvalidInput(f"monomial {m} has a negative exponent")
        self.check(sum(m.texp), sum(m.xexp))
        return sum(map(mul, exps, self.weights))

    def xdeg(self, code: int) -> int:
        return code >> self.xshift & self.mask

    def tdeg(self, code: int) -> int:
        return code >> self.dshift & self.mask

    def exponents(self, code: int) -> int:
        return (code & self.xmask) - (code << self.width & self.xmask)

    def divides(self, u: int, v: int) -> bool:
        """Does the exponent code u divide v?"""
        return not (v - u) & self.guards

    def lcm(self, u: int, v: int) -> int:
        """The lcm of two exponent codes: where u - v borrows from no guard
        bit, u's slot is the larger."""
        g = ((u | self.guards) - v) & self.guards
        larger = g - (g >> self.bits)
        return (u & larger) | (v & ~larger)

    def monomial(self, code: int) -> Monomial:
        e, mask = self.exponents(code), self.mask
        return Monomial(tuple([code >> s & mask for s in self.tshifts]),
                        tuple([e >> s & mask for s in self.xshifts]))

    def t_codes(self, deg: int) -> list:
        """The codes of the degree-deg t-monomials, lex descending."""
        return [self.code(Monomial(t, (0,) * self.ring.d)) for t in t_monomials(self.ring, deg)]

    def x_codes(self, deg: int) -> list:
        """The codes of the degree-deg x-monomials, descending."""
        zero = (0,) * self.ring.p
        codes = [self.code(Monomial(zero, x)) for x in compositions_desc(deg, self.ring.d)]
        return sorted(codes, reverse=True)

    def mul(self, f: dict, g: dict) -> dict:
        """The product of two packed polynomials; ``ResourceLimit`` when its
        degree reaches the slot base (k[x, t] is a domain, so that degree is
        the largest of any code formed)."""
        res, p, formed = {}, self.ring.field.p, 0
        for a, c in f.items():
            for b, e in g.items():
                k = a + b
                formed |= k
                res[k] = res[k] + c * e if k in res else c * e
        if formed & self.over:
            self.check_codes(res)
        return {k: r for k, v in res.items() if (r := v % p if p else v)}


def packing(ring: RingSpec) -> Packing:
    """The ring's one Packing at the current SLOT_BITS, made on first use
    and kept for the process; equal rings share it."""
    return _packing(ring, SLOT_BITS)


_packing = cache(Packing)


def _add_terms(res: dict, terms, p: int) -> dict:
    """Add the nonzero (code, coefficient) terms into res, reducing each
    sum mod p when p is nonzero and dropping the sums that vanish."""
    for m, c in terms:
        acc = res.get(m)
        if acc is None:
            res[m] = c
        else:
            acc += c
            if p:
                acc %= p
            if acc:
                res[m] = acc
            else:
                del res[m]
    return res


class Polynomial:
    """Immutable sparse polynomial; no zero coefficients, no duplicate monomials.

    The terms are ``{code: coefficient}`` in the layout of ``pack``, the
    ring's ``Packing``.  Coefficients are combined with Python operators and,
    over GF(p), reduced mod the field's characteristic p, so they stay
    residues in [0, p); over QQ (p = 0) they are rationals, and one enters
    as an int when it is integral (``Rationals.coerce``)."""

    __slots__ = ("ring", "pack", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms=None):
        """terms: a ``{Monomial: coefficient}`` dict or (Monomial,
        coefficient) pairs; a repeated monomial is summed."""
        self.ring, self.pack = ring, packing(ring)
        code, coerce = self.pack.code, ring.field.coerce
        if isinstance(terms, dict):
            terms = terms.items()
        coded = [(code(m), coerce(c)) for m, c in terms or ()]
        self._terms = _add_terms({}, [(m, c) for m, c in coded if c], ring.field.p)
        self._hash = None

    @classmethod
    def _raw(cls, pack: Packing, terms: dict) -> "Polynomial":
        # internal: packed terms already normalized (no zeros, coerced)
        p = object.__new__(cls)
        p.ring, p.pack = pack.ring, pack
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls._raw(packing(ring), {})

    @classmethod
    def constant(cls, ring: RingSpec, c) -> "Polynomial":
        return cls(ring, {Monomial((0,) * ring.p, (0,) * ring.d): c})

    @classmethod
    def from_monomial(cls, ring: RingSpec, m: Monomial, c=1) -> "Polynomial":
        return cls(ring, {m: c})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def terms(self):
        """(Monomial, coefficient) pairs sorted descending under the term order."""
        monomial, terms = self.pack.monomial, self._terms
        return tuple((monomial(c), terms[c]) for c in sorted(terms, reverse=True))

    def items(self):
        """(Monomial, coefficient) pairs, decoded, in storage order."""
        monomial = self.pack.monomial
        return [(monomial(c), v) for c, v in self._terms.items()]

    def leading_term(self):
        if not self._terms:
            raise Undefined("leading term of the zero polynomial")
        c = max(self._terms)
        return self.pack.monomial(c), self._terms[c]

    def _check_same_ring(self, other: "Polynomial"):
        if self.pack is not other.pack:
            raise InvalidInput("operands live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        res = _add_terms(dict(self._terms), other._terms.items(), self.ring.field.p)
        return Polynomial._raw(self.pack, res)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def scale(self, c) -> "Polynomial":
        return self._times(0, c)

    def mul_term(self, m: Monomial, c) -> "Polynomial":
        return self._times(self.pack.code(m), c)

    def _times(self, code: int, c) -> "Polynomial":
        c = self.ring.field.coerce(c)
        return Polynomial._raw(self.pack, self.pack.mul(self._terms, {code: c}) if c else {})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        return Polynomial._raw(self.pack, self.pack.mul(self._terms, other._terms))

    def bidegree(self):
        """Per-block degree (xdeg, tdeg); the string "mixed" marks disagreement."""
        if not self._terms:
            raise Undefined("bidegree of the zero polynomial")
        xdegs = set(map(self.pack.xdeg, self._terms))
        tdegs = set(map(self.pack.tdeg, self._terms))
        xd = xdegs.pop() if len(xdegs) == 1 else "mixed"
        td = tdegs.pop() if len(tdegs) == 1 else "mixed"
        return (xd, td)

    def tdeg_if_homogeneous(self):
        """The common t-degree of all terms, or None (zero polynomial: None)."""
        if not self._terms:
            return None
        tdegs = set(map(self.pack.tdeg, self._terms))
        return tdegs.pop() if len(tdegs) == 1 else None

    def is_bihomogeneous(self) -> bool:
        if not self._terms:
            return False
        xd, td = self.bidegree()
        return xd != "mixed" and td != "mixed"

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.pack is other.pack
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._terms.items())))
        return self._hash

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<poly {format_polynomial(self)}>"


# ---------------------------------------------------------------------------
# monomial enumeration

def compositions_desc(total: int, parts: int):
    """All exponent tuples of the given length summing to total, lex
    descending; none for a negative total."""
    if total < 0:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions_desc(total - head, parts - 1):
            yield (head,) + rest


def t_monomials(ring: RingSpec, deg: int):
    """Degree-deg t-exponent tuples, lex descending (t1-major)."""
    return list(compositions_desc(deg, ring.p))


def t_shifts(ring: RingSpec, polys, deg: int) -> list:
    """Every g * mu, for g in polys (outer loop) and mu over the degree-deg
    t-monomials lex descending; deg = 0 gives copies of the inputs.  The
    coefficients are g's own: only the codes move, by mu's code."""
    pack = packing(ring)
    shifts = pack.t_codes(deg)
    out = []
    for g in polys:
        for s in shifts:
            terms = {c + s: v for c, v in g._terms.items()}
            pack.check_codes(terms)
            out.append(Polynomial._raw(pack, terms))
    return out


def count_monomials(nvars: int, deg: int) -> int:
    if deg < 0:
        return 0
    return comb(deg + nvars - 1, nvars - 1)


def count_bidegree(ring: RingSpec, tdeg: int, xdeg: int) -> int:
    """Number of monomials of S with the given pure bidegree."""
    if tdeg < 0 or xdeg < 0:
        return 0
    return count_monomials(ring.p, tdeg) * count_monomials(ring.d, xdeg)


# ---------------------------------------------------------------------------
# text grammar: term (("+"|"-") term)*, term = coeff? factors, coeff = int or a/b,
# "*" implicit or explicit, "^" for powers, variables x1..xd / t1..tp.

_TOKEN = re.compile(
    r"\s*(?:(?P<rat>\d+\s*/\s*\d+)|(?P<int>\d+)|(?P<var>[xt]\d+)|(?P<op>[-+*^()])|(?P<bad>\S))"
)


def _tokenize(text: str):
    toks = []
    for mo in _TOKEN.finditer(text):
        kind = mo.lastgroup
        if kind == "bad":
            raise InvalidInput(f"unexpected character {mo.group('bad')!r} in polynomial text")
        toks.append((kind, mo.group(kind)))
    return toks


def parse_polynomial(ring: RingSpec, text: str) -> Polynomial:
    """Parse the canonical textual syntax into a polynomial over the ring."""
    toks = _tokenize(text)
    if not toks:
        raise InvalidInput("empty polynomial text")
    fld = ring.field
    terms = []
    i = 0
    n = len(toks)

    def var_index(name: str):
        block, idx = name[0], int(name[1:]) - 1
        limit = ring.d if block == "x" else ring.p
        if idx < 0 or idx >= limit:
            raise InvalidInput(f"variable {name} out of range for this ring")
        return block, idx

    while i < n:
        sign = 1
        while i < n and toks[i][0] == "op" and toks[i][1] in "+-":
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise InvalidInput("dangling sign in polynomial text")
        coeff = 1  # the constructor coerces every coefficient into the field
        kind, val = toks[i]
        if kind == "rat":
            num, den = (int(s) for s in val.replace(" ", "").split("/"))
            coeff = fld.from_fraction(num, den)
            i += 1
        elif kind == "int":
            coeff = int(val)
            i += 1
        xexp = [0] * ring.d
        texp = [0] * ring.p
        while i < n:
            kind, val = toks[i]
            if kind == "op" and val == "*":
                i += 1
                continue
            if kind != "var":
                break
            block, idx = var_index(val)
            i += 1
            exp = 1
            if i < n and toks[i] == ("op", "^"):
                i += 1
                if i >= n or toks[i][0] != "int":
                    raise InvalidInput("expected integer exponent after '^'")
                exp = int(toks[i][1])
                i += 1
            if block == "x":
                xexp[idx] += exp
            else:
                texp[idx] += exp
        terms.append((Monomial(tuple(texp), tuple(xexp)), sign * coeff))
        if i < n and not (toks[i][0] == "op" and toks[i][1] in "+-"):
            raise InvalidInput(f"unexpected token {toks[i][1]!r} in polynomial text")
    return Polynomial(ring, terms)


def _format_coeff_and_vars(ring: RingSpec, m: Monomial, c) -> str:
    parts = []
    for name, e in zip(ring.xvars, m.xexp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    for name, e in zip(ring.tvars, m.texp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    body = "*".join(parts)
    cs = str(c)
    if not body:
        return cs
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return f"{cs}*{body}"


def format_polynomial(f: Polynomial) -> str:
    """Canonical text: terms descending under the term order; round-trips via parse."""
    if f.is_zero():
        return "0"
    out = []
    for m, c in f.terms():
        s = _format_coeff_and_vars(f.ring, m, c)
        if not out:
            out.append(s)
        elif s.startswith("-"):
            out.append("- " + s[1:])
        else:
            out.append("+ " + s)
    return " ".join(out)
