"""Sparse bigraded polynomials in S = k[x1..xd, t1..tp].

Monomials carry separate x- and t-exponent blocks.  There is one term order,
position over term: t-exponents compare lexicographically first (positions),
then degrevlex on the x-block.  It is a multiplicative total order.  Every
computation stays inside one t-degree slice, where any position-over-term
order with degrevlex on x agrees with it, so no other order is offered.
"""

from __future__ import annotations

import re
from math import comb
from typing import NamedTuple

from .errors import InvalidInput, ResourceLimit, Undefined
from .ring import RingSpec


class Monomial(NamedTuple):
    texp: tuple
    xexp: tuple

    @property
    def tdeg(self) -> int:
        return sum(self.texp)

    @property
    def xdeg(self) -> int:
        return sum(self.xexp)

    def mul(self, other: "Monomial") -> "Monomial":
        return Monomial(
            tuple(a + b for a, b in zip(self.texp, other.texp)),
            tuple(a + b for a, b in zip(self.xexp, other.xexp)),
        )


def one_monomial(ring: RingSpec) -> Monomial:
    return Monomial((0,) * ring.p, (0,) * ring.d)


def _degrevlex_key(xexp: tuple) -> tuple:
    # descending degrevlex: compare total degree, then negated reversed exps
    return (sum(xexp),) + tuple(-e for e in reversed(xexp))


class MonomialOrder:
    """The term order: t-exponents lexicographically, then degrevlex on x.
    Larger keys are larger monomials."""

    def key(self, m: Monomial) -> tuple:
        return m.texp + _degrevlex_key(m.xexp)


DEGREVLEX_X = MonomialOrder()


def _add_terms(res: dict, terms, p: int) -> dict:
    """Add the nonzero (monomial, coefficient) terms into res, reducing each
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

    Coefficients are combined with Python operators and, over GF(p), reduced
    mod the field's characteristic p, so they stay residues in [0, p); over
    QQ (p = 0) they are fractions."""

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: RingSpec, terms=None):
        self.ring = ring
        fld = ring.field
        if isinstance(terms, dict):
            terms = terms.items()
        coerced = []
        for m, c in terms or ():
            if len(m.texp) != ring.p or len(m.xexp) != ring.d:
                raise InvalidInput("monomial does not match ring dimensions")
            c = fld.coerce(c)
            if c:
                coerced.append((m, c))
        self._terms = _add_terms({}, coerced, fld.p)
        self._hash = None

    @classmethod
    def _raw(cls, ring: RingSpec, terms: dict) -> "Polynomial":
        # internal: terms already normalized (no zeros, coerced)
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        p._hash = None
        return p

    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls._raw(ring, {})

    @classmethod
    def constant(cls, ring: RingSpec, c) -> "Polynomial":
        return cls(ring, {one_monomial(ring): c})

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
        """Term list sorted descending under the term order."""
        return tuple(
            sorted(self._terms.items(), key=lambda mc: DEGREVLEX_X.key(mc[0]), reverse=True)
        )

    def items(self):
        return self._terms.items()

    def leading_term(self):
        if not self._terms:
            raise Undefined("leading term of the zero polynomial")
        m = max(self._terms, key=DEGREVLEX_X.key)
        return m, self._terms[m]

    def _check_same_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise InvalidInput("operands live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        res = _add_terms(dict(self._terms), other._terms.items(), self.ring.field.p)
        return Polynomial._raw(self.ring, res)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + -other

    def scale(self, c) -> "Polynomial":
        return self.mul_term(one_monomial(self.ring), c)

    def mul_term(self, m: Monomial, c) -> "Polynomial":
        fld = self.ring.field
        c = fld.coerce(c)
        if not c:
            return Polynomial.zero(self.ring)
        p = fld.p
        if p:
            return Polynomial._raw(
                self.ring, {mm.mul(m): v * c % p for mm, v in self._terms.items()}
            )
        return Polynomial._raw(self.ring, {mm.mul(m): v * c for mm, v in self._terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_ring(other)
        p = self.ring.field.p
        res = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1.mul(m2)
                acc = res.get(m)
                if acc is None:
                    res[m] = c1 * c2 % p if p else c1 * c2
                else:
                    acc += c1 * c2
                    if p:
                        acc %= p
                    if acc:
                        res[m] = acc
                    else:
                        del res[m]
        return Polynomial._raw(self.ring, res)

    def bidegree(self):
        """Per-block degree (xdeg, tdeg); the string "mixed" marks disagreement."""
        if not self._terms:
            raise Undefined("bidegree of the zero polynomial")
        xdegs = {m.xdeg for m in self._terms}
        tdegs = {m.tdeg for m in self._terms}
        xd = xdegs.pop() if len(xdegs) == 1 else "mixed"
        td = tdegs.pop() if len(tdegs) == 1 else "mixed"
        return (xd, td)

    def tdeg_if_homogeneous(self):
        """The common t-degree of all terms, or None (zero polynomial: None)."""
        if not self._terms:
            return None
        tdegs = {m.tdeg for m in self._terms}
        return tdegs.pop() if len(tdegs) == 1 else None

    def is_bihomogeneous(self) -> bool:
        if not self._terms:
            return False
        xd, td = self.bidegree()
        return xd != "mixed" and td != "mixed"

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
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
    coefficients are g's own: only the t-exponents move."""
    shifts = [Monomial(tuple(pos), (0,) * ring.d) for pos in t_monomials(ring, deg)]
    return [Polynomial._raw(ring, {m.mul(mu): c for m, c in g.items()})
            for g in polys for mu in shifts]


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
# packed monomials (M. Monagan and R. Pearce, CASC 2007): one int a monomial

SLOT_BITS = 16


class Packing:
    """A ring's monomials as ints with d + p slots of SLOT_BITS + 1 bits, from
    the top t1..tp, s_d, ..., s_1 with s_k = x1 + ... + xk.  Int order is the
    term order (positions, then degrevlex), a product's code is the sum of
    the codes, x_i adds ``steps[i]`` and ``xdeg`` reads the s_d slot.
    ``exponents`` gives a code's exponent code, x_k in the k-th slot from the
    bottom, as the difference of neighbouring slots; there the top bit of
    each slot is a guard, so u divides v exactly when v - u sets no guard
    bit (``divides``), and ``lcm`` is the slotwise maximum by the same
    borrow.  All of this holds while degrees stay below the slot base
    2**SLOT_BITS, which ``code`` and the callers ``check``; the sum of two
    such codes carries into no slot.  A packed polynomial is a ``{code:
    coefficient}`` dict; an integral rational enters it as an int."""

    def __init__(self, ring: RingSpec):
        d, p, self.ring = ring.d, ring.p, ring
        w = self.width = SLOT_BITS + 1
        self.base, self.mask = 1 << SLOT_BITS, (1 << w) - 1
        self.xshift, self.tshift = w * (d - 1), w * d  # the s_d slot, the position
        self.xmask = (1 << self.tshift) - 1  # the x slots
        self.ones = self.xmask // self.mask  # a one in each: x-code = e * ones & xmask
        self.guards = self.ones << SLOT_BITS
        self.xshifts = range(0, self.tshift, w)  # x1..xd in an exponent code
        self.tshifts = range(w * (d + p - 1), self.xshift, -w)  # t1..tp
        self.steps = [self.ones >> s << s for s in self.xshifts]
        self.weights = [1 << s for s in self.tshifts] + self.steps

    def check(self, *degrees: int):
        if max(degrees) >= self.base:
            raise ResourceLimit(f"degree {max(degrees)} reaches the slot base {self.base}")

    def code(self, m: Monomial) -> int:
        self.check(sum(m.texp), sum(m.xexp))
        return sum(e * w for e, w in zip(m.texp + m.xexp, self.weights))

    def xdeg(self, code: int) -> int:
        return code >> self.xshift & self.mask

    def exponents(self, code: int) -> int:
        return (code & self.xmask) - (code << self.width & self.xmask)

    def divides(self, u: int, v: int) -> bool:
        """Does the exponent code u divide v?"""
        return not (v - u) & self.guards

    def lcm(self, u: int, v: int) -> int:
        """The lcm of two exponent codes: where u - v borrows from no guard
        bit, u's slot is the larger."""
        g = ((u | self.guards) - v) & self.guards
        larger = g - (g >> SLOT_BITS)
        return (u & larger) | (v & ~larger)

    def monomial(self, code: int) -> Monomial:
        e, mask = self.exponents(code), self.mask
        return Monomial(tuple([code >> s & mask for s in self.tshifts]),
                        tuple([e >> s & mask for s in self.xshifts]))

    def pack(self, f: Polynomial) -> dict:
        return {self.code(m): c.numerator if c.denominator == 1 else c for m, c in f.items()}

    def unpack(self, terms: dict) -> Polynomial:
        coerce, monomial = self.ring.field.coerce, self.monomial
        return Polynomial._raw(self.ring, {monomial(code): coerce(c) for code, c in terms.items()})

    def t_codes(self, deg: int) -> list:
        """The codes of the degree-deg t-monomials, lex descending."""
        return [self.code(Monomial(t, (0,) * self.ring.d)) for t in t_monomials(self.ring, deg)]

    def mul(self, f: dict, g: dict) -> dict:
        """The product of two packed polynomials, with no degree check."""
        res, p = {}, self.ring.field.p
        for a, c in f.items():
            for b, e in g.items():
                k = a + b
                res[k] = res[k] + c * e if k in res else c * e
        return {k: r for k, v in res.items() if (r := v % p if p else v)}


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
