"""Coefficient fields and the ambient ring data.

The ambient ring is S = k[x1..xd, t1..tp], the symmetric algebra of the free
module F = R^p over R = k[x1..xd].  Coefficients are exact: arbitrary
precision rationals or residues modulo a prime.  A field is its
characteristic ``p``, 0 for QQ: every layer computes with Python operators
and reduces mod p when p is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import InvalidInput


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Rationals:
    """Exact rational field; an element enters as an int when it is integral
    and as a fractions.Fraction in lowest terms otherwise.  Equality, hashing
    and str agree between the two, so arithmetic may mix them."""

    name = "QQ"
    p = 0
    one = 1

    def coerce(self, v):
        v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    @staticmethod
    def invert(a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def from_fraction(self, num: int, den: int):
        if den == 0:
            raise InvalidInput("zero denominator")
        return Fraction(num, den)

    def random_nonzero(self, rng):
        # small positive integers keep intermediate fractions tame
        return Fraction(rng.randint(1, 64))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Residue field Z/p, p prime; elements are ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise InvalidInput(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"
        self.one = 1 % p

    def coerce(self, v):
        if isinstance(v, Fraction):
            return self.from_fraction(v.numerator, v.denominator)
        return int(v) % self.p

    def invert(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def from_fraction(self, num: int, den: int):
        if den % self.p == 0:
            raise InvalidInput(f"denominator {den} not invertible mod {self.p}")
        return (num * self.invert(den % self.p)) % self.p

    def random_nonzero(self, rng):
        return rng.randint(1, self.p - 1)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def field_from_config(cfg):
    """Build a field from "QQ", an int modulus, or {"GF": p}; a float or
    boolean modulus is rejected, never truncated."""
    if cfg == "QQ" or isinstance(cfg, Rationals):
        return QQ
    if isinstance(cfg, PrimeField):
        return cfg
    if isinstance(cfg, dict) and set(cfg) == {"GF"}:
        cfg = cfg["GF"]
    if isinstance(cfg, int) and not isinstance(cfg, bool):
        return PrimeField(cfg)
    raise InvalidInput(f"unrecognized field spec {cfg!r}")


@dataclass(frozen=True)
class RingSpec:
    """Ambient data: R = k[x1..xd], F = R^p, S = R[t1..tp]."""

    d: int
    p: int
    field: object = dc_field(default_factory=lambda: QQ)

    def __post_init__(self):
        if self.d < 1 or self.p < 1:
            raise InvalidInput("need d >= 1 and p >= 1")
        if self.d + self.p > 8:
            raise InvalidInput(f"d + p = {self.d + self.p} exceeds the cap of 8 variables")

    @property
    def xvars(self):
        return tuple(f"x{i + 1}" for i in range(self.d))

    @property
    def tvars(self):
        return tuple(f"t{i + 1}" for i in range(self.p))
