"""Prime moduli: an exact Miller-Rabin test, and the bound it holds below."""

import pytest

from brim import QQ, InvalidInput, PrimeField, RingSpec
from brim.ring import _is_prime

from .test_groebner import _deadline

# the least strong pseudoprime to every prime base up to 41; every base up to
# 37 passes 318665857834031151167461 (J. Sorenson and J. Webster, 2017)
BOUND = 3317044064679887385961981


def _sieve(n):
    prime = [False, False] + [True] * (n - 2)
    for i in range(2, int(n**0.5) + 1):
        if prime[i]:
            prime[i * i :: i] = [False] * len(prime[i * i :: i])
    return prime


def test_large_prime_moduli_are_accepted_at_once():
    with _deadline(1.0):
        for p in (2**61 - 1, 2**31 - 1):
            assert PrimeField(p).p == p


@pytest.mark.parametrize(
    "n",
    [561, 3215031751, 2**61 + 1, 1000000007 * 1000000009, 318665857834031151167461],
    ids=["carmichael", "spsp-2-3-5-7", "2^61+1", "semiprime", "spsp-to-37"],
)
def test_composite_moduli_are_rejected(n):
    with pytest.raises(InvalidInput, match=f"^modulus {n} is not prime$"):
        PrimeField(n)


def test_primality_agrees_with_a_sieve():
    sieve = _sieve(10**4)
    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if sieve[n]]


@pytest.mark.parametrize("n", [BOUND, 2**89 - 1], ids=["bound", "prime-above"])
def test_a_modulus_at_or_above_the_bound_is_refused(n):
    with pytest.raises(InvalidInput, match=f"^modulus {n} is not below {BOUND}, "):
        PrimeField(n)


@pytest.mark.parametrize(
    "d, p, message",
    [(0, 1, "need d >= 1 and p >= 1"), (5, 4, "d \\+ p = 9 exceeds the cap of 8 variables")],
    ids=["d-zero", "nine-variables"],
)
def test_ring_dimensions_are_checked(d, p, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        RingSpec(d=d, p=p)


@pytest.mark.parametrize("field, zero", [(QQ, 0), (PrimeField(7), 14)], ids=["QQ", "GF7"])
def test_zero_has_no_inverse(field, zero):
    with pytest.raises(ZeroDivisionError):
        field.invert(zero)
