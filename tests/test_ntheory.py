"""Primality, factoring, divisors."""

import random

from autconj.ntheory import divisors, factorint, is_prime, next_prime


def _trial_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small():
    for n in range(-3, 2000):
        assert is_prime(n) == _trial_prime(n), n


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    # Carmichael numbers
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)


def test_next_prime():
    assert next_prime(3) == 5
    assert next_prime(5) == 7
    assert next_prime(23) == 29
    p = 3
    seen = []
    for _ in range(10):
        p = next_prime(p)
        seen.append(p)
    assert seen == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_factorint_roundtrip():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randrange(2, 10**9)
        fac = factorint(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p) and e >= 1
            prod *= p**e
        assert prod == n


def test_factorint_known():
    assert factorint(345025251) == {3: 5, 17: 5}
    assert factorint(2601) == {3: 2, 17: 2}
    assert factorint(1) == {}


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(1, 5000)
        ds = divisors(n)
        assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)
