"""Primality and the next prime."""

from autconj.ntheory import is_prime, next_prime


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
