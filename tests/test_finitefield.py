"""Prime fields, quadratic extensions, Frobenius, squares."""

import random

import pytest

from autconj import poly as P
from autconj.finitefield import GF, ExtensionField, PrimeField


def test_inverse_examples():
    K7 = GF(7)
    assert K7.inv(K7.from_int(1)) == K7.from_int(1)
    assert K7.inv(K7.from_int(3)) == K7.from_int(5)
    K5 = GF(5)
    assert K5.inv(K5.from_int(2)) == K5.from_int(3)


def test_inverse_everywhere():
    for p in (2, 3, 5, 13, 31):
        K = GF(p)
        for a in K.elements():
            if a == K.zero:
                continue
            assert K.mul(a, K.inv(a)) == K.one


def test_zero_inverse_raises():
    K = GF(5)
    try:
        K.inv(K.zero)
        assert False
    except ZeroDivisionError:
        pass


def test_sqrt_examples():
    K7 = GF(7)
    assert K7.is_square(K7.from_int(4))
    K5 = GF(5)
    assert not K5.is_square(K5.from_int(3))
    assert K5.is_square(K5.zero)
    # GF(p, 2) is built on the smallest non-square
    assert GF(5, 2).modulus == (3, 0, 1) and GF(7, 2).modulus == (4, 0, 1)


def test_squares_by_enumeration():
    for p in (3, 5, 7, 11, 13, 17, 101):
        K = GF(p)
        squares = {K.mul(a, a) for a in K.elements()}
        for a in K.elements():
            assert K.is_square(a) == (a in squares)


def test_field_equality_by_characteristic():
    # fresh instances with the same p compare equal but are not identical
    a, b = PrimeField(7), PrimeField(7)
    assert a == b and a is not b
    assert PrimeField(7) != PrimeField(5)


def test_extension_basics():
    K = GF(5, 2)
    assert K.order == 25
    assert len(list(K.elements())) == 25
    base = K.base
    for n in range(5):
        assert K.from_int(n) == (base.from_int(n), base.zero)


def test_extension_axioms():
    rng = random.Random(17)
    for (p, k) in ((2, 2), (3, 2), (5, 2), (7, 2)):
        K = GF(p, k)
        els = list(K.elements())
        for _ in range(60):
            x, y, z = (rng.choice(els) for _ in range(3))
            assert K.add(x, y) == K.add(y, x)
            assert K.mul(x, y) == K.mul(y, x)
            assert K.mul(x, K.add(y, z)) == K.add(K.mul(x, y), K.mul(x, z))
            assert K.add(x, K.neg(x)) == K.zero
            if x != K.zero:
                assert K.mul(x, K.inv(x)) == K.one


def test_frobenius_fixes_base():
    K = GF(5, 2)
    for n in range(5):
        x = K.from_int(n)
        assert K.frobenius(x) == x


def test_frobenius_conjugates_generator():
    # GF(25) = F5(t) with t^2 = -3, so frobenius(t) = t^5 = (t^2)^2 t = 4t = -t
    K = GF(5, 2)
    t = (K.base.zero, K.base.one)
    assert K.mul(t, t) == K.from_int(2)
    assert K.frobenius(t) == K.neg(t)


def test_frobenius_involution_and_multiplicativity():
    for (p, k) in ((2, 2), (3, 2), (5, 2)):
        K = GF(p, k)
        els = list(K.elements())
        for x in els:
            assert K.frobenius(K.frobenius(x)) == x
        rng = random.Random(p)
        for _ in range(40):
            x, y = rng.choice(els), rng.choice(els)
            assert K.frobenius(K.mul(x, y)) == K.mul(K.frobenius(x), K.frobenius(y))
            assert K.frobenius(K.add(x, y)) == K.add(K.frobenius(x), K.frobenius(y))


def test_gf_rejects_bad_args():
    try:
        GF(4)
        assert False
    except ValueError:
        pass
    try:
        GF(6, 2)
        assert False
    except ValueError:
        pass


def test_random_element_lands_in_field():
    rng = random.Random(1)
    K = GF(11)
    els = set(K.elements())
    for _ in range(50):
        assert K.random_element(rng) in els


def _tower_over_f9():
    # x^2 - c over GF(9) for a non-square c: a quadratic extension of an
    # extension, whose elements go through the generic loops
    B = GF(3, 2)
    c = next(c for c in B.elements() if c != B.zero and B.pow(c, 4) != B.one)
    return ExtensionField(B, (B.neg(c), B.zero, B.one))


KERNEL_FIELDS = (GF(2, 3), GF(3, 2), GF(5, 3), GF(2, 7), _tower_over_f9())


def _element(K, n):
    """The element of K whose base-|base| digits, lowest first, are n's."""
    if isinstance(K, PrimeField):
        return n % K.p
    digits = []
    for _ in range(K.k):
        n, r = divmod(n, K.base.order)
        digits.append(_element(K.base, r))
    return tuple(digits)


def _reduced(K, f):
    """The polynomial f over K.base as an element of K."""
    r = P.pmod(K.base, f, K.modulus)
    return tuple(r) + (K.base.zero,) * (K.k - len(r))


def test_frobenius_matches_power():
    # the rows F(x)^i, built on the first call, against the q-th power,
    # q = |base|, over prime bases and towers
    rng = random.Random(29)
    B = GF(2, 2)
    tower4 = ExtensionField(B, (B.gen, B.zero, B.zero, B.one))  # x^3 + t, t no cube
    for K in KERNEL_FIELDS + (GF(101, 2), GF(7, 4), tower4):
        for _ in range(24):
            a = K.random_element(rng)
            assert K.frobenius(a) == K.pow(a, K.base.order), K
        assert K.frobenius(K.gen) != K.gen


def test_element_arithmetic_matches_polynomials_mod_modulus():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(st.sampled_from(KERNEL_FIELDS), st.integers(0, 3**12),
                      st.integers(0, 3**12), st.integers(0, 40))
    def check(K, m, n, e):
        B = K.base
        a, b = _element(K, m % K.order), _element(K, n % K.order)
        assert K.mul(a, b) == _reduced(K, P.pmul(B, a, b))
        assert K.add(a, b) == _reduced(K, P.padd(B, a, b))
        assert K.sub(a, b) == _reduced(K, P.psub(B, a, b))
        assert K.neg(a) == _reduced(K, P.pneg(B, a))
        assert K.pow(a, e) == _reduced(K, P.ppow_mod(B, a, e, K.modulus))
        if a != K.zero:
            assert K.mul(a, K.inv(a)) == K.one

    check()
