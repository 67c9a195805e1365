"""Dense univariate polynomial and binary form arithmetic."""

import itertools
import random
from fractions import Fraction

import autconj.poly as P
from autconj.domains import QQ, ZZ
from autconj.finitefield import GF, ExtensionField


def _rand_poly(K, deg, rng):
    if K is QQ:
        c = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg + 1)]
    else:
        c = [K.random_element(rng) for _ in range(deg + 1)]
    return P.pstrip(K, tuple(c))


def test_strip_deg_basics():
    K = GF(7)
    assert P.pdeg(()) == -1
    assert P.pstrip(K, (K.from_int(1), K.zero, K.zero)) == (K.one,)
    assert P.pdeg((K.one, K.one)) == 1


def test_divmod_property():
    rng = random.Random(2)
    for K in (GF(7), GF(2), QQ):
        for _ in range(80):
            f = _rand_poly(K, rng.randrange(0, 7), rng)
            g = _rand_poly(K, rng.randrange(0, 5), rng)
            if P.pdeg(g) < 0:
                continue
            q, r = P.pdivmod(K, f, g)
            assert P.pdeg(r) < P.pdeg(g)
            assert P.padd(K, P.pmul(K, q, g), r) == f


def test_gcd_examples():
    # gcd(x^2 - 1, x - 1) = x - 1 over QQ
    g = P.pgcd(QQ, (-1, 0, 1), (-1, 1))
    assert g == (-1, 1)
    assert P.pmonic(QQ, g) == g


def test_gcd_with_zero_is_monic():
    g = P.pgcd(QQ, (Fraction(2), Fraction(4)), ())
    assert g[-1] == Fraction(1)
    assert P.pdeg(g) == 1
    K = GF(5)
    g2 = P.pgcd(K, (K.from_int(2), K.from_int(4)), ())
    assert g2[-1] == K.one


def test_gcd_char2():
    K = GF(2)
    # gcd(x^2 + 1, x^2 + x) = x + 1 over F2
    g = P.pgcd(K, (K.one, K.zero, K.one), (K.zero, K.one, K.one))
    assert g == (K.one, K.one)


def test_gcd_divides_both():
    rng = random.Random(4)
    for K in (GF(3), GF(11), QQ):
        for _ in range(50):
            f = _rand_poly(K, rng.randrange(0, 6), rng)
            g = _rand_poly(K, rng.randrange(0, 6), rng)
            d = P.pgcd(K, f, g)
            if P.pdeg(d) < 0:
                assert P.pdeg(f) < 0 and P.pdeg(g) < 0
                continue
            assert P.pmod(K, f, d) == ()
            assert P.pmod(K, g, d) == ()


def test_xgcd_bezout():
    rng = random.Random(6)
    for K in (GF(5), GF(2), QQ):
        for _ in range(60):
            f = _rand_poly(K, rng.randrange(0, 6), rng)
            g = _rand_poly(K, rng.randrange(0, 6), rng)
            d, u, v = P.pxgcd(K, f, g)
            lhs = P.padd(K, P.pmul(K, u, f), P.pmul(K, v, g))
            assert lhs == d
            assert d == P.pgcd(K, f, g)


def test_ppow_mod_matches_naive():
    K = GF(13)
    rng = random.Random(8)
    for _ in range(30):
        f = _rand_poly(K, rng.randrange(1, 4), rng)
        m = _rand_poly(K, rng.randrange(2, 5), rng)
        if P.pdeg(m) < 1:
            continue
        e = rng.randrange(0, 40)
        want = P.pconst(K, K.one)
        for _ in range(e):
            want = P.pmod(K, P.pmul(K, want, f), m)
        assert P.ppow_mod(K, f, e, m) == want


def test_eval_compose():
    K = GF(11)
    rng = random.Random(10)
    for _ in range(40):
        f = _rand_poly(K, rng.randrange(0, 5), rng)
        g = _rand_poly(K, rng.randrange(0, 4), rng)
        x = K.random_element(rng)
        # (f o g)(x) = f(g(x)), with f o g the form F(G, Y^deg g) at Y = 1
        e = max(len(g) - 1, 0)
        G0 = g + (K.zero,) * (e + 1 - len(g))
        G1 = (K.one,) + (K.zero,) * e
        fg = P.dehom(K, P.form_compose(K, f, G0, G1))
        assert P.peval(K, fg, x) == P.peval(K, f, P.peval(K, g, x))


def test_deriv():
    # d/dx (x^3 + 2x) = 3x^2 + 2 over QQ
    assert P.pderiv(QQ, (0, 2, 0, 1)) == (2, 0, 3)
    K = GF(3)
    # x^3 has zero derivative in characteristic 3
    assert P.pderiv(K, (K.zero, K.zero, K.zero, K.one)) == ()


def test_content_primitive():
    assert P.content((6, -9, 12)) == 3
    assert P.primitive((6, -9, 12)) == (2, -3, 4)
    # leading sign normalization flips the whole vector
    assert P.primitive((-6, 9, -12)) == (2, -3, 4)
    assert P.primitive((0, 0, 0)) == (0, 0, 0)


def test_form_compose_degree_and_eval():
    K = GF(7)
    rng = random.Random(14)
    for _ in range(30):
        d1, d2 = rng.randrange(1, 4), rng.randrange(1, 4)
        F = tuple(K.random_element(rng) for _ in range(d1 + 1))
        G0 = tuple(K.random_element(rng) for _ in range(d2 + 1))
        G1 = tuple(K.random_element(rng) for _ in range(d2 + 1))
        if not any(F) or not any(G0) or not any(G1):
            continue
        H = P.form_compose(K, F, G0, G1)
        assert len(H) == d1 * d2 + 1
        for _ in range(6):
            x0, x1 = K.random_element(rng), K.random_element(rng)
            want = P.form_eval(K, F, P.form_eval(K, G0, x0, x1), P.form_eval(K, G1, x0, x1))
            assert P.form_eval(K, H, x0, x1) == want


def _tower():
    # x^2 - c over GF(9), c a non-square
    B = GF(3, 2)
    c = next(c for c in B.elements() if c != B.zero and B.pow(c, 4) != B.one)
    return ExtensionField(B, (B.neg(c), B.zero, B.one))


def _element(K, rng):
    if K is ZZ:
        return rng.randint(-9, 9)
    if K is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return K.random_element(rng)


def _compose_by_powers(K, F, S0, S1):
    """F(S0, S1) as sum F_i S0^i S1^(d-i) from the full power tables."""
    d = len(F) - 1
    e = len(S0) - 1
    pow0, pow1 = [(K.one,)], [(K.one,)]
    for _ in range(d):
        pow0.append(P.form_mul(K, pow0[-1], S0))
        pow1.append(P.form_mul(K, pow1[-1], S1))
    out = [K.zero] * (d * e + 1)
    for i, c in enumerate(F):
        for j, t in enumerate(P.form_mul(K, pow0[i], pow1[d - i])):
            out[j] = K.add(out[j], K.mul(c, t))
    return tuple(out)


def test_form_compose_matches_power_formula():
    # homogeneous Horner against the powers-and-products formula, for
    # linear and higher-degree pairs, constant and empty F
    rng = random.Random(23)
    for K in (ZZ, QQ, GF(7), GF(2, 3), GF(5, 2), _tower()):
        for d in (0, 1, 2, 3, 6):
            for e in (0, 1, 2, 3):
                F = tuple(_element(K, rng) for _ in range(d + 1))
                S0 = tuple(_element(K, rng) for _ in range(e + 1))
                S1 = tuple(_element(K, rng) for _ in range(e + 1))
                assert P.form_compose(K, F, S0, S1) == _compose_by_powers(K, F, S0, S1), (K, d, e)
        for e in (0, 1, 2):
            S = tuple(_element(K, rng) for _ in range(e + 1))
            assert P.form_compose(K, (), S, S) == _compose_by_powers(K, (), S, S)


def test_monic_division_takes_no_inverse(monkeypatch):
    # over F_{5^3} and a tower: a monic divisor never reaches inv, and the
    # quotient and remainder agree with those of a non-monic multiple
    rng = random.Random(29)
    for K in (GF(5, 3), _tower()):
        for _ in range(10):
            f = _rand_poly(K, rng.randrange(0, 8), rng)
            g = tuple(K.random_element(rng) for _ in range(rng.randrange(1, 4))) + (K.one,)
            u = K.from_int(2)
            want_q, want_r = P.pdivmod(K, f, P.pscale(K, g, u))
            with monkeypatch.context() as m:
                for field in (K, K.base):
                    m.setattr(field, "inv", lambda a: 1 / 0)
                q, r = P.pdivmod(K, f, g)
            assert (P.pscale(K, q, K.inv(u)), r) == (want_q, want_r)
            assert P.padd(K, P.pmul(K, q, g), r) == f


def test_form_helpers():
    # X^2 Y = c_2 of degree 3: one factor of Y
    assert P.form_ymult(QQ, (0, 0, 1, 0)) == 1
    assert P.form_ymult(QQ, (0, 0, 0, 1)) == 0  # X^3
    assert P.form_ymult(QQ, (1, 0, 0, 0)) == 3  # Y^3
    assert P.dehom(QQ, (0, 1, 2)) == (0, 1, 2)
    assert P.dehom(QQ, (1, 2, 0)) == (1, 2)


def test_form_mul_matches_poly_mul():
    K = GF(5)
    rng = random.Random(16)
    for _ in range(40):
        F = tuple(K.random_element(rng) for _ in range(rng.randrange(2, 5)))
        G = tuple(K.random_element(rng) for _ in range(rng.randrange(2, 5)))
        H = P.form_mul(K, F, G)
        assert len(H) == len(F) + len(G) - 1
        for x in K.elements():
            assert P.form_eval(K, H, x, K.one) == K.mul(
                P.form_eval(K, F, x, K.one), P.form_eval(K, G, x, K.one)
            )


def test_residue_ring_kernel_matches_integer_arithmetic():
    # (Z/p^k)[x] through the raw-int path against convolution and long
    # division done in plain integers, reduced at the end
    from autconj.domains import ZZ
    from autconj.finitefield import IntegersMod

    rng = random.Random(19)
    for p, k in ((3, 5), (5, 4), (7, 8), (2, 20)):
        m = p**k
        R = IntegersMod(m)
        for _ in range(40):
            f = P.pstrip(R, tuple(rng.randrange(m) for _ in range(rng.randrange(1, 9))))
            lead = rng.randrange(1, m)
            lead += lead % p == 0  # a unit of Z/p^k
            g = tuple(rng.randrange(m) for _ in range(rng.randrange(0, 4))) + (lead,)
            prod = [0] * (len(f) + len(g) - 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    prod[i + j] += a * b
            assert P.pmul(R, f, g) == P.pstrip(R, tuple(c % m for c in prod))
            q, r = P.pdivmod(R, f, g)
            assert len(r) < len(g)
            back = P.padd(ZZ, P.pmul(ZZ, q, g), r)
            diff = [a - b for a, b in itertools.zip_longest(back, f, fillvalue=0)]
            assert all(c % m == 0 for c in diff), (m, f, g)
        # a divisor with a non-unit leading coefficient is refused
        try:
            P.pdivmod(R, (1, 2, 3), (1, p))
            assert False
        except ZeroDivisionError:
            pass
    # Z itself still refuses polynomial division
    try:
        P.pdivmod(ZZ, (1, 2, 3), (1, 1))
        assert False
    except ValueError:
        pass
