"""Mobius transformations and rational self-maps of the projective line."""

import random
from fractions import Fraction

import pytest

import autconj.poly as P
from autconj.cli import parse_map
from autconj.domains import QQ
from autconj.finitefield import GF
from autconj.projline import (
    Mobius,
    RatMap,
    _form_divexact,
    conjugate_map,
    form_rational_roots,
    infinity,
    is_automorphism,
    is_conjugating,
    mobius_from_three_points,
    normalize_point,
    random_map_ff,
    random_map_qq,
)


def _zmap(*coeffs):
    num, den = coeffs
    return RatMap.from_rational_function(QQ, num, den)


Z2 = _zmap((0, 0, 1), (1,))          # z^2
Z3 = _zmap((0, 0, 0, 1), (1,))       # z^3


def test_mobius_canonical_scaling():
    assert Mobius(QQ, 2, 0, 0, 2) == Mobius.identity(QQ)
    assert Mobius(QQ, Fraction(1, 2), 0, 0, 1).t == (1, 0, 0, 2)
    assert Mobius(QQ, -1, 0, 0, -1).t == (1, 0, 0, 1)


def test_mobius_rejects_singular():
    try:
        Mobius(QQ, 1, 2, 2, 4)
        assert False
    except ValueError:
        pass


def test_mobius_apply():
    s = Mobius(QQ, 1, 1, 0, 1)  # z + 1
    assert s.apply((Fraction(2), Fraction(1))) == (3, 1)
    inv = Mobius(QQ, 0, 1, 1, 0)  # 1/z
    assert inv.apply((0, 1)) == (1, 0)
    assert inv.apply((1, 0)) == (0, 1)
    assert inv.compose(inv).is_identity()


def test_mobius_compose_associative():
    rng = random.Random(21)
    K = GF(7)
    els = list(K.elements())
    ms = []
    while len(ms) < 12:
        a, b, c, d = (rng.choice(els) for _ in range(4))
        if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
            ms.append(Mobius(K, a, b, c, d))
    for _ in range(40):
        f, g, h = (rng.choice(ms) for _ in range(3))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))
        x = (rng.choice(els), K.one)
        if x == (K.zero, K.zero):
            continue
        assert f.compose(g).apply(x) == f.apply(g.apply(x))


def test_mobius_order():
    assert Mobius.identity(QQ).order() == 1
    assert Mobius(QQ, -1, 0, 0, 1).order() == 2   # -z
    assert Mobius(QQ, 0, 1, 1, 0).order() == 2    # 1/z
    assert Mobius(QQ, -1, -1, 1, 0).order() == 3  # (-z-1)/z
    assert Mobius(QQ, 0, -1, 1, 1).order() == 3   # -1/(z+1)
    assert Mobius(QQ, 1, -1, 1, 1).order() == 4   # (z-1)/(z+1)
    for a, b, c, d in ((1, 1, 0, 1), (2, 0, 0, 1)):
        # infinite order trips the iteration cap
        try:
            Mobius(QQ, a, b, c, d).order(cap=50)
            assert False
        except RuntimeError:
            pass


def test_mobius_height_and_coeff_ints():
    s = Mobius(QQ, Fraction(1, 2), 0, 0, 1)
    assert s.coeff_ints() == (1, 0, 0, 2)
    assert s.height() == 2
    assert Mobius(QQ, 0, 1, 2601, 0).height() == 2601


def test_mobius_from_three_points_examples():
    z0 = (Fraction(0), Fraction(1))
    z1 = (Fraction(1), Fraction(1))
    zi = infinity(QQ)
    s = mobius_from_three_points(QQ, (z0, z1, zi), (z0, z1, zi))
    assert s.is_identity()
    s = mobius_from_three_points(QQ, (z0, z1, zi), (zi, z1, z0))
    assert s == Mobius(QQ, 0, 1, 1, 0)
    s = mobius_from_three_points(QQ, (z0, z1, zi), (z1, z0, zi))
    assert s == Mobius(QQ, -1, 1, 0, 1)


def test_mobius_from_three_points_random():
    rng = random.Random(29)
    K = GF(11)
    pts = [(x, K.one) for x in K.elements()] + [infinity(K)]
    for _ in range(40):
        src = rng.sample(pts, 3)
        dst = rng.sample(pts, 3)
        s = mobius_from_three_points(K, src, dst)
        for a, b in zip(src, dst):
            assert normalize_point(K, *s.apply(a)) == normalize_point(K, *b)


def test_ratmap_canonicalization():
    # common factor cancels: (z^2 - 1)/(z - 1) is the degree-1 map z + 1,
    # which the RatMap constructor rejects as below degree 2 only at parse
    # level; from_rational_function itself allows degree 1
    phi = RatMap.from_rational_function(QQ, (-1, 0, 1), (-1, 1))
    assert phi.d == 1
    assert phi.F0 == (1, 1) and phi.F1 == (1, 0)


def test_ratmap_rejects_degenerate():
    try:
        RatMap.from_rational_function(QQ, (1, 1), (1, 1))
        assert False  # constant map
    except ValueError:
        pass
    try:
        RatMap.from_rational_function(QQ, (0, 0, 1), ())
        assert False  # zero denominator
    except ValueError:
        pass


def test_ratmap_coprimality_over_q():
    # one reduction mod M = 2^61 - 1 proves most pairs coprime; when the
    # reductions share a root or both lose their top coefficient, the
    # exact gcd decides
    M = 2**61 - 1
    assert RatMap(QQ, (0, 1), (M, 1)).d == 1  # z and z + M: both z mod M
    assert RatMap(QQ, (1, M), (2, M)).d == 1  # Mz + 1 and Mz + 2
    with pytest.raises(ValueError, match="share a factor"):
        # (z - M)(z + 1) and 2z(z - M)
        RatMap(QQ, (-M, 1 - M, 1), (0, -2 * M, 2))
    with pytest.raises(ValueError, match="share a factor"):
        # (Mz + 1)z and (Mz + 1)(z + 1): z and z + 1 mod M, coprime, but
        # both lose their top coefficient, so they share the root infinity
        RatMap(QQ, (0, 1, M), (1, M + 1, M))
    with pytest.raises(ValueError, match="share a factor"):
        RatMap(QQ, (-1, 0, 1), (-1, 1, 0))  # (z - 1)(z + 1) and z - 1


def test_ratmap_apply():
    assert Z2.apply((Fraction(3), Fraction(1))) == (9, 1)
    assert Z2.apply(infinity(QQ)) == (1, 0)
    phi = _zmap((1, 0, 1), (0, 1))  # (z^2 + 1)/z
    assert phi.apply((Fraction(2), Fraction(1))) == (Fraction(5, 2), 1)
    assert phi.apply((0, 1)) == (1, 0)


def test_fixed_point_form():
    assert Z2.fixed_point_form() == (0, 1, -1, 0)
    phi = _zmap((1, 0, 1), (1,))  # z^2 + 1
    assert phi.fixed_point_form() == (-1, 1, -1, 0)
    rng = random.Random(31)
    for _ in range(15):
        psi = random_map_qq(rng.randrange(2, 5), 8, rng)
        assert len(psi.fixed_point_form()) == psi.d + 2


def test_fixed_points():
    assert form_rational_roots(QQ, Z2.fixed_point_form()) == [(0, 1), (1, 1), (1, 0)]
    phi = _zmap((1, 0, 1), (1,))  # z^2 + 1: only infinity is rational
    assert form_rational_roots(QQ, phi.fixed_point_form()) == [(1, 0)]


def test_dynatomic_2():
    # z^2: period-2 points are the primitive cube roots of unity
    assert Z2.dynatomic_2() == (1, 1, 1)
    # z^2 - 1: 0 and -1 form a 2-cycle, X(X + Y) divides the form
    phi = _zmap((-1, 0, 1), (1,))
    dyn = phi.dynatomic_2()
    assert P.pdeg(dyn) == 2
    assert P.form_eval(QQ, dyn, Fraction(0), Fraction(1)) == 0
    assert P.form_eval(QQ, dyn, Fraction(-1), Fraction(1)) == 0
    rng = random.Random(33)
    for _ in range(10):
        psi = random_map_qq(rng.randrange(2, 4), 6, rng)
        assert P.pdeg(psi.dynatomic_2()) == psi.d * psi.d - psi.d


def test_dynatomic_2_roots_are_period_two_points():
    # brute force over P^1(F_p): every strict 2-cycle point is a root, and
    # every other root is a fixed point
    rng = random.Random(47)
    for p in (7, 11):
        K = GF(p)
        pts = [(x, K.one) for x in K.elements()] + [infinity(K)]
        for _ in range(12):
            phi = random_map_ff(K, rng.randrange(2, 5), rng)
            dyn = phi.dynatomic_2()
            assert P.pdeg(dyn) == phi.d * phi.d - phi.d
            for x in pts:
                y = phi.apply(x)
                period_two = y != x and phi.apply(y) == x
                is_root = P.form_eval(K, dyn, *x) == K.zero
                if period_two:
                    assert is_root
                elif is_root:
                    assert y == x


def _dynatomic_2_over_q(phi):
    # phi o phi composed in QQ, then the exact quotient of fixed point forms
    g0 = P.form_compose(QQ, phi.F0, phi.F0, phi.F1)
    g1 = P.form_compose(QQ, phi.F1, phi.F0, phi.F1)
    fix2 = tuple(a - b for a, b in zip((QQ.zero,) + g1, g0 + (QQ.zero,)))
    return _form_divexact(QQ, fix2, phi.fixed_point_form())


def _proportional(F, G):
    return len(F) == len(G) and all(
        a * d == b * c for a, b in zip(F, G) for c, d in zip(F, G)
    )


def test_dynatomic_2_matches_composition_over_q():
    from test_acceptance import BATTERY_ROWS, ROW_ONE

    maps = [parse_map(e, QQ) for e in [ROW_ONE] + [r[0] for r in BATTERY_ROWS]]
    rng = random.Random(49)
    maps += [random_map_qq(rng.randrange(2, 8), 10, rng) for _ in range(20)]
    for phi in maps:
        dyn = phi.dynatomic_2()
        assert any(dyn)
        assert all(type(c) is int for c in dyn)
        assert _proportional(dyn, _dynatomic_2_over_q(phi))


def test_preimages():
    one = (Fraction(1), Fraction(1))
    assert Z2.rational_preimages(one) == [(-1, 1), (1, 1)]
    assert Z2.rational_preimages(infinity(QQ)) == [(1, 0)]
    phi = _zmap((1, 0, 4), (4,))  # z^2 + 1/4
    half = (Fraction(1, 2), Fraction(1))
    assert phi.rational_preimages(half) == [(Fraction(-1, 2), 1), (Fraction(1, 2), 1)]


def test_preimages_map_forward():
    rng = random.Random(35)
    K = GF(13)
    pts = [(x, K.one) for x in K.elements()] + [infinity(K)]
    for _ in range(15):
        phi = random_map_ff(K, rng.randrange(2, 5), rng)
        target = rng.choice(pts)
        for q in phi.rational_preimages(target):
            assert normalize_point(K, *phi.apply(q)) == normalize_point(K, *target)


def test_is_good_prime_at_known_bad_primes():
    two_z5 = _zmap((0, 0, 0, 0, 0, 2), (1,))
    big = _zmap((0, 0, 0, 0, 0, 0, 345025251), (1,))  # 3^5 * 17^5
    bad = {Z2: (), two_z5: (2,), big: (3, 17)}
    for phi, primes in bad.items():
        for p in (2, 3, 5, 7, 11, 13, 17, 53, 61):
            assert phi.is_good_prime(p) == (p not in primes)
            # oracle: good reduction keeps two coprime forms of degree d
            try:
                good = phi.reduce_mod_p(p).d == phi.d
            except ValueError:
                good = False
            assert good == (p not in primes)


def _sylvester_det(F, G, d):
    # independent oracle: Fraction Gaussian elimination on the Sylvester matrix
    n = 2 * d
    fa = list(reversed(F))
    ga = list(reversed(G))
    m = []
    for j in range(d):
        m.append([Fraction(0)] * j + [Fraction(c) for c in fa] + [Fraction(0)] * (d - 1 - j))
    for j in range(d):
        m.append([Fraction(0)] * j + [Fraction(c) for c in ga] + [Fraction(0)] * (d - 1 - j))
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            t = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= t * m[k][j]
    assert det.denominator == 1
    return det.numerator


PRIMES_TO_101 = [p for p in range(2, 102) if all(p % q for q in range(2, p))]


def test_is_good_prime_matches_sylvester_determinant():
    rng = random.Random(13)
    built = rejected = bad = 0
    for _ in range(150):
        d = rng.randrange(1, 7)
        F = [rng.randrange(-12, 13) for _ in range(d + 1)]
        G = [rng.randrange(-12, 13) for _ in range(d + 1)]
        plant = rng.randrange(4)
        if plant == 0:
            # a common root z = r: multiply degree d - 1 forms by X - rY
            lin = (-rng.randrange(-4, 5), 1)
            F = list(P.form_mul(QQ, F[:d], lin))
            G = list(P.form_mul(QQ, G[:d], lin))
        elif plant == 1:
            F[d] = G[d] = 0  # the shared factor Y
        det = _sylvester_det(F, G, d)
        if det == 0:
            with pytest.raises(ValueError):
                RatMap(QQ, F, G)
            rejected += 1
            continue
        phi = RatMap(QQ, F, G)
        # RatMap divides out the joint content; the oracle reads its forms
        det = _sylvester_det(phi.F0, phi.F1, d)
        for p in PRIMES_TO_101:
            assert phi.is_good_prime(p) == (det % p != 0), (F, G, p)
            bad += det % p == 0
        built += 1
    assert built > 50 and rejected > 30 and bad > 50


def test_reduce_mod_p():
    phi = _zmap((0, 2, 1), (-1, -2))
    m5 = phi.reduce_mod_p(5)
    assert m5.K.order == 5 and m5.d == 2
    # reduction commutes with evaluation at good primes
    rng = random.Random(37)
    for _ in range(20):
        psi = random_map_qq(2, 9, rng)
        for p in (5, 7, 11):
            if not psi.is_good_prime(p):
                continue
            K = GF(p)
            mp = psi.reduce_mod_p(p)
            x = K.random_element(rng)
            a0, a1 = psi.apply((Fraction(int(x)), Fraction(1)))
            b = mp.apply((x, K.one))
            got = normalize_point(K, *b)
            # compare with the reduction of the rational value
            den = a1.denominator * a0.denominator
            if (a1 * den) % p != 0 or a1 == 0:
                num0 = int(a0 * den) % p
                num1 = int(a1 * den) % p
                if (num0, num1) != (0, 0):
                    assert got == normalize_point(K, K.from_int(num0), K.from_int(num1))


def test_conjugate_map_examples():
    # z^2 is its own conjugate by 1/z
    w = Mobius(QQ, 0, 1, 1, 0)
    assert conjugate_map(Z2, w) == Z2
    # conjugating z^2 by z + 1 gives z^2 - 2z + 2
    s = Mobius(QQ, 1, 1, 0, 1)
    expect = _zmap((2, -2, 1), (1,))
    assert conjugate_map(Z2, s) == expect
    # odd maps commute with -z
    m = Mobius(QQ, -1, 0, 0, 1)
    assert conjugate_map(Z3, m) == Z3


def test_conjugate_map_composes():
    rng = random.Random(39)
    for _ in range(20):
        phi = random_map_qq(rng.randrange(2, 4), 6, rng)
        a, b, c, d = (rng.randrange(-5, 6) for _ in range(4))
        e, f, g, h = (rng.randrange(-5, 6) for _ in range(4))
        if a * d - b * c == 0 or e * h - f * g == 0:
            continue
        s = Mobius(QQ, a, b, c, d)
        t = Mobius(QQ, e, f, g, h)
        # (phi^s)^t = phi^(t o s)
        assert conjugate_map(conjugate_map(phi, s), t) == conjugate_map(phi, t.compose(s))


def test_is_conjugating_examples():
    assert is_conjugating(Mobius.identity(QQ), Z2, Z2)
    assert is_conjugating(Mobius(QQ, 0, 1, 1, 0), Z2, Z2)
    assert not is_conjugating(Mobius(QQ, 1, 1, 0, 1), Z2, Z2)


def test_is_conjugating_matches_conjugate_map():
    rng = random.Random(41)
    for _ in range(25):
        phi = random_map_qq(rng.randrange(2, 4), 5, rng)
        a, b, c, d = (rng.randrange(-4, 5) for _ in range(4))
        if a * d - b * c == 0:
            continue
        s = Mobius(QQ, a, b, c, d)
        psi = conjugate_map(phi, s)
        assert is_conjugating(s, phi, psi)
        assert is_automorphism(s, phi) == (psi == phi)


def test_pointwise_conjugation_identity():
    # s(phi(x)) = psi(s(x)) for all points when s conjugates phi to psi
    rng = random.Random(43)
    K = GF(11)
    pts = [(x, K.one) for x in K.elements()] + [infinity(K)]
    for _ in range(15):
        phi = random_map_ff(K, rng.randrange(2, 4), rng)
        while True:
            a, b, c, d = (K.random_element(rng) for _ in range(4))
            if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
                break
        s = Mobius(K, a, b, c, d)
        psi = conjugate_map(phi, s)
        assert is_conjugating(s, phi, psi)
        for x in pts:
            lhs = s.apply(phi.apply(x))
            rhs = psi.apply(s.apply(x))
            assert normalize_point(K, *lhs) == normalize_point(K, *rhs)


def test_random_map_properties():
    rng = random.Random(45)
    for _ in range(20):
        d = rng.randrange(2, 6)
        h = rng.choice([5, 20, 100])
        phi = random_map_qq(d, h, rng)
        assert phi.d == d
        assert _sylvester_det(phi.F0, phi.F1, d) != 0
        assert all(abs(c) <= h for c in phi.F0 + phi.F1)
    K = GF(7)
    for _ in range(20):
        d = rng.randrange(2, 5)
        phi = random_map_ff(K, d, rng)
        assert phi.d == d


def test_random_map_qq_pinned_draws():
    # at heights 1 and 2 many draws have resultant 0 and are redrawn; the
    # accepted draws are fixed, and the benchmark's inputs depend on them
    pinned = {
        (1, 1): [((1, -1), (0, 1)), ((1, 0), (-1, 1)), ((1, 1), (0, -1)),
                 ((0, 1), (1, 0)), ((1, -1), (0, -1))],
        (2, 1): [((1, -1, 0), (0, 0, 1)), ((0, 1, 1), (1, 1, -1)),
                 ((1, 1, 0), (0, 0, 1)), ((0, 1, 1), (1, 0, 0)),
                 ((1, -1, 1), (0, -1, 0))],
        (3, 2): [((1, -1, 0, 1), (1, 0, -1, 1)), ((0, 1, 1, -2), (-2, -2, 1, -1)),
                 ((0, 2, -1, 0), (-2, -2, -1, 1)), ((1, -1, -1, 1), (1, 2, 2, -1)),
                 ((2, -1, 0, 0), (2, 1, 1, 2))],
    }
    for (d, h), forms in pinned.items():
        rng = random.Random(29)
        assert [(m.F0, m.F1) for m in (random_map_qq(d, h, rng) for _ in forms)] == forms


def test_random_maps_reject_degenerate_input():
    # these used to redraw forever; they fail before the first draw
    rng = random.Random(46)
    state = rng.getstate()
    for d, h in ((0, 5), (-1, 5), (3, 0), (3, -2)):
        with pytest.raises(ValueError):
            random_map_qq(d, h, rng)
    for d in (0, -1):
        with pytest.raises(ValueError):
            random_map_ff(GF(5), d, rng)
    assert rng.getstate() == state


def test_map_to_str_reparses():
    s = Z2.to_str()
    assert "z" in s
    phi = _zmap((0, 2, 1), (-1, -2))
    assert "/" in phi.to_str()
