"""Polynomial factorization over finite fields and partial factorization over Q."""

import random
from fractions import Fraction

from autconj import factor
import autconj.poly as P
from autconj.domains import QQ
from autconj.factor import (
    _exact_divides,
    factor_ff,
    factorization_type,
    form_factorization_type,
    form_radical,
    roots_ff,
    small_factors_qq,
    squarefree_decomposition,
    squarefree_part_qq,
    stem_root,
)
from autconj.finitefield import GF, ExtensionField, _is_irreducible_over_prime
from autconj.projline import form_rational_roots


def _rand_monic(K, deg, rng):
    return tuple(K.random_element(rng) for _ in range(deg)) + (K.one,)


def test_factor_ff_examples():
    K = GF(5)
    # x^2 - 1 = (x + 1)(x + 4)
    assert factor_ff(K, (4, 0, 1)) == [((1, 1), 1), ((4, 1), 1)]
    # x^2 + 1 = (x + 2)(x + 3), i.e. roots 3 and 2
    assert factor_ff(K, (1, 0, 1)) == [((2, 1), 1), ((3, 1), 1)]
    # x^2 + 2 stays irreducible
    assert factor_ff(K, (2, 0, 1)) == [((2, 0, 1), 1)]
    assert _is_irreducible_over_prime(K, (2, 0, 1))


def test_factor_ff_roundtrip():
    rng = random.Random(3)
    for p in (2, 3, 5, 13):
        K = GF(p)
        for _ in range(40):
            f = _rand_monic(K, rng.randrange(1, 8), rng)
            fac = factor_ff(K, f)
            prod = (K.one,)
            for g, m in fac:
                assert _is_irreducible_over_prime(K, g)
                assert g[-1] == K.one
                for _ in range(m):
                    prod = P.pmul(K, prod, g)
            assert prod == P.pmonic(K, f)


def test_factor_ff_brute_irreducibility():
    # enumerate all monic quadratics and cubics over tiny fields
    for p in (2, 3):
        K = GF(p)
        els = list(K.elements())
        for deg in (2, 3):
            def all_polys(d):
                if d == 0:
                    yield ()
                    return
                for rest in all_polys(d - 1):
                    for c in els:
                        yield (c,) + rest
            for tail in all_polys(deg):
                f = tail + (K.one,)
                has_root = any(P.peval(K, f, x) == K.zero for x in els)
                if deg == 2:
                    want = not has_root
                else:
                    want = not has_root  # cubic reducible iff it has a root
                assert _is_irreducible_over_prime(K, f) == want, f


def test_roots_ff_examples():
    K5 = GF(5)
    assert roots_ff(K5, (4, 0, 1)) == [(1, 1), (4, 1)]
    assert roots_ff(K5, (1, 0, 1)) == [(2, 1), (3, 1)]
    assert roots_ff(K5, (2, 0, 1)) == []
    K3 = GF(3)
    assert roots_ff(K3, (0, 2, 0, 1)) == [(0, 1), (1, 1), (2, 1)]


def test_roots_ff_multiplicity():
    K = GF(7)
    # (x - 1)^2 (x - 3)
    f = P.pmul(K, P.pmul(K, (6, 1), (6, 1)), (4, 1))
    assert roots_ff(K, f) == [(1, 2), (3, 1)]


def _irreducible(K, k, rng):
    while True:
        f = _rand_monic(K, k, rng)
        if [(P.pdeg(g), m) for g, m in factor_ff(K, f)] == [(k, 1)]:
            return f


def test_stem_root_is_a_root(monkeypatch):
    # h irreducible of degree k = [E : K] over K splits over E, in odd and
    # even characteristic, over prime and extension fields; the degree-6
    # stem fields over F_2 leave gcds of degree 2 and 3 for the
    # Cantor-Zassenhaus split
    splits = []
    split = factor._split

    def counted(*args):
        splits.append(args)
        return split(*args)

    monkeypatch.setattr(factor, "_split", counted)
    rng = random.Random(13)
    cases = [(GF(p, e), k) for p, e in ((2, 1), (3, 1), (5, 1), (7, 1), (101, 1), (2, 2),
                                         (2, 3), (3, 2), (5, 2), (13, 2))
             for k in (2, 3, 4) if p**(e * k) < 10**9]
    cases += [(GF(2), 6)] * 6
    for K, k in cases:
        for _ in range(2):
            E = ExtensionField(K, _irreducible(K, k, rng))
            h = _irreducible(K, k, rng)
            b = stem_root(E, h)
            assert P.peval(E, tuple(E.embed(c) for c in h), b) == E.zero, (K, k)
        # the stem field's own modulus has the generator among its roots
        assert P.peval(E, tuple(E.embed(c) for c in E.modulus), stem_root(E, E.modulus)) == E.zero
    assert splits


def test_factorization_type():
    K = GF(7)
    assert factorization_type(K, (1, 5, 1)) == ((1, 2),)
    K5 = GF(5)
    # x^2 + 1 splits; x^2 + 2 is inert
    assert factorization_type(K5, (1, 0, 1)) == ((1, 1), (1, 1))
    assert factorization_type(K5, (2, 0, 1)) == ((2, 1),)


def test_squarefree_decomposition():
    rng = random.Random(5)
    for p in (2, 3, 5):
        K = GF(p)
        for _ in range(30):
            f = _rand_monic(K, rng.randrange(1, 6), rng)
            parts = squarefree_decomposition(K, f)
            prod = (K.one,)
            for m, g in parts.items():
                # each part is squarefree: gcd(g, g') = 1
                d = P.pgcd(K, g, P.pderiv(K, g))
                assert P.pdeg(d) == 0
                for _ in range(m):
                    prod = P.pmul(K, prod, g)
            assert prod == P.pmonic(K, f)


def test_factors_up_to_agrees_with_full_factorization():
    rng = random.Random(7)
    for p in (3, 5, 11):
        K = GF(p)
        for _ in range(30):
            f = _rand_monic(K, rng.randrange(2, 9), rng)
            for bound in (1, 2):
                got = sorted(factor_ff(K, f, bound=bound))
                want = sorted((g, m) for g, m in factor_ff(K, f) if P.pdeg(g) <= bound)
                assert got == want, (p, f, bound)


def test_form_radical_and_types():
    K5 = GF(5)
    # XY(Y - X): three distinct roots 0, 1 (wait: Y - X vanishes at (1:1)), infinity
    F = (0, 1, -1 % 5, 0)
    assert form_factorization_type(K5, F) == ((1, 1), (1, 1), (1, 1))
    # the radical's declared degree counts the distinct roots, infinity included
    rad = form_radical(K5, F)
    assert P.pdeg(rad) == 3
    assert P.pdeg(form_radical(K5, rad)) == 3
    # Y * (X^2 - XY + Y^2): the quadratic has no root mod 5
    G = P.form_mul(K5, (1, 0), (1, -1 % 5, 1))
    assert form_factorization_type(K5, G) == ((1, 1), (2, 1))
    # (x - 1)^2 as a degree-2 form over F7
    K7 = GF(7)
    H = (1, -2 % 7, 1)
    assert form_factorization_type(K7, H) == ((1, 2),)
    assert P.pdeg(form_radical(K7, H)) == 1


def test_form_radical_drops_multiplicity():
    K = GF(7)
    rng = random.Random(9)
    for _ in range(30):
        # build a form with a planted square factor
        a = K.random_element(rng)
        lin = (a, K.one)
        g = tuple(K.random_element(rng) for _ in range(3))
        if not any(x != K.zero for x in g):
            continue
        F = P.form_mul(K, P.form_mul(K, lin, lin), g)
        rad = form_radical(K, F)
        ftype = form_factorization_type(K, rad)
        assert all(m == 1 for _, m in ftype)


def test_small_factors_qq_examples():
    lin, quad = small_factors_qq((-1, 0, 0, 0, 1))
    assert lin == [(Fraction(-1), Fraction(1)), (Fraction(1), Fraction(1))]
    assert quad == [(Fraction(1), Fraction(0), Fraction(1))]
    lin, quad = small_factors_qq((-2, 0, 0, 1))
    assert lin == [] and quad == []
    lin, quad = small_factors_qq((-1, 0, 0, 0, 0, 1))
    assert lin == [(Fraction(-1), Fraction(1))] and quad == []


def test_small_factors_qq_planted():
    rng = random.Random(11)
    for _ in range(25):
        # plant (x - r)(x^2 + c) with c > 0 (no real root, certainly irreducible
        # when c is not a perfect square times anything rational: keep c prime)
        r = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        c = rng.choice([2, 3, 5, 7])
        lin_f = (-r, Fraction(1))
        quad_f = (Fraction(c), Fraction(0), Fraction(1))
        f = P.pmul(QQ, lin_f, quad_f)
        cub = tuple(rng.randrange(1, 5) for _ in range(2)) + (1,)
        f = P.pmul(QQ, f, cub) if P.pdeg(P.pgcd(QQ, f, cub)) <= 0 else f
        lin, quad = small_factors_qq(f)
        assert any(P.pmod(QQ, f, g) == () for g in lin)
        assert lin_f in [P.pmonic(QQ, g) for g in lin]
        assert quad_f in [P.pmonic(QQ, g) for g in quad]


def test_small_factors_divide_input():
    rng = random.Random(13)
    for _ in range(30):
        f = tuple(Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(3, 8)))
        f = P.pstrip(QQ, f)
        if P.pdeg(f) < 1:
            continue
        lin, quad = small_factors_qq(f)
        for g in lin + quad:
            assert P.pmod(QQ, f, g) == ()


def _affine_roots_qq(f):
    return [x for x, _ in form_rational_roots(QQ, f)]


def test_exact_divides_matches_rational_division():
    # oracle: the remainder of the division over Q
    rng = random.Random(41)

    def rand_int_poly(deg, h):
        f = [rng.randint(-h, h) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(1, h)]
        return P.primitive(f)

    def oracle(c, F):
        fq = tuple(Fraction(x) for x in F)
        return not P.pdivmod(QQ, fq, tuple(Fraction(x) for x in c))[1]

    for _ in range(150):
        g = rand_int_poly(rng.randrange(1, 4), 9)
        h = rand_int_poly(rng.randrange(0, 6), 20)
        F = tuple(P.pmul(QQ, g, h))
        assert _exact_divides(g, F) == P.pstrip(QQ, h) and oracle(g, F)
        for c in (rand_int_poly(rng.randrange(1, 4), 9), P.primitive(P.padd(QQ, g, (1,)))):
            q = _exact_divides(c, F)
            assert (q is not None) == oracle(c, F), (c, F)
            if q is not None:
                assert all(type(x) is int for x in q)
                assert P.pmul(QQ, c, q) == P.pstrip(QQ, F)
        # the lifted factors small_factors_qq tries divide its own input
        for lin in small_factors_qq(F)[0]:
            den = lin[0].denominator
            c = P.primitive((int(lin[0] * den), den))
            assert _exact_divides(c, F) is not None and oracle(c, F)


def test_form_rational_roots_over_q():
    assert _affine_roots_qq((0, -1, 1)) == [Fraction(0), Fraction(1)]
    assert _affine_roots_qq((1, 0, 1)) == []
    # 2x^2 - x - 1 = (2x + 1)(x - 1)
    assert _affine_roots_qq((-1, -1, 2)) == [Fraction(-1, 2), Fraction(1)]


def test_form_rational_roots_over_q_brute():
    rng = random.Random(15)
    for _ in range(30):
        f = tuple(rng.randrange(-8, 9) for _ in range(rng.randrange(2, 7)))
        f = P.pstrip(QQ, f)
        if P.pdeg(f) < 1:
            continue
        got = _affine_roots_qq(f)
        assert got == sorted(set(got))
        for r in got:
            assert P.peval(QQ, f, r) == 0
        # rational root theorem scan for candidates
        a0 = f[0]
        an = f[-1]
        if a0 != 0:
            cands = set()
            for p in range(1, abs(int(a0)) + 1):
                if a0 % p:
                    continue
                for q in range(1, abs(int(an)) + 1):
                    if an % q:
                        continue
                    cands.add(Fraction(p, q))
                    cands.add(Fraction(-p, q))
            cands.add(Fraction(0))
            roots = {r for r in cands if P.peval(QQ, f, r) == 0}
            assert set(got) == roots


def test_squarefree_part_qq():
    assert squarefree_part_qq((1, 2, 1)) == (1, 1)
    rng = random.Random(17)
    for _ in range(25):
        g = tuple(rng.randrange(-4, 5) for _ in range(3))
        if P.pdeg(P.pstrip(QQ, g)) < 1:
            continue
        h = tuple(rng.randrange(-4, 5) for _ in range(3))
        if P.pdeg(P.pstrip(QQ, h)) < 1:
            continue
        f = P.pmul(QQ, P.pmul(QQ, g, g), h)
        sf = squarefree_part_qq(f)
        # the squarefree part divides f and is killed by neither square
        assert P.pmod(QQ, f, sf) == ()
        d = P.pgcd(QQ, sf, P.pderiv(QQ, sf))
        assert P.pdeg(d) == 0


def test_form_radical_qq():
    # over Q the radical is a primitive integer form
    rad = form_radical(QQ, (0, 2, -2, 0))
    assert rad == (0, 1, -1, 0) and all(type(x) is int for x in rad)
    # (XY)^2 -> XY up to sign
    sq = (0, 0, 1, 0, 0)
    rad = form_radical(QQ, sq)
    assert rad in ((0, 1, 0), (0, -1, 0))
    assert form_radical(QQ, (Fraction(1, 2), 0, Fraction(-1, 2), 0)) == (1, 0, -1, 0)
