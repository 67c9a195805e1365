"""Automorphism and conjugation solvers over Q: fixed points and CRT lifting."""

import itertools
import math
import random
from fractions import Fraction

from autconj.cli import parse_map
from autconj.domains import QQ
from autconj.ffsolvers import _invariant_form, aut_ff, aut_fixed_points
from autconj.groups import is_closed
from autconj.projline import Mobius, RatMap, conjugate_map, is_automorphism, is_conjugating, random_map_qq
from autconj.qqsolvers import (
    ORDER_CLASSES,
    _good_primes,
    _order_bound,
    _order_classes,
    aut_qq,
    conj_qq,
    conjugacy_height_bound,
)


def _zmap(num, den):
    return RatMap.from_rational_function(QQ, num, den)


Z2 = _zmap((0, 0, 1), (1,))
Z3 = _zmap((0, 0, 0, 1), (1,))
TWO_Z5 = _zmap((0, 0, 0, 0, 0, 2), (1,))

def _tset(*rows):
    return {Mobius(QQ, *r).t for r in rows}


# aut = {z, -z/(z+1), 1/z, -z-1, (-z-1)/z, -1/(z+1)} for the degree-2 map below
SIX = _zmap((0, 2, 1), (-1, -2))
SIX_SET = _tset(
    (1, 0, 0, 1),
    (-1, 0, 1, 1),
    (0, 1, 1, 0),
    (-1, -1, 0, 1),
    (-1, -1, 1, 0),
    (0, -1, 1, 1),
)

C4 = _zmap((7, -3, -21, 1), (1, 21, -3, -7))
C4_SET = _tset((1, 0, 0, 1), (0, -1, 1, 0), (1, -1, 1, 1), (-1, -1, 1, -1))
MINUS_SET = _tset((1, 0, 0, 1), (-1, 0, 0, 1))


def test_invariant_int_form():
    # over Q the invariant set form is a primitive integer form
    f, counts = _invariant_form(Z2)
    # the fixed points 0, 1, infinity give XY(X - Y) up to sign
    assert counts == (3,)
    assert f in ((0, 1, -1, 0), (0, -1, 1, 0)) and all(type(c) is int for c in f)
    assert _invariant_form(_zmap((0, 0, 1), (1,)))[0] == f
    # z^2 + 1/4 has two fixed points, 1/2 (twice) and infinity, so the
    # set is pulled back once
    g, counts = _invariant_form(_zmap((1, 0, 4), (4,)))
    assert counts[0] == 2 and counts[-1] >= 3 and all(type(c) is int for c in g)


def test_height_bound_small_maps():
    assert conjugacy_height_bound(Z2) == 48
    assert conjugacy_height_bound(Z3) == 48


def test_aut_fixed_points_six_elements():
    res = aut_qq(SIX, algorithm="fixed-points")
    assert {m.t for m in res.elements} == SIX_SET
    assert res.group == "D6"
    assert res.algorithm == "fixed-points"


def test_aut_fixed_points_c4():
    res = aut_qq(C4, algorithm="fixed-points")
    assert {m.t for m in res.elements} == C4_SET
    assert res.group == "C4"


def test_aut_two_z5():
    res = aut_qq(TWO_Z5)
    assert {m.t for m in res.elements} == MINUS_SET
    assert res.group == "C2"


def test_aut_crt_matches_fixed_points():
    for phi, want in ((SIX, SIX_SET), (C4, C4_SET), (TWO_Z5, MINUS_SET)):
        res = aut_qq(phi, algorithm="crt")
        assert {m.t for m in res.elements} == want
        assert res.algorithm == "crt"
        assert res.primes and res.fibers
        assert len(res.primes) == len(res.fibers)
        assert res.height_bound >= max(m.height() for m in res.elements)


def test_aut_crt_monomial_with_bad_primes():
    # 345025251 = 3^5 * 17^5; the nontrivial automorphism is z -> 1/(2601 z)
    phi = _zmap((0, 0, 0, 0, 0, 0, 345025251), (1,))
    res = aut_qq(phi, algorithm="crt")
    assert {m.t for m in res.elements} == {(1, 0, 0, 1), (0, 1, 2601, 0)}
    assert res.group == "C2"
    for p in res.primes:
        assert p not in (2, 3, 17)


def test_good_primes_skip_divisors_of_the_resultant():
    big = _zmap((0, 0, 0, 0, 0, 0, 345025251), (1,))  # 3^5 * 17^5
    assert list(itertools.islice(_good_primes([big]), 5)) == [5, 7, 11, 13, 19]
    assert list(itertools.islice(_good_primes([TWO_Z5, big]), 5)) == [5, 7, 11, 13, 19]
    # the resultant (2^61 - 1)^2 (2^89 - 1)^2 has only large prime factors,
    # so no small prime is bad
    n = (2**61 - 1) * (2**89 - 1)
    hard = _zmap((0, 0, n), (1,))
    assert list(itertools.islice(_good_primes([hard]), 5)) == [5, 7, 11, 13, 17]


def test_order_bound_matches_divisor_scan():
    # the largest D dividing the gcd G of the fiber sizes, a multiple of the
    # order found so far and at most 1 + caps, found by scanning 1..G
    rng = random.Random(24)
    for _ in range(400):
        g_order = rng.choice((1, 2, 3, 4, 6, 8, 12, 24))
        fibers = [(p, [None] * (g_order * rng.randrange(1, 30)))
                  for p in (5, 7, 11)[:rng.randrange(1, 4)]]
        counts = [[rng.randrange(0, 20) for _ in ORDER_CLASSES] for _ in fibers]
        G = math.gcd(*(len(fib) for _, fib in fibers))
        caps = sum(min(col) for col in zip(*counts))
        scan = [D for D in range(1, G + 1)
                if G % D == 0 and D % g_order == 0 and D <= 1 + caps]
        assert _order_bound(fibers, counts, g_order) == max(scan + [g_order])


def test_aut_elements_verify_and_close():
    for phi in (SIX, C4, TWO_Z5):
        res = aut_qq(phi)
        for s in res.elements:
            assert is_automorphism(s, phi)
        assert is_closed(list(res.elements))


def test_aut_auto_dispatch():
    assert aut_qq(Z2).algorithm == "fixed-points"
    deg21 = _zmap((0,) * 21 + (1,), (1,))
    # degree above the fixed-point comfort zone falls back to CRT
    assert aut_qq(deg21).algorithm == "crt"


def test_aut_rejects_finite_field_input():
    from autconj.finitefield import GF

    K = GF(5)
    phi = RatMap.from_rational_function(K, (0, 0, 1), (1,))
    try:
        aut_qq(phi)
        assert False
    except TypeError:
        pass


def test_aut_random_crt_agrees_with_fixed_points():
    rng = random.Random(67)
    for _ in range(10):
        d = rng.randrange(2, 5)
        phi = random_map_qq(d, 20, rng)
        a = aut_qq(phi, algorithm="fixed-points")
        b = aut_qq(phi, algorithm="crt")
        assert {m.t for m in a.elements} == {m.t for m in b.elements}


def test_conj_is_coset_of_aut():
    f = Mobius(QQ, 1, 2, 1, 1)
    psi = conjugate_map(SIX, f)
    res = conj_qq(SIX, psi)
    assert res.is_conjugate
    aut = aut_qq(SIX)
    assert len(res.elements) == len(aut.elements)
    for s in res.elements:
        assert is_conjugating(s, SIX, psi)
    got = {m.t for m in res.elements}
    want = {f.compose(a).t for a in aut.elements}
    assert got == want


def test_conj_twist_of_z3():
    f = Mobius(QQ, 3, -7, 5, -1)
    psi = conjugate_map(Z3, f)
    res = conj_qq(Z3, psi)
    assert res.is_conjugate
    assert len(res.elements) == 4
    for s in res.elements:
        assert is_conjugating(s, Z3, psi)
    assert f.t in {m.t for m in res.elements}


def test_conj_rules_out_z2_vs_z2_plus_1():
    psi = _zmap((1, 0, 1), (1,))
    res = conj_qq(Z2, psi)
    assert not res.is_conjugate
    assert res.elements == ()
    assert res.reason


def test_conj_degree_mismatch():
    res = conj_qq(Z2, Z3)
    assert not res.is_conjugate
    assert res.reason


def test_conj_self_is_aut():
    res = conj_qq(Z3, Z3)
    aut = aut_qq(Z3)
    assert {m.t for m in res.elements} == {m.t for m in aut.elements}


def test_conj_respects_height_bound():
    f = Mobius(QQ, 1, 2, 1, 1)
    psi = conjugate_map(SIX, f)
    res = conj_qq(SIX, psi)
    assert res.height_bound is not None
    for s in res.elements:
        assert s.height() <= res.height_bound


def test_good_reduction_lands_in_fiber():
    res = aut_qq(SIX)
    for p in (5, 7, 11):
        assert SIX.is_good_prime(p)
        fib = {m.t for m in aut_fixed_points(SIX.reduce_mod_p(p))}
        for s in res.elements:
            sp = Mobius(SIX.reduce_mod_p(p).K, *[c % p for c in s.coeff_ints()])
            assert sp.t in fib


# twisted power maps z^k as (k, twist coefficients), and battery rows
TWISTS = [
    (3, (3, -7, 5, -1)), (-3, (-3, 0, -3, -4)), (6, (7, 10, -3, 8)),
    (-6, (-7, -7, -3, 1)), (9, (1, -8, 4, -10)), (-9, (8, 1, -2, 9)),
    (12, (-2, -10, 4, 1)), (-12, (-3, 0, -5, 1)), (15, (1, 9, -1, 1)),
    (-15, (-4, -1, 8, -8)), (18, (1, 10, 5, 10)), (-18, (2, -5, 0, 3)),
]
BATTERY = [
    "(z^2+2*z)/(-2*z-1)",
    "(z^2-4*z-3)/(-3*z^2-2*z+2)",
    "(z^5+5*z^4-20*z^3+10*z^2+5*z-2)/(2*z^5-5*z^4-10*z^3+20*z^2-5*z-1)",
    "(z^5-5*z^4+10*z^2-5*z)/(-5*z^4+10*z^3-5*z+1)",
    "(z^5-20*z^4+30*z^3+10*z^2-20*z+3)/(-3*z^5-5*z^4+40*z^3-30*z^2-5*z+4)",
    "(3*z^2-1)/(z^3-3*z)",
    "(z^3-3*z)/(-3*z^2+1)",
    "(z^3-21*z^2-3*z+7)/(-7*z^3-3*z^2+21*z+1)",
    "(z^11+66*z^6-11*z)/(-11*z^10-66*z^5+1)",
    "345025251*z^6",
]


def _power_map(k):
    if k > 0:
        return _zmap((0,) * k + (1,), (1,))
    return _zmap((1,), (0,) * -k + (1,))


def _twist(k, fv):
    return conjugate_map(_power_map(k), Mobius(QQ, *fv))


def _random_twists(rng, count):
    """Power maps and battery rows with orders 3, 4 and 6 in Aut, each
    conjugated by a random Mobius map of small height."""
    out = []
    while len(out) < count:
        a, b, c, d = [rng.randint(-5, 5) for _ in range(4)]
        if a * d == b * c:
            continue
        f = Mobius(QQ, a, b, c, d)
        base = rng.choice([_power_map(rng.choice([-5, -4, -3, -2, 2, 3, 4, 5])),
                           parse_map(rng.choice(BATTERY[:8]), QQ)])
        out.append(conjugate_map(base, f))
    return out


def _good_small_primes(phi, top=31):
    return [p for p in (5, 7, 11, 13, 17, 19, 23, 29, 31) if p <= top and phi.is_good_prime(p)]


# the orders > 1 of rational Mobius maps, in the order of ORDER_CLASSES
RATIONAL_ORDERS = (2, 3, 4, 6)


def test_rational_elements_reduce_into_their_order_class():
    rng = random.Random(808)
    maps = [_twist(k, fv) for k, fv in TWISTS]
    maps += [parse_map(e, QQ) for e in BATTERY[:8]]
    maps += _random_twists(rng, 8)
    orders_seen = set()
    for phi in maps:
        els = aut_qq(phi, algorithm="fixed-points").elements
        for p in _good_small_primes(phi):
            fib = aut_ff(phi.reduce_mod_p(p)).elements
            classes = _order_classes(p, fib, {Mobius.identity(QQ)})
            for s in els:
                n = s.order()
                if n == 1:
                    continue
                orders_seen.add(n)
                assert s.reduce_mod_p(p).t in classes[RATIONAL_ORDERS.index(n)], (phi, s, p)
    assert orders_seen == set(RATIONAL_ORDERS)


def test_order_class_counts_are_order_counts():
    # _order_bound counts the classes in place of the orders 2, 3, 4, 6
    maps = [_twist(k, fv) for k, fv in TWISTS] + [parse_map(e, QQ) for e in BATTERY]
    for phi in maps:
        for p in _good_small_primes(phi):
            fib = aut_ff(phi.reduce_mod_p(p)).elements
            got = [len(c) for c in _order_classes(p, fib, ())]
            want = [sum(1 for s in fib if s.order() == n) for n in RATIONAL_ORDERS]
            assert got == want, (phi, p)


def test_order_classes_drop_other_orders_and_found_elements():
    # twisted z^12 mod 23 has 22 automorphisms: the identity, 10 of order
    # 11, which no rational Mobius map has, and 11 involutions
    phi = _twist(12, (-2, -10, 4, 1))
    assert phi.is_good_prime(23)
    fib = aut_ff(phi.reduce_mod_p(23)).elements
    assert len(fib) == 22
    assert sum(1 for s in fib if s.order() == 11) == 10
    classes = _order_classes(23, fib, {Mobius.identity(QQ)})
    assert len(classes) == len(ORDER_CLASSES)
    assert sorted(classes[0]) == sorted(s.t for s in fib if s.order() == 2)
    assert len(classes[0]) == 11 and not any(classes[1:])
    # the residue of an element already found is dropped
    aut = aut_qq(phi, algorithm="fixed-points").elements
    assert len(aut) == 2
    after = _order_classes(23, fib, set(aut))
    assert len(after[0]) == 10
    assert all(s.reduce_mod_p(23).t in classes[0] and s.reduce_mod_p(23).t not in after[0]
               for s in aut if not s.is_identity())


def test_aut_ff_fibers_match_fixed_points():
    # the CRT engine's fiber source against the fixed-point engine mod p,
    # over the exhaustive scan (p <= 31) and invariant sets (p = 101)
    maps = [_twist(k, fv) for k, fv in TWISTS if abs(k) <= 12]
    maps += [parse_map(e, QQ) for e in BATTERY]
    for phi in maps:
        primes = _good_small_primes(phi) + [next(p for p in (101, 103, 107) if phi.is_good_prime(p))]
        for p in primes:
            phi_p = phi.reduce_mod_p(p)
            res = aut_ff(phi_p)
            assert res.algorithm == ("exhaustive" if p <= 31 else "invariant-sets")
            assert set(res.elements) == set(aut_fixed_points(phi_p)), (phi, p)
