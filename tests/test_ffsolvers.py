"""Automorphism and conjugation solvers over finite fields."""

import itertools
import random

from autconj.finitefield import GF, ExtensionField
from autconj.ffsolvers import (
    _aut_ff_fixed_points,
    _invariant_form,
    _orbit_table,
    aut_exhaustive,
    aut_ff,
    aut_fixed_points,
    aut_order_p,
    conj_exhaustive,
    conj_ff,
    conj_invariant_sets,
    types_rule_out_conjugacy,
)
from autconj.factor import form_distinct_root_count, roots_ff
from autconj.groups import group_structure, is_closed
from autconj.poly import dehom, form_degree, pstrip
from autconj.projline import (
    Mobius,
    RatMap,
    conjugate_map,
    infinity,
    is_automorphism,
    is_conjugating,
    random_map_ff,
)


def _zmap(K, num, den):
    return RatMap.from_rational_function(K, num, den)


def test_exhaustive_z2_small_fields():
    K2 = GF(2)
    els = aut_exhaustive(_zmap(K2, (0, 0, 1), (1,)))
    # all of PGL2(F_2): z^2 is fixed by everything when q = 2
    assert len(els) == 6
    assert group_structure(els) == "D6"
    K5 = GF(5)
    els5 = aut_exhaustive(_zmap(K5, (0, 0, 1), (1,)))
    assert [m.t for m in els5] == [(0, 1, 1, 0), (1, 0, 0, 1)]


def test_exhaustive_z3_f3_full_pgl2():
    K = GF(3)
    els = aut_exhaustive(_zmap(K, (0, 0, 0, 1), (1,)))
    assert len(els) == 24
    assert group_structure(els) == "S4"


def test_exhaustive_ceiling():
    K = GF(101)
    phi = _zmap(K, (0, 0, 1), (1,))
    try:
        aut_exhaustive(phi)
        assert False
    except ValueError:
        pass


def test_every_exhaustive_element_verifies():
    rng = random.Random(51)
    for p in (2, 3, 5, 7):
        K = GF(p)
        for _ in range(8):
            phi = random_map_ff(K, rng.randrange(2, 5), rng)
            els = aut_exhaustive(phi)
            assert is_closed(els)
            for s in els:
                assert is_automorphism(s, phi)


def _pgl2(K):
    """All of PGL2(K), straight from the nonsingular 4-tuples."""
    els = list(K.elements())
    return {Mobius(K, a, b, c, d) for a, b, c, d in itertools.product(els, repeat=4)
            if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero}


def _conj_oracle(group, phi, psi):
    return {s.t for s in group if is_conjugating(s, phi, psi)}


def _orbits(phi):
    K = phi.K
    pts = [(e, K.one) for e in K.elements()] + [infinity(K)]
    _, heads, sigs = _orbit_table(phi, pts)
    return max(len(h) for h in heads.values()), set(sigs.values())


def test_exhaustive_matches_brute_force_oracle():
    rng = random.Random(67)
    for K in (GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2)):
        group = _pgl2(K)
        assert len(group) == K.order * (K.order ** 2 - 1)
        for _ in range(2):
            phi = random_map_ff(K, rng.randrange(2, 5), rng)
            f = rng.choice(sorted(group, key=Mobius.sort_key))
            psi = conjugate_map(phi, f)
            other = random_map_ff(K, phi.d, rng)
            for target in (phi, psi, other):
                want = _conj_oracle(group, phi, target)
                assert {m.t for m in conj_exhaustive(phi, target)} == want, (K, phi, target)


def test_exhaustive_every_head_length():
    # the longest forward head has 1, 2 and 3 points: orbits pin one, two
    # and three points of the triple, the rest range over their signature
    K3, K2, K5 = GF(3), GF(2), GF(5)
    cases = [
        (_zmap(K3, (0, 0, 0, 1), (1,)), 1),   # z^3 fixes all of P^1(F_3)
        (_zmap(K2, (1,), (0, 0, 1)), 2),      # 1/z^2 swaps 0 and infinity
        (_zmap(K5, (1, 0, 1), (1,)), 3),      # z^2 + 1: 0 -> 1 -> 2
    ]
    for phi, longest in cases:
        assert _orbits(phi)[0] == longest
        group = _pgl2(phi.K)
        f = max(group, key=Mobius.sort_key)
        psi = conjugate_map(phi, f)
        for target in (phi, psi):
            want = _conj_oracle(group, phi, target)
            assert want
            assert {m.t for m in conj_exhaustive(phi, target)} == want
    assert len(conj_exhaustive(cases[0][0], cases[0][0])) == 24


def test_exhaustive_same_types_not_conjugate():
    # the fixed-point factorization types agree, but phi has a point
    # signature that psi lacks, so the scan has no target to pin
    K = GF(7)
    phi = _zmap(K, (1, 3, 1), (0, 4, 1))
    psi = _zmap(K, (1,), (4, 6, 2))
    assert types_rule_out_conjugacy(phi, psi) is None
    assert _orbits(phi)[1] - _orbits(psi)[1]
    assert conj_exhaustive(phi, psi) == []
    assert _conj_oracle(_pgl2(K), phi, psi) == set()
    res = conj_ff(phi, psi)
    assert res.algorithm == "exhaustive" and not res.is_conjugate


def test_aut_order_p_examples():
    K3 = GF(3)
    z3 = _zmap(K3, (0, 0, 0, 1), (1,))
    got = {m.t for m in aut_order_p(z3)}
    want = {m.t for m in aut_exhaustive(z3) if m.order() == 3}
    assert got == want and got
    K5 = GF(5)
    assert aut_order_p(_zmap(K5, (0, 0, 1), (1,))) == []  # 5 does not divide 6
    K2 = GF(2)
    got2 = aut_order_p(_zmap(K2, (0, 0, 1), (1,)))
    assert len(got2) == 3
    for s in got2:
        assert s.order() == 2


def test_fixed_point_engine_catches_tame_part():
    # over F5 the map z^2 has aut {z, 1/z}, all of it tame
    K5 = GF(5)
    z2 = _zmap(K5, (0, 0, 1), (1,))
    els = aut_fixed_points(z2)
    assert {m.t for m in els} == {(0, 1, 1, 0), (1, 0, 0, 1)}


def test_union_matches_exhaustive_small_battery():
    rng = random.Random(53)
    for p in (2, 3, 5, 7, 11, 13):
        K = GF(p)
        for _ in range(6):
            d = rng.randrange(2, 5)
            phi = random_map_ff(K, d, rng)
            ex = {m.t for m in aut_exhaustive(phi)}
            fp = {m.t for m in _aut_ff_fixed_points(phi)}
            assert fp == ex, (p, phi.F0, phi.F1)


def test_invariant_sets_matches_exhaustive_small_battery():
    rng = random.Random(55)
    for p in (3, 5, 7, 11):
        K = GF(p)
        for _ in range(5):
            d = rng.randrange(2, 5)
            phi = random_map_ff(K, d, rng)
            ex = {m.t for m in aut_exhaustive(phi)}
            _, rational, reason = conj_invariant_sets(phi, phi)
            assert reason == ""
            assert {m.t for m in rational} == ex, (p, phi.F0, phi.F1)


def test_invariant_form_pullback():
    # z^2 + 3 over F11 has one rational fixed point (z = 6, doubled) plus
    # infinity; one pullback stage grows the set to {5, 6, infinity}
    K = GF(11)
    phi = _zmap(K, (3, 0, 1), (1,))
    R, counts = _invariant_form(phi)
    assert counts[-1] >= 3
    assert form_distinct_root_count(K, R) == 3
    g = dehom(K, R)
    assert {r for r, _ in roots_ff(K, g)} == {K.from_int(5), K.from_int(6)}
    # infinity is in the set: the form has a factor of Y
    assert form_degree(R) > len(pstrip(K, R)) - 1


def test_invariant_form_immediate_when_big_enough():
    # z^2 over F5 already has three rational fixed points 0, 1, infinity
    K = GF(5)
    R, counts = _invariant_form(_zmap(K, (0, 0, 1), (1,)))
    assert counts == (3,)
    assert {r for r, _ in roots_ff(K, dehom(K, R))} == {K.zero, K.one}


def test_types_rule_out():
    K = GF(5)
    z2 = _zmap(K, (0, 0, 1), (1,))
    z2p1 = _zmap(K, (1, 0, 1), (1,))
    assert types_rule_out_conjugacy(z2, z2) is None
    assert types_rule_out_conjugacy(z2, z2p1) == "factorization type mismatch"
    # the pretest never rules out genuinely conjugate pairs
    rng = random.Random(57)
    for p in (3, 5, 7):
        Kp = GF(p)
        for _ in range(8):
            phi = random_map_ff(Kp, rng.randrange(2, 4), rng)
            while True:
                a, b, c, d = (Kp.random_element(rng) for _ in range(4))
                if Kp.sub(Kp.mul(a, d), Kp.mul(b, c)) != Kp.zero:
                    break
            psi = conjugate_map(phi, Mobius(Kp, a, b, c, d))
            assert types_rule_out_conjugacy(phi, psi) is None


def test_conj_exhaustive_coset():
    rng = random.Random(59)
    K = GF(7)
    for _ in range(10):
        phi = random_map_ff(K, rng.randrange(2, 4), rng)
        while True:
            a, b, c, d = (K.random_element(rng) for _ in range(4))
            if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
                break
        f = Mobius(K, a, b, c, d)
        psi = conjugate_map(phi, f)
        conj = conj_exhaustive(phi, psi)
        aut = aut_exhaustive(phi)
        assert len(conj) == len(aut)
        assert f.t in {m.t for m in conj}
        for s in conj:
            assert is_conjugating(s, phi, psi)
        # coset property: conj = f o aut
        assert {m.t for m in conj} == {f.compose(s).t for s in aut}


def test_conj_ff_type_filter_reason():
    K = GF(5)
    res = conj_ff(_zmap(K, (0, 0, 1), (1,)), _zmap(K, (1, 0, 1), (1,)))
    assert res.elements == ()
    assert not res.is_conjugate
    assert res.reason == "factorization type mismatch"


def test_conj_ff_auto_small_field_is_exhaustive():
    K = GF(5)
    z2 = _zmap(K, (0, 0, 1), (1,))
    res = conj_ff(z2, z2)
    assert res.algorithm == "exhaustive"
    assert [m.t for m in res.elements] == [(0, 1, 1, 0), (1, 0, 0, 1)]


def test_conj_ff_large_field_uses_invariant_sets():
    K = GF(101)
    z2 = _zmap(K, (0, 0, 1), (1,))
    res = conj_ff(z2, z2)
    assert res.algorithm == "invariant-sets"
    assert {m.t for m in res.elements} == {(0, 1, 1, 0), (1, 0, 0, 1)}
    # witnessed conjugate pair over the same large field
    rng = random.Random(61)
    phi = random_map_ff(K, 3, rng)
    while True:
        a, b, c, d = (K.random_element(rng) for _ in range(4))
        if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
            break
    f = Mobius(K, a, b, c, d)
    psi = conjugate_map(phi, f)
    res2 = conj_ff(phi, psi)
    assert res2.is_conjugate
    assert f.t in {m.t for m in res2.elements}
    for s in res2.elements:
        assert is_conjugating(s, phi, psi)


def test_aut_ff_dispatch_and_agreement():
    K = GF(13)
    rng = random.Random(63)
    for _ in range(6):
        phi = random_map_ff(K, rng.randrange(2, 5), rng)
        auto = aut_ff(phi)
        assert auto.algorithm == "exhaustive"
        fp = aut_ff(phi, algorithm="fixed-points")
        inv = aut_ff(phi, algorithm="invariant-sets")
        base = {m.t for m in auto.elements}
        assert {m.t for m in fp.elements} == base
        assert {m.t for m in inv.elements} == base
        assert auto.group == fp.group == inv.group


def test_aut_ff_wild_cases():
    # d = p = 5: the wild (order-p) part matters
    K5 = GF(5)
    r5 = aut_ff(_zmap(K5, (0, 0, 0, 0, 0, 2), (1,)))
    assert len(r5.elements) == 4 and r5.group == "C4"
    K7 = GF(7)
    r7 = aut_ff(_zmap(K7, (0, 0, 0, 0, 0, 2), (1,)))
    assert len(r7.elements) == 4 and r7.group == "D4"
    K2 = GF(2)
    r2 = aut_ff(_zmap(K2, (0, 0, 1), (1,)))
    assert len(r2.elements) == 6 and r2.group == "D6"
    K3 = GF(3)
    r3 = aut_ff(_zmap(K3, (0, 0, 0, 1), (1,)))
    assert len(r3.elements) == 24 and r3.group == "S4"


def test_aut_over_quadratic_extension():
    K = GF(5, 2)
    # z^3: the square roots of unity act, plus the inversion
    phi = RatMap(K, [K.from_int(c) for c in (0, 0, 0, 1)], [K.from_int(c) for c in (1, 0, 0, 0)])
    ex = aut_ff(phi, algorithm="exhaustive")
    fp = aut_ff(phi, algorithm="fixed-points")
    assert {m.t for m in ex.elements} == {m.t for m in fp.elements}
    assert len(ex.elements) == 4 and ex.group == "D4"
    # z^2 keeps only {z, 1/z} whatever the field
    z2 = RatMap(K, [K.from_int(c) for c in (0, 0, 1)], [K.from_int(c) for c in (1, 0, 0)])
    assert len(aut_ff(z2, algorithm="exhaustive").elements) == 2


def test_extension_random_agreement():
    rng = random.Random(65)
    K = GF(3, 2)
    for _ in range(6):
        phi = random_map_ff(K, rng.randrange(2, 4), rng)
        ex = {m.t for m in aut_exhaustive(phi)}
        fp = {m.t for m in _aut_ff_fixed_points(phi)}
        assert fp == ex


def test_conj_different_fields_rejected():
    z2a = _zmap(GF(5), (0, 0, 1), (1,))
    z2b = _zmap(GF(7), (0, 0, 1), (1,))
    try:
        conj_ff(z2a, z2b)
        assert False
    except ValueError:
        pass


def test_conj_degree_mismatch_empty():
    K = GF(5)
    res = conj_exhaustive(_zmap(K, (0, 0, 1), (1,)), _zmap(K, (0, 0, 0, 1), (1,)))
    assert res == []
