"""Automorphism and conjugation solvers over finite fields."""

import itertools
import random
import time

from autconj import ffsolvers
from autconj.finitefield import GF, ExtensionField, PrimeField
from autconj.ffsolvers import (
    _invariant_form,
    _orbit_table,
    aut_exhaustive,
    aut_ff,
    aut_fixed_points,
    conj_exhaustive,
    conj_ff,
    conj_invariant_sets,
    types_rule_out_conjugacy,
)
from autconj.factor import form_radical, roots_ff
from autconj.groups import group_structure, is_closed
from autconj.poly import dehom, pdeg, pstrip
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


# (p, phi, psi) of degree d = (p + 1)/2 that agree at every point of
# P^1(F_p) but differ: the identity passes every pointwise check, and only
# the exact identity rejects it
_POINTWISE_TWINS = (
    (3, ((1, 2, 2), (0, 2, 0)), ((1, 1, 2), (0, 1, 0))),
    (5, ((1, 3, 3, 1), (0, 2, 4, 0)), ((1, 3, 0, 3), (0, 3, 1, 0))),
    (7, ((1, 4, 5, 6, 0), (0, 3, 2, 0, 1)), ((1, 3, 5, 1, 0), (0, 2, 3, 6, 5))),
)


def test_exhaustive_pointwise_proof_matches_brute_force():
    # when q + 1 > 2d the scan checks 2d + 1 points and no exact identity;
    # d = 2..4 puts q + 1 on both sides of 2d, at q + 1 = 2d (GF(3) with
    # d = 2, GF(5) with d = 3, GF(7) with d = 4) and q + 1 = 2d + 1
    # (GF(2, 2) with d = 2)
    for p, forms_phi, forms_psi in _POINTWISE_TWINS:
        K = GF(p)
        phi, psi = RatMap(K, *forms_phi), RatMap(K, *forms_psi)
        pts = [(e, K.one) for e in K.elements()] + [infinity(K)]
        assert phi != psi and all(phi.apply(x) == psi.apply(x) for x in pts)
        want = _conj_oracle(_pgl2(K), phi, psi)
        assert {m.t for m in conj_exhaustive(phi, psi)} == want
    rng = random.Random(83)
    for K in (GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3)):
        group = _pgl2(K)
        ordered = sorted(group, key=Mobius.sort_key)
        for d in (2, 3, 4):
            phi = random_map_ff(K, d, rng)
            psi = conjugate_map(phi, rng.choice(ordered))
            for target in (phi, psi, random_map_ff(K, d, rng)):
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


def _order_p_part(phi):
    p = phi.K.char
    return [s for s in aut_fixed_points(phi) if s.order() == p]


def test_fixed_points_order_p_examples():
    K3 = GF(3)
    z3 = _zmap(K3, (0, 0, 0, 1), (1,))
    got = {m.t for m in _order_p_part(z3)}
    want = {m.t for m in aut_exhaustive(z3) if m.order() == 3}
    assert got == want and got
    K5 = GF(5)
    assert _order_p_part(_zmap(K5, (0, 0, 1), (1,))) == []  # 5 does not divide 6
    K2 = GF(2)
    got2 = _order_p_part(_zmap(K2, (0, 0, 1), (1,)))
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
            fp = {m.t for m in aut_fixed_points(phi)}
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


def _random_mobius(K, rng):
    while True:
        a, b, c, d = (K.random_element(rng) for _ in range(4))
        if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
            return Mobius(K, a, b, c, d)


def test_invariant_sets_matches_exhaustive_generated():
    # Aut, Conj(phi, f.phi) and Conj(phi, random psi), tame and wild fields
    rng = random.Random(71)
    fields = [GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3), GF(3, 2), GF(11),
              GF(13), GF(2, 4), GF(5, 2), GF(3, 3), GF(7, 2)]
    for K in fields:
        for d in (2, 3, 4, 5):
            phi = random_map_ff(K, d, rng)
            psi = conjugate_map(phi, _random_mobius(K, rng))
            for target in (phi, psi, random_map_ff(K, d, rng)):
                want = {m.t for m in conj_exhaustive(phi, target)}
                _, rational, reason = conj_invariant_sets(phi, target)
                assert {m.t for m in rational} == want, (K, phi, target)
                assert not (want and reason)


# one map per choice of source triple: ((p, numerator, denominator),
# degree of the stem field over F_p, |Aut|)
_SOURCE_CASES = {
    # 1/z^2 over F_7: fixed points the cube roots of unity 1, 2, 4
    "three rational points": ((7, (1,), (0, 0, 1)), 1, 6),
    # z^3/5 over F_7: fixed points 0, infinity and the pair z^2 = 5
    "rational point and quadratic pair": ((7, (0, 0, 0, 1), (5,)), 2, 4),
    # 1/(3z^3) over F_7: fixed points z^4 = 5, two quadratic pairs
    "two quadratic pairs": ((7, (1,), (0, 0, 0, 3)), 2, 4),
    # 1/(4z^2) over F_7: fixed points z^3 = 2, one cubic orbit
    "cubic orbit": ((7, (1,), (0, 0, 4)), 3, 3),
    # 1/(3z^3) over F_5: fixed points z^4 = 2, one quartic orbit
    "quartic orbit": ((5, (1,), (0, 0, 0, 3)), 4, 4),
}


def test_invariant_sets_source_cases():
    rng = random.Random(73)
    for name, ((p, num, den), k, order) in _SOURCE_CASES.items():
        K = GF(p)
        phi = _zmap(K, num, den)
        E, rational, reason = conj_invariant_sets(phi, phi)
        assert E.order == p**k, name
        assert len(rational) == order, name
        assert {m.t for m in rational} == {m.t for m in aut_exhaustive(phi)}, name
        for _ in range(3):
            f = _random_mobius(K, rng)
            psi = conjugate_map(phi, f)
            E, rational, reason = conj_invariant_sets(phi, psi)
            assert E.order == p**k, name
            got = {m.t for m in rational}
            assert f.t in got and reason == "", name
            assert got == {m.t for m in conj_exhaustive(phi, psi)}, name


# maps over F_9 and F_8 whose invariant set puts the source triple in an
# orbit of degree 2 or 3, so the stem field is a tower over an extension:
# (p, k, d, seed) -> [E : K]
_TOWER_CASES = {(3, 2, 2, 1): 2, (3, 2, 2, 4): 3, (2, 3, 2, 0): 2, (2, 3, 2, 1): 3}


def test_invariant_sets_over_towers():
    for (p, k, d, seed), degree in _TOWER_CASES.items():
        K = GF(p, k)
        rng = random.Random(seed)
        phi = random_map_ff(K, d, rng)
        f = _random_mobius(K, rng)
        E, rational, reason = conj_invariant_sets(phi, conjugate_map(phi, f))
        assert E.base == K and E.k == degree, (p, k, seed)
        got = {m.t for m in rational}
        assert f.t in got and reason == ""
        assert got == {m.t for m in conj_exhaustive(phi, conjugate_map(phi, f))}


def test_invariant_sets_field_degree_cap(monkeypatch):
    K = GF(5)
    phi = _zmap(K, (1,), (0, 0, 0, 3))  # one quartic orbit
    monkeypatch.setattr(ffsolvers, "SPLIT_DEGREE_CAP", 3)
    try:
        conj_invariant_sets(phi, phi)
        assert False
    except RuntimeError as e:
        assert "degree 4" in str(e)


def test_invariant_sets_field_degree_cap_names_type_reason(monkeypatch):
    # psi has the fixed point type of phi, one quartic orbit, but not its
    # pullback type: the type test names the reason before the cap refuses
    K = GF(5)
    phi = _zmap(K, (1,), (0, 0, 0, 3))
    psi = RatMap(K, (1, 3, 1, 1), (3, 3, 2, 2))
    assert ffsolvers._fixed_point_types_differ(phi, psi) is None
    monkeypatch.setattr(ffsolvers, "SPLIT_DEGREE_CAP", 3)
    assert conj_invariant_sets(phi, psi) == (None, [], "factorization type mismatch")


def test_invariant_sets_pullback_types_only_name_the_reason(monkeypatch):
    # a conjugate pair over GF(101) never pays for the pullback half of
    # the type test; an empty answer still gets its reason from it
    calls = []
    types = ffsolvers.types_rule_out_conjugacy

    def counted(a, b):
        calls.append((a, b))
        return types(a, b)

    monkeypatch.setattr(ffsolvers, "types_rule_out_conjugacy", counted)
    K = GF(101)
    rng = random.Random(61)
    phi = random_map_ff(K, 3, rng)
    f = _random_mobius(K, rng)
    res = conj_ff(phi, conjugate_map(phi, f))
    assert res.algorithm == "invariant-sets" and f.t in {m.t for m in res.elements}
    assert calls == []
    # equal fixed point types, different pullback types
    phi = RatMap(K, (1, 32, 19), (15, 78, 66))
    psi = RatMap(K, (1, 40, 47), (27, 23, 78))
    assert ffsolvers._fixed_point_types_differ(phi, psi) is None
    assert conj_invariant_sets(phi, psi) == (None, [], "factorization type mismatch")
    assert len(calls) == 1


def test_invariant_sets_orbit_mismatch():
    # z + 1/z and z - 1/z over F_7 both fix only infinity and pull it back
    # to {0, infinity} and then to four points, with the same types; the
    # last preimages are the pair z^2 = -1 for one and z = 1, 6 for the other
    K = GF(7)
    phi = _zmap(K, (1, 0, 1), (0, 1))
    psi = _zmap(K, (1, 0, 6), (0, 6))
    assert types_rule_out_conjugacy(phi, psi) is None
    assert _invariant_form(phi)[1] == _invariant_form(psi)[1] == (1, 2, 4)
    assert conj_invariant_sets(phi, psi) == (None, [], "invariant set orbit mismatch")
    assert conj_exhaustive(phi, psi) == []


# a d = 5 map over F_2^7 whose invariant set is one orbit of degree 6:
# Aut works in that orbit's stem field and needs no root finding
_F128_MODULUS = (1, 0, 0, 0, 0, 0, 1, 1)
_F128_MAP = (
    ((1, 0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 0, 1, 1), (1, 1, 0, 0, 0, 0, 0),
     (0, 1, 0, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0)),
    ((0, 1, 1, 0, 1, 1, 0), (0, 0, 1, 0, 1, 1, 0), (1, 0, 0, 1, 0, 0, 1),
     (0, 1, 0, 0, 1, 1, 0), (0, 1, 0, 0, 0, 1, 0), (1, 0, 1, 0, 0, 0, 1)),
)


def test_aut_degree_six_orbit_over_f128():
    K = ExtensionField(PrimeField(2), _F128_MODULUS)
    phi = RatMap(K, *_F128_MAP)
    t0 = time.perf_counter()
    res = aut_ff(phi)
    assert time.perf_counter() - t0 < 4.0  # the benchmark's cap per operation
    assert res.algorithm == "invariant-sets"
    assert [m.t for m in res.elements] == [Mobius.identity(K).t]
    assert [m.t for m in aut_fixed_points(phi)] == [Mobius.identity(K).t]
    E, _, _ = conj_invariant_sets(phi, phi)
    assert E.order == 2**42


def test_invariant_form_pullback():
    # z^2 + 3 over F11 has one rational fixed point (z = 6, doubled) plus
    # infinity; one pullback stage grows the set to {5, 6, infinity}
    K = GF(11)
    phi = _zmap(K, (3, 0, 1), (1,))
    R, counts = _invariant_form(phi)
    assert counts[-1] >= 3
    assert pdeg(form_radical(K, R)) == 3
    g = dehom(K, R)
    assert {r for r, _ in roots_ff(K, g)} == {K.from_int(5), K.from_int(6)}
    # infinity is in the set: the form has a factor of Y
    assert pdeg(R) > len(pstrip(K, R)) - 1


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


def test_conj_ff_exhaustive_types_only_name_the_reason(monkeypatch):
    # a nonempty scan needs no type test; an empty one still says why
    rng = random.Random(75)
    K = GF(7)
    phi = random_map_ff(K, 3, rng)
    psi = conjugate_map(phi, _random_mobius(K, rng))
    calls = []

    def types(a, b):
        calls.append((a, b))
        return "factorization type mismatch"

    monkeypatch.setattr(ffsolvers, "types_rule_out_conjugacy", types)
    res = conj_ff(phi, psi, algorithm="exhaustive")
    assert res.is_conjugate and res.reason == "" and calls == []
    K5 = GF(5)
    res = conj_ff(_zmap(K5, (0, 0, 1), (1,)), _zmap(K5, (1, 0, 1), (1,)))
    assert not res.is_conjugate and len(calls) == 1
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
    # the char-p step reads the translations at each rational fixed point
    # off the roots of one gcd in lam: z^p, whose Aut is PGL2(F_p), its
    # twists by elements of PGL2(F_q), and seeded random maps; over the
    # prime fields F_5 and F_7 the twists of z^p have the non-split torus
    # elements of PGL2(F_p), whose fixed points are a conjugate quadratic pair
    rng = random.Random(65)
    for K in (GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4), GF(5, 2)):
        p = K.char
        zp = _zmap(K, (K.zero,) * p + (K.one,), (K.one,))
        maps = [zp]
        for _ in range(2):
            while True:
                a, b, c, d = (K.random_element(rng) for _ in range(4))
                if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
                    break
            maps.append(conjugate_map(zp, Mobius(K, a, b, c, d)))
        maps += [random_map_ff(K, rng.randrange(2, 5), rng) for _ in range(4)]
        for phi in maps:
            ex = {m.t for m in aut_exhaustive(phi)}
            fp = {m.t for m in aut_fixed_points(phi)}
            assert fp == ex, (K.order, phi.F0, phi.F1)
        assert len(aut_fixed_points(zp)) == p * (p * p - 1)


def test_fixed_points_translation_groups_beyond_f_p():
    # z^4 over F_4 commutes with all of PGL2(F_4), whose 15 involutions
    # are translations by F_4 at each of its 5 rational fixed points; the
    # additive z^4 + z^2 commutes with z + lam for the four roots of
    # lam^4 + lam^2 + lam, a Klein four group that is no subfield
    K4 = GF(2, 2)
    z4 = _zmap(K4, (K4.zero,) * 4 + (K4.one,), (K4.one,))
    els = aut_fixed_points(z4)
    assert {m.t for m in els} == {m.t for m in aut_exhaustive(z4)}
    assert sum(1 for m in els if m.order() == 2) == 15
    for K in (GF(2, 3), GF(2, 6)):
        phi = _zmap(K, (K.zero, K.zero, K.one, K.zero, K.one), (K.one,))
        els = aut_fixed_points(phi)
        assert {m.t for m in els} == {m.t for m in aut_exhaustive(phi)}
        assert sum(1 for m in els if m.t[2] == K.zero and m.t[0] == m.t[3]) == 4
    # over F_{2^10} the exhaustive scan is out of reach: compare with the
    # invariant-set engine on z^2, a twist of it, and seeded maps with a
    # rational fixed point
    K = GF(2, 10)
    z2 = _zmap(K, (K.zero, K.zero, K.one), (K.one,))
    maps = [z2, conjugate_map(z2, Mobius(K, K.one, K.gen, K.one, K.zero))]
    rng = random.Random(67)
    while len(maps) < 4:
        phi = random_map_ff(K, 2, rng)
        fix = phi.fixed_point_form()
        if fix[-1] == K.zero or roots_ff(K, dehom(K, fix)):
            maps.append(phi)
    for phi in maps:
        _, inv, _ = conj_invariant_sets(phi, phi)
        els = aut_fixed_points(phi)
        assert {m.t for m in els} == {m.t for m in inv}
        assert len(els) == (6 if phi in maps[:2] else 1)


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
