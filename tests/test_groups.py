"""Closure and isomorphism-type classification of finite Mobius groups."""

import random

from autconj.domains import QQ
from autconj.finitefield import GF
from autconj.groups import closure, group_structure, is_closed
from autconj.projline import Mobius


def _m(K, a, b, c, d):
    return Mobius(K, a, b, c, d)


def test_trivial_and_cyclic():
    e = Mobius.identity(QQ)
    assert group_structure([e]) == "C1"
    assert group_structure([e, _m(QQ, -1, 0, 0, 1)]) == "C2"
    # z, -1/(z+1), (-z-1)/z
    c3 = [e, _m(QQ, 0, -1, 1, 1), _m(QQ, -1, -1, 1, 0)]
    assert group_structure(c3) == "C3"


def test_klein_four_is_d4():
    e = Mobius.identity(QQ)
    els = [e, _m(QQ, -1, 0, 0, 1), _m(QQ, 0, 1, 1, 0), _m(QQ, 0, -1, 1, 0)]
    assert group_structure(els) == "D4"


def test_s3_is_d6():
    # order profile {1, 2, 2, 2, 3, 3} forces the dihedral group on 3 letters
    e = Mobius.identity(QQ)
    els = [
        e,
        _m(QQ, -1, -1, 1, 0),   # order 3
        _m(QQ, 0, -1, 1, 1),    # order 3
        _m(QQ, 0, 1, 1, 0),     # 1/z
        _m(QQ, -1, -1, 0, 1),   # -z-1
        _m(QQ, -1, 0, 1, 1),    # -z/(z+1)
    ]
    assert sorted(s.order() for s in els) == [1, 2, 2, 2, 3, 3]
    assert group_structure(els) == "D6"


def test_closure_generates_dihedral():
    # two distinct involutions with product of order 3
    a = _m(QQ, 0, 1, 1, 0)
    b = _m(QQ, -1, -1, 0, 1)
    els = closure([a, b])
    assert len(els) == 6
    assert group_structure(els) == "D6"
    assert is_closed(els)


def test_closure_of_rotation():
    r = _m(QQ, 1, -1, 1, 1)  # order 4
    els = closure([r])
    assert len(els) == 4
    assert group_structure(els) == "C4"


def test_not_closed_raises():
    a = _m(QQ, 0, 1, 1, 0)
    b = _m(QQ, -1, -1, 0, 1)
    # {id, a, b} misses ab
    try:
        group_structure([Mobius.identity(QQ), a, b])
        assert False
    except ValueError:
        pass


def test_pgl2_f3_is_s4():
    K = GF(3)
    els = []
    for a in K.elements():
        for b in K.elements():
            for c in K.elements():
                for d in K.elements():
                    if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
                        m = Mobius(K, a, b, c, d)
                        if m not in els:
                            els.append(m)
    els = list(dict.fromkeys(els))
    assert len(els) == 24
    assert group_structure(els) == "S4"


def test_psl2_f3_is_a4():
    K = GF(3)
    gens = [_m(K, K.one, K.one, K.zero, K.one), _m(K, K.zero, K.from_int(2), K.one, K.zero)]
    els = closure(gens)
    assert len(els) == 12
    assert group_structure(els) == "A4"


def test_psl2_f5_is_a5():
    K = GF(5)
    gens = [_m(K, K.one, K.one, K.zero, K.one), _m(K, K.zero, K.from_int(4), K.one, K.zero)]
    els = closure(gens)
    assert len(els) == 60
    assert group_structure(els) == "A5"


def test_d8_and_d12():
    r4 = _m(QQ, 1, -1, 1, 1)    # order 4 rotation
    flip = _m(QQ, 0, 1, 1, 0)
    els = closure([r4, flip])
    assert len(els) == 8
    assert group_structure(els) == "D8"
    r6 = _m(QQ, 1, -1, 1, 2)
    assert r6.order() == 6
    els12 = closure([r6, _m(QQ, 0, 1, 1, 0)])
    assert len(els12) == 12
    assert group_structure(els12) == "D12"


def test_cyclic_c6():
    r6 = _m(QQ, 1, -1, 1, 2)
    els = closure([r6])
    assert len(els) == 6
    assert group_structure(els) == "C6"


def _closed_pairwise(elements):
    """The definition: every product of two listed elements is listed."""
    pool = set(elements)
    return all(a.compose(b) in pool for a in elements for b in elements)


def test_is_closed_matches_pairwise_definition():
    # subgroups of PGL2(F_5) and PGL2(F_7) from seeded random generators,
    # each also with one element (the identity among them) removed and
    # with one element added
    rng = random.Random(71)
    for p in (5, 7):
        K = GF(p)
        full = closure([_m(K, 1, 1, 0, 1), _m(K, 0, 1, 1, 0), _m(K, 2, 0, 0, 1)])
        assert len(full) == p * (p * p - 1)
        for n_gens in (1, 1, 2, 2, 3):
            while True:
                gens = [rng.choice(full) for _ in range(n_gens)]
                group = closure(gens)
                if len(group) < len(full):
                    break
            rng.shuffle(group)
            outside = rng.choice([s for s in full if s not in set(group)])
            variants = [group, group[:-1], group[1:], group + [outside],
                        [outside] + group, [s for s in group if not s.is_identity()]]
            for els in variants:
                assert is_closed(els) == _closed_pairwise(els), (p, len(els))
            assert is_closed(group) and not is_closed(group + [outside])
