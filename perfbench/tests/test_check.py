import pytest

from perfbench import check as C
from perfbench.fixtures import BATTERY, SIX_ELS

Q = C.RationalRing()
# battery row 2, (z^2 + 2z)/(-2z - 1), as forms (X^0 Y^2, X Y, X^2 Y^0)
ROW2 = ((0, 2, 1), (-1, -2, 0))


def test_known_set_passes():
    assert len(C.check_aut(Q, ROW2, SIX_ELS, want=SIX_ELS)) == 6


def test_planted_wrong_element_is_rejected():
    with pytest.raises(C.CheckFailure, match="fails"):
        C.check_aut(Q, ROW2, SIX_ELS + [(1, 1, 0, 1)], want=SIX_ELS)


def test_missing_element_is_rejected():
    with pytest.raises(C.CheckFailure, match="missing"):
        C.check_aut(Q, ROW2, SIX_ELS[:-1], want=SIX_ELS)


def test_unknown_answer_must_still_be_a_group():
    with pytest.raises(C.CheckFailure, match="closed"):
        C.check_aut(Q, ROW2, SIX_ELS[:3])


def test_scaling_does_not_matter():
    scaled = [tuple(-3 * x for x in t) for t in SIX_ELS]
    C.check_aut(Q, ROW2, scaled, want=SIX_ELS)


def _twist_forms(f, forms):
    """f . phi . f^-1 with the gate's own arithmetic."""
    a, b, c, d = f
    g0 = C.form_compose(Q, forms[0], (-b, d), (a, -c))
    g1 = C.form_compose(Q, forms[1], (-b, d), (a, -c))
    return ([a * u + b * v for u, v in zip(g0, g1)],
            [c * u + d * v for u, v in zip(g0, g1)])


def test_conj_coset_check():
    f = (1, 2, 1, 1)
    psi = _twist_forms(f, ROW2)
    coset = [C.mat_mul(Q, f, s) for s in SIX_ELS]
    C.check_conj(Q, ROW2, psi, coset, f=f, aut=SIX_ELS)
    with pytest.raises(C.CheckFailure):
        C.check_conj(Q, ROW2, psi, coset[1:], f=f, aut=SIX_ELS)
    with pytest.raises(C.CheckFailure, match="misses"):
        C.check_conj(Q, ROW2, psi, [], f=f)
    with pytest.raises(C.CheckFailure, match="different Aut orders"):
        C.check_conj(Q, ROW2, psi, coset, empty=True)


def test_finite_field_rings_agree_with_the_package():
    from autconj import GF, RatMap, aut_ff

    for K in (GF(5), GF(3, 2)):
        phi = RatMap.from_rational_function(K, (K.zero, K.zero, K.one), (K.one,))
        R = C.ring_for(K)
        els = [s.t for s in aut_ff(phi).elements]
        got = C.check_aut(R, (phi.F0, phi.F1), els)
        assert len(got) == len(els)
        bad = (K.one, K.one, K.zero, K.one)  # z + 1 does not commute with z^2
        with pytest.raises(C.CheckFailure):
            C.check_aut(R, (phi.F0, phi.F1), els + [bad])


def test_battery_table_is_complete():
    assert len(BATTERY) == 11
    assert len({name for name, *_ in BATTERY}) == 11
