"""The factoring layer against sympy's factorizations, used as an oracle.

Over F_p the inputs carry repeated factors and p-th powers, so the
squarefree descent, the distinct-degree sieve (bounded and not) and the
equal-degree split all run; over Z they are non-monic and non-squarefree
with large coefficients, so Hensel lifting runs several doublings.
"""

import random
from fractions import Fraction

import pytest

import autconj.poly as P
from autconj.domains import ZZ
from autconj.factor import distinct_degree, factor_ff, roots_ff, small_factors_qq
from autconj.finitefield import GF

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def _monic(K, deg, rng):
    return tuple(K.random_element(rng) for _ in range(deg)) + (K.one,)


def _sympy_factors_mod(f, p):
    """[(monic factor, multiplicity)] of f over F_p, coefficients in [0, p)."""
    _, facs = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    K = GF(p)
    out = []
    for g, mult in facs:
        g = tuple(int(c) % p for c in reversed(g.all_coeffs()))
        out.append((P.pmonic(K, g), mult))
    return sorted(out)


def _planted_ff(K, rng):
    """A product of random monic factors, some squared or cubed, and one
    p-th power h(x)^p."""
    powers = [(_monic(K, rng.randrange(1, 4), rng), rng.choice([1, 1, 2, 3]))
              for _ in range(rng.randrange(1, 4))]
    powers.append((_monic(K, rng.randrange(1, 3), rng), K.p))
    f = (K.one,)
    for g, e in powers:
        for _ in range(e):
            f = P.pmul(K, f, g)
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31])
def test_factor_ff_matches_sympy(p):
    K = GF(p)
    rng = random.Random(1000 + p)
    for _ in range(12):
        f = _planted_ff(K, rng)
        want = _sympy_factors_mod(f, p)
        assert sorted(factor_ff(K, f)) == want, (p, f)
        for bound in (1, 2):
            got = sorted(factor_ff(K, f, bound=bound))
            assert got == [(g, m) for g, m in want if P.pdeg(g) <= bound], (p, f, bound)
        roots = sorted((K.neg(g[0]), m) for g, m in want if P.pdeg(g) == 1)
        assert roots_ff(K, f) == roots
        # the sieve on the squarefree part: per degree, the product of
        # the factors of that degree
        sqf = (K.one,)
        by_deg = {}
        for g, _ in want:
            sqf = P.pmul(K, sqf, g)
            by_deg[P.pdeg(g)] = P.pmul(K, by_deg.get(P.pdeg(g), (K.one,)), g)
        assert distinct_degree(K, sqf) == sorted(by_deg.items())
        assert distinct_degree(K, sqf, 2) == sorted((d, g) for d, g in by_deg.items() if d <= 2)


def _int_poly(rng, deg, h):
    c = [rng.randint(-h, h) for _ in range(deg)] + [rng.choice([-1, 1]) * rng.randint(2, h)]
    return tuple(c)


def test_small_factors_qq_matches_sympy():
    rng = random.Random(77)
    for _ in range(30):
        parts = [_int_poly(rng, 1, 1000), _int_poly(rng, 2, 1000), _int_poly(rng, 3, 10**6)]
        if rng.random() < 0.5:
            parts.append(_int_poly(rng, 1, 1000))
        parts.append(rng.choice(parts))  # a square
        F = (1,)
        for g in parts:
            F = P.pmul(ZZ, F, g)
        _, facs = sympy.factor_list(sympy.Poly(list(reversed(F)), X))
        lin, quad = [], []
        for g, _ in facs:
            c = [Fraction(int(a)) for a in reversed(g.all_coeffs())]
            monic = tuple(a / c[-1] for a in c)
            if len(monic) == 2:
                lin.append(monic)
            elif len(monic) == 3:
                quad.append(monic)
        assert small_factors_qq(F) == (sorted(lin), sorted(quad)), F
