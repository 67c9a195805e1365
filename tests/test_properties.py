"""Properties checked on generated inputs, with Hypothesis derandomized
so that the suite stays deterministic."""

import random

import pytest

from autconj.ffsolvers import aut_fixed_points
from autconj.finitefield import GF
from autconj.projline import Mobius, RatMap, conjugate_map, random_map_ff

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EQUIVARIANCE_FIELDS = (GF(2, 3), GF(3, 2), GF(5, 2))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=25)
@hypothesis.given(st.sampled_from(EQUIVARIANCE_FIELDS),
                  st.sampled_from(("random", "z^p", "z^p+cz")), st.integers(0, 2**32))
def test_fixed_points_conjugation_equivariance(K, shape, seed):
    # Aut(f.phi.f^-1) = f.Aut(phi).f^-1, on random maps and on maps with
    # unipotent automorphisms: z^p, and the additive z^p + cz
    rng = random.Random(seed)
    p = K.char
    if shape == "random":
        phi = random_map_ff(K, rng.randrange(2, 5), rng)
    else:
        c = K.random_element(rng) if shape == "z^p+cz" else K.zero
        phi = RatMap.from_rational_function(
            K, (K.zero, c) + (K.zero,) * (p - 2) + (K.one,), (K.one,))
    while True:
        a, b, c, d = (K.random_element(rng) for _ in range(4))
        if K.sub(K.mul(a, d), K.mul(b, c)) != K.zero:
            break
    f, f_inv = Mobius(K, a, b, c, d), Mobius(K, d, K.neg(b), K.neg(c), a)
    got = {m.t for m in aut_fixed_points(conjugate_map(phi, f))}
    assert got == {f.compose(s).compose(f_inv).t for s in aut_fixed_points(phi)}
