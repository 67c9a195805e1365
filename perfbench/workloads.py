"""Seeded inputs for the three workloads, as rounds of operations.

A round holds the operations of every stratum of its workload (the bulk
strata many times), with fresh random inputs; every round of a workload
has the same composition, and the timed phase only ever stops at the end
of a round, so each run measures the same mix whatever its length.  The
same seed gives the same inputs; the fixtures and the bulk maps are the
same under every seed.

The solvers only ever see the generated maps.  Every call goes through a
module attribute looked up at call time, so the tracer's wrappers are
seen when they are installed.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from typing import Callable

from . import check as C
from .fixtures import BATTERY, HANG_FF, HANG_QQ, TWISTS, power_map_aut

H4, H6 = 10**4, 10**6

# Each random stratum is (degree, height, maps per round).  The cheap
# strata come many to a round (BULK or more), so that each run holds
# hundreds of them and they set the medians; the slow strata and the hangs
# come once a round and set the tail.  Bulk maps, and every input of the
# slow strata, are drawn from a generator fixed per workload, so that the
# medians, the tail and ops_per_s move with the code and not with the
# draw: the cost of a slow stratum varies up to fourfold from one map to
# the next.  Every other random input comes from the seed.
BULK = 5
QQ_AUT_SLOW_DEGREE = 5   # qq-aut random maps of this degree or more are slow
FF_SLOW_ORDER = 64       # ff strata over fields with more elements are slow

# qq-aut: Aut over Q with algorithm="auto", all on the fixed-points side of
# FIXED_POINT_DEGREE_LIMIT.  Degree 6 is the band where fixed-points
# degrades; degree 7 runs past the cap at the seed.
QQ_AUT_TWISTS = (3, -3, 6, -6, 9, -9, 12)
QQ_AUT_RANDOM = ((2, 50, 5), (2, 100, 5), (2, 1000, 5), (2, H4, 5),
                 (3, 50, 25), (3, 100, 25), (3, 1000, 25), (3, H4, 25),
                 (4, 50, 1), (4, 1000, 1), (4, H4, 1),
                 (5, 50, 1), (5, 1000, 1), (6, 50, 1), (7, 50, 1))
QQ_AUT_RANDOM_TWISTS = 3

# qq-crt: the CRT engine.  Random maps (trivial groups) from the README
# grid, plus a fixed degree-21 map of height 10^6 for the bad_primes ->
# factorint hang; twisted power maps (nontrivial groups, |k| > 12 through
# "auto"); conjugate pairs and pairs whose Aut orders differ.  Random maps
# of degree 9 to 18 at the README heights are left out: whether their
# resultant splits within the cap depends on the draw, which would make
# the run unsteady.
QQ_CRT_RANDOM = ((3, 50, 25), (3, 100, 25), (3, 1000, 25), (3, H4, 25),
                 (6, 50, 5), (6, 100, 5))
QQ_CRT_CONJ_RANDOM = 5
QQ_CRT_TWISTS = (-3, -6, 12, -12, 15, -15, 18, -18)
QQ_CRT_PAIRS = ("row2", "row4", "row7", "row9")
QQ_CRT_MISMATCH = (("row2", "row3"), ("row7", "row9"))

# ff: (p, k, degree, operations, maps per round) with "aut" the
# automorphism group, "pair" Conj(phi, f.phi) and "rand" Conj(phi, random
# psi).  The bulk is exhaustive search over q = 25..31, where an operation
# costs about the same whatever the map.  Fields up to q = 97 go to
# exhaustive search under "auto", larger ones (101, 121, 125, 128, 169) to
# invariant sets.  A fixed degree-5 map over F_{2^7} runs past the cap.
FF_STRATA = tuple(
    (p, k, d, "aut", 6) for p, k in ((5, 2), (3, 3), (29, 1), (31, 1))
    for d in (2, 3, 4, 5)
) + tuple(
    (p, k, d, "aut", 1) for p, k in ((5, 1), (7, 1), (11, 1), (13, 1),
                                     (2, 2), (2, 3), (3, 2))
    for d in (2, 3, 4, 5)
) + (
    (5, 1, 4, "pair rand", 2), (7, 1, 3, "pair rand", 2),
    (11, 1, 5, "pair rand", 2), (13, 1, 2, "pair rand", 2),
    (2, 2, 3, "pair", 1), (2, 3, 4, "pair rand", 1), (3, 2, 3, "pair rand", 1),
    (31, 1, 3, "aut pair", 2), (3, 3, 4, "aut pair", 1),
    (97, 1, 2, "aut", 2), (97, 1, 4, "aut", 1), (89, 1, 3, "aut", 1),
    (3, 4, 2, "aut pair", 1), (101, 1, 3, "aut pair", 1),
    (11, 2, 2, "aut pair rand", 1), (5, 3, 2, "aut pair", 1),
    (2, 7, 2, "aut", 1),
    (13, 2, 2, "aut pair", 1), (13, 2, 3, "rand", 1),
)

WORKLOADS = ("qq-aut", "qq-crt", "ff")
# Distinct rounds built: a timed run runs at least these, and solve_tail_s
# is taken over them.
ROUNDS = 2


@dataclass
class Op:
    seq: int                     # position in the round as built
    id: str
    kind: str                    # "aut" or "conj"
    stratum: str
    call: Callable[[], object]
    check: Callable[[object, dict], None]
    maps: tuple = ()             # the input maps, for reproducibility checks


class Lib:
    """The package's modules, imported (or re-imported) on demand."""

    MODULES = ("autconj", "autconj.cli", "autconj.projline",
               "autconj.finitefield", "autconj.domains")

    def __init__(self, fresh=False):
        if fresh:
            for name in [n for n in sys.modules
                         if n == "autconj" or n.startswith("autconj.")]:
                del sys.modules[name]
        mods = [importlib.import_module(n) for n in self.MODULES]
        self.autconj, self.cli, self.projline, self.finitefield, self.domains = mods
        self.QQ = self.domains.QQ


def _mobius_t(res):
    return [s.t for s in res.elements]


def _forms(phi):
    return (phi.F0, phi.F1)


def _random_f(rng, bound=2):
    """A random invertible integer matrix with entries in [-bound, bound]."""
    while True:
        t = tuple(rng.randint(-bound, bound) for _ in range(4))
        if t[0] * t[3] - t[1] * t[2]:
            return t


def _random_f_ff(rng, K):
    while True:
        t = tuple(K.random_element(rng) for _ in range(4))
        if K.mul(t[0], t[3]) != K.mul(t[1], t[2]):
            return t


class _InputMaker:
    def __init__(self, workload, seed, lib):
        self.lib = lib
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.bulk_rng = random.Random("%s:bulk" % workload)
        self.ops = []
        self.round = 0

    def rng_for(self, n, slow):
        """The generator of a stratum drawn n times a round."""
        return self.bulk_rng if n >= BULK or slow else self.rng

    @staticmethod
    def prefix(n, slow):
        return "bulk." if n >= BULK else "slow." if slow else ""

    def add(self, kind, stratum, call, check, maps):
        seq = len(self.ops)
        op_id = "r%d.%d.%s" % (self.round, seq, stratum)
        self.ops.append(Op(seq, op_id, kind, stratum, call, check, maps))

    # -- Q --------------------------------------------------------------

    def power_map(self, k):
        lib = self.lib
        n = abs(k)
        mono = (0,) * n + (1,)
        num, den = (mono, (1,)) if k > 0 else ((1,), mono)
        return lib.projline.RatMap.from_rational_function(lib.QQ, num, den)

    def twist(self, k, f):
        lib = self.lib
        return lib.projline.conjugate_map(self.power_map(k),
                                          lib.projline.Mobius(lib.QQ, *f))

    def aut_qq(self, stratum, phi, algorithm="auto", want=None, group=None,
               save=None):
        lib = self.lib
        R = C.RationalRing()
        forms = _forms(phi)

        def check(res, ctx):
            got = C.check_aut(R, forms, _mobius_t(res), want)
            if group is not None and res.group != group:
                raise C.CheckFailure("group %s, want %s" % (res.group, group))
            if save:
                ctx[save] = got

        self.add("aut", stratum, lambda: lib.autconj.aut_qq(phi, algorithm),
                 check, (forms,))

    def conj_qq(self, stratum, phi, psi, f=None, aut=None, aut_from=None,
                empty=False):
        lib = self.lib
        R = C.RationalRing()
        fp, fq = _forms(phi), _forms(psi)

        def check(res, ctx):
            known = aut if aut is not None else ctx.get(aut_from)
            C.check_conj(R, fp, fq, _mobius_t(res), f=f, aut=known, empty=empty)

        self.add("conj", stratum, lambda: lib.autconj.conj_qq(phi, psi),
                 check, (fp, fq))

    def battery(self):
        QQ = self.lib.QQ
        return {name: (self.lib.cli.parse_map(expr, QQ), els, group)
                for name, expr, els, group in BATTERY}

    def qq_aut_round(self):
        rng = self.rng
        for name, (phi, els, group) in self.battery().items():
            self.aut_qq("battery." + name, phi, want=els, group=group)
        for k, f, els in TWISTS:
            if k in QQ_AUT_TWISTS:
                self.aut_qq("twist.k%+d" % k, self.twist(k, f), want=els)
        for _ in range(QQ_AUT_RANDOM_TWISTS):
            k = rng.choice((2, 3, 4, 5, -2, -3, -4, -5))
            f = _random_f(rng)
            self.aut_qq("twist.random", self.twist(k, f), want=twisted_aut(k, f))
        for d, h, n in QQ_AUT_RANDOM:
            slow = d >= QQ_AUT_SLOW_DEGREE
            stratum = "%sd%d.h%d" % (self.prefix(n, slow) or "random.", d, h)
            for _ in range(n):
                phi = self.lib.projline.random_map_qq(d, h, self.rng_for(n, slow))
                self.aut_qq(stratum, phi)

    def qq_crt_round(self):
        rng = self.rng
        lib = self.lib
        for d, h, n in QQ_CRT_RANDOM:
            kind = "bulk" if n >= BULK else "random"
            for i in range(n):
                phi = lib.projline.random_map_qq(d, h, self.rng_for(n, False))
                algorithm = "auto" if d > 12 else "crt"
                key = "aut.d%d.h%d.%d" % (d, h, i)
                self.aut_qq("%s.d%d.h%d" % (kind, d, h), phi, algorithm, save=key)
                if (d, h) == (3, 50) and i < QQ_CRT_CONJ_RANDOM:
                    f = _random_f(rng)
                    psi = lib.projline.conjugate_map(phi, lib.projline.Mobius(lib.QQ, *f))
                    self.conj_qq("conj.random.d3", phi, psi, f=f, aut_from=key)
        hang = lib.projline.RatMap(lib.QQ, *HANG_QQ)
        self.aut_qq("hang.d21.h1000000", hang)
        for k, f, els in TWISTS:
            if k in QQ_CRT_TWISTS:
                algorithm = "auto" if abs(k) > 12 else "crt"
                self.aut_qq("twist.k%+d" % k, self.twist(k, f), algorithm, want=els)
        bat = self.battery()
        for name in QQ_CRT_PAIRS:
            phi, els, _ = bat[name]
            f = _random_f(rng, 1)  # a taller f costs the lift far more
            psi = lib.projline.conjugate_map(phi, lib.projline.Mobius(lib.QQ, *f))
            self.conj_qq("conj.pair." + name, phi, psi, f=f, aut=els)
        for a, b in QQ_CRT_MISMATCH:
            g = _random_f(rng)
            psi = lib.projline.conjugate_map(bat[b][0], lib.projline.Mobius(lib.QQ, *g))
            self.conj_qq("conj.mismatch.%s.%s" % (a, b), bat[a][0], psi, empty=True)

    # -- F_q ------------------------------------------------------------

    def ff_round(self):
        lib = self.lib
        for j, (p, k, d, kinds, n) in enumerate(FF_STRATA):
            K = lib.finitefield.GF(p, k)
            R = C.ring_for(K)
            slow = p**k > FF_SLOW_ORDER
            rng = self.rng_for(n, slow)
            q = "%d^%d" % (p, k) if k > 1 else str(p)
            kinds = kinds.split()
            prefix = self.prefix(n, slow)
            for i in range(n):
                phi = lib.projline.random_map_ff(K, d, rng)
                forms = _forms(phi)
                key = "aut.%d.%d" % (j, i)
                if "aut" in kinds:
                    def check(res, ctx, R=R, forms=forms, key=key):
                        ctx[key] = C.check_aut(R, forms, _mobius_t(res))
                    self.add("aut", "%saut.q%s.d%d" % (prefix, q, d),
                             lambda phi=phi: lib.autconj.aut_ff(phi), check, (forms,))
                if "pair" in kinds:
                    f = _random_f_ff(rng, K)
                    psi = lib.projline.conjugate_map(phi, lib.projline.Mobius(K, *f))
                    self._conj_ff("%spair.q%s.d%d" % (prefix, q, d), R, phi, psi, f, key)
                if "rand" in kinds:
                    psi = lib.projline.random_map_ff(K, d, rng)
                    self._conj_ff("%srand.q%s.d%d" % (prefix, q, d), R, phi, psi, None, key)

        modulus, F0, F1 = HANG_FF
        K = lib.finitefield.ExtensionField(lib.finitefield.PrimeField(2), modulus)
        hang = lib.projline.RatMap(K, F0, F1)
        forms = _forms(hang)
        R = C.ring_for(K)
        self.add("aut", "hang.q2^7.d5", lambda: lib.autconj.aut_ff(hang),
                 lambda res, ctx: C.check_aut(R, forms, _mobius_t(res)), (forms,))

    def _conj_ff(self, stratum, R, phi, psi, f, key):
        lib = self.lib
        fp, fq = _forms(phi), _forms(psi)

        def check(res, ctx):
            C.check_conj(R, fp, fq, _mobius_t(res), f=f, aut=ctx.get(key))

        self.add("conj", stratum, lambda: lib.autconj.conj_ff(phi, psi),
                 check, (fp, fq))


def twisted_aut(k, f):
    """Aut(f . z^k . f^-1) = f . Aut(z^k) . f^-1, in integer matrices."""
    R = C.RationalRing()
    finv = C.inverse_qq(f)
    return [C.mat_mul(R, C.mat_mul(R, f, a), finv) for a in power_map_aut(k)]


def build(workload, seed, lib, rounds=None):
    """The rounds of operations of one workload under one seed."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    b = _InputMaker(workload, seed, lib)
    make = {"qq-aut": b.qq_aut_round, "qq-crt": b.qq_crt_round,
            "ff": b.ff_round}[workload]
    out = []
    for r in range(ROUNDS if rounds is None else rounds):
        b.round = r
        b.ops = []
        make()
        # Run each round in a shuffled order, the same under every seed, so
        # that every stratum is spread over the whole round: the speed of a
        # shared machine drifts within seconds.
        ops = list(b.ops)
        random.Random("%s:order:%d" % (workload, r)).shuffle(ops)
        out.append(ops)
    return out
