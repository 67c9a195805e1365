"""End-to-end acceptance battery.

One test per criterion; each prints a single "criterion N ...: PASS/FAIL"
line (visible with -s or -rA) and the pytest -v report gives the same
per-criterion verdict through the test names.
"""

import random
import statistics
import time

from autconj.cli import main as cli_main
from autconj.cli import parse_map, DEFAULT_BENCH_DEGREES, DEFAULT_BENCH_HEIGHTS
from autconj.domains import QQ
from autconj.ffsolvers import aut_exhaustive, aut_ff, aut_fixed_points, conj_invariant_sets
from autconj.finitefield import GF
from autconj.groups import is_closed
from autconj.projline import (
    Mobius,
    RatMap,
    conjugate_map,
    is_automorphism,
    is_conjugating,
    random_map_ff,
    random_map_qq,
)
from autconj.qqsolvers import aut_qq, conj_qq, conjugacy_height_bound


def _report(num, desc, ok, detail=""):
    line = "criterion %d (%s): %s" % (num, desc, "PASS" if ok else "FAIL")
    if detail and not ok:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def _tset(rows):
    return {Mobius(QQ, *r).t for r in rows}


# ---------------------------------------------------------------------------
# fixture tables

SIX_ELS = [
    (1, 0, 0, 1), (-1, 0, 1, 1), (0, 1, 1, 0),
    (-1, -1, 0, 1), (-1, -1, 1, 0), (0, -1, 1, 1),
]
TWELVE_ELS = [
    (1, 0, 0, 1), (-1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, -1),
    (2, -1, 1, -2), (-1, 2, 1, 1), (1, 1, 2, -1), (1, -2, 2, -1),
    (0, -1, 1, -1), (1, -1, 1, 0), (-1, -1, 1, -2), (2, -1, 1, 1),
]
EIGHT_ELS = [
    (1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, 1, 0),
    (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, 1, -1), (-1, -1, 1, -1),
]

# rows 2..11 of the rational-map battery: expression, elements, group label
BATTERY_ROWS = [
    ("(z^2+2*z)/(-2*z-1)", SIX_ELS, "D6"),
    ("(z^2-4*z-3)/(-3*z^2-2*z+2)",
     [(1, 0, 0, 1), (-1, -1, 1, 0), (0, -1, 1, 1)], "C3"),
    ("(z^5+5*z^4-20*z^3+10*z^2+5*z-2)/(2*z^5-5*z^4-10*z^3+20*z^2-5*z-1)",
     TWELVE_ELS, "D12"),
    ("(z^5-5*z^4+10*z^2-5*z)/(-5*z^4+10*z^3-5*z+1)", TWELVE_ELS, "D12"),
    ("(z^5-20*z^4+30*z^3+10*z^2-20*z+3)/(-3*z^5-5*z^4+40*z^3-30*z^2-5*z+4)",
     [(1, 0, 0, 1), (1, -2, 2, -1), (0, -1, 1, -1),
      (1, -1, 1, 0), (-1, -1, 1, -2), (2, -1, 1, 1)], "C6"),
    ("(3*z^2-1)/(z^3-3*z)", EIGHT_ELS, "D8"),
    ("(z^3-3*z)/(-3*z^2+1)", EIGHT_ELS, "D8"),
    ("(z^3-21*z^2-3*z+7)/(-7*z^3-3*z^2+21*z+1)",
     [(1, 0, 0, 1), (0, -1, 1, 0), (1, -1, 1, 1), (-1, -1, 1, -1)], "C4"),
    ("(z^11+66*z^6-11*z)/(-11*z^10-66*z^5+1)",
     [(1, 0, 0, 1), (0, -1, 1, 0)], "C2"),
    ("345025251*z^6", [(1, 0, 0, 1), (0, 1, 2601, 0)], "C2"),
]

# row 1 shares the six-element group of row 2
ROW_ONE = "(z^2-2*z-2)/(-2*z^2-2*z+1)"

# twisted power maps: (exponent k, twist coefficients, expected elements)
TWIST_ROWS = [
    (3, (3, -7, 5, -1),
     [(1, 0, 0, 1), (1, 5, 3, -1), (-19, 21, -5, 19), (11, -29, 13, -11)]),
    (-3, (-3, 0, -3, -4),
     [(1, 0, 0, 1), (1, 0, 2, -1), (-9, 9, 7, 9), (-9, 9, -25, 9)]),
    (6, (7, 10, -3, 8), [(1, 0, 0, 1), (101, -51, 55, -101)]),
    (-6, (-7, -7, -3, 1), [(1, 0, 0, 1), (7, 0, 2, -7)]),
    (9, (1, -8, 4, -10),
     [(1, 0, 0, 1), (84, -65, 116, -84), (-21, 8, -40, 21), (-76, 63, -84, 76)]),
    (-9, (8, 1, -2, 9),
     [(1, 0, 0, 1), (25, 63, 77, -25), (-35, 8, 18, 35), (7, 65, -85, -7)]),
    (12, (-2, -10, 4, 1), [(1, 0, 0, 1), (-2, -96, -15, 2)]),
    (-12, (-3, 0, -5, 1), [(1, 0, 0, 1), (5, -3, 8, -5)]),
    (15, (1, 9, -1, 1),
     [(1, 0, 0, 1), (-1, 8, 0, 1), (4, 9, 1, -4), (4, -41, 1, -4)]),
    (-15, (-4, -1, 8, -8),
     [(1, 0, 0, 1), (-8, -3, 0, 8), (-3, 1, 16, 3), (-24, -17, 128, 24)]),
    (18, (1, 10, 5, 10), [(1, 0, 0, 1), (95, -99, 75, -95)]),
    (-18, (2, -5, 0, 3), [(1, 0, 0, 1), (-5, -7, 3, 5)]),
]


def _power_map(k):
    n = abs(k)
    if k > 0:
        return RatMap.from_rational_function(QQ, (0,) * n + (1,), (1,))
    return RatMap.from_rational_function(QQ, (1,), (0,) * n + (1,))


def _twist(k, fv):
    return conjugate_map(_power_map(k), Mobius(QQ, *fv))


def _battery_maps():
    return [(expr, parse_map(expr, QQ), _tset(rows), group)
            for expr, rows, group in BATTERY_ROWS]


def test_criterion_1_battery_rows_exact():
    ok = True
    detail = ""
    for expr, phi, want, group in _battery_maps():
        t0 = time.perf_counter()
        res = aut_qq(phi)
        dt = time.perf_counter() - t0
        got = {m.t for m in res.elements}
        if got != want or res.group != group or dt >= 10.0:
            ok = False
            detail = "%s: set/group/time %s %s %.1fs" % (expr, got == want, res.group, dt)
            break
    _report(1, "ten battery rows, exact sets and groups, <10s each", ok, detail)


def test_criterion_2_twisted_power_maps_exact():
    ok = True
    detail = ""
    for k, fv, rows in TWIST_ROWS:
        phi = _twist(k, fv)
        res = aut_qq(phi)
        want = _tset(rows)
        got = {m.t for m in res.elements}
        if got != want:
            ok = False
            detail = "k=%d" % k
            break
    _report(2, "twisted power maps, exact automorphism sets", ok, detail)


def test_criterion_3_three_engines_agree():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for p in (5, 7, 11, 13, 17, 19, 23):
        K = GF(p)
        for d in (2, 3, 4, 5):
            rng = random.Random(1000 * p + d)
            for _ in range(50):
                phi = random_map_ff(K, d, rng)
                ex = {m.t for m in aut_exhaustive(phi)}
                fp = {m.t for m in aut_fixed_points(phi)}
                if fp != ex:
                    ok = False
                    detail = "fp!=ex p=%d %s/%s" % (p, phi.F0, phi.F1)
                    break
                _, inv, reason = conj_invariant_sets(phi, phi)
                if reason or {m.t for m in inv} != ex:
                    ok = False
                    detail = "inv!=ex p=%d %s/%s" % (p, phi.F0, phi.F1)
                    break
            if not ok:
                break
        if not ok:
            break
    dt = time.perf_counter() - t0
    if dt >= 300:
        ok = False
        detail = "%.0fs" % dt
    _report(3, "fixed-points+order-p vs exhaustive vs invariant-sets, 1400 maps, <5min", ok, detail)


def test_criterion_4_spot_values():
    checks = []
    r = aut_ff(RatMap.from_rational_function(GF(2), (0, 0, 1), (1,)))
    checks.append(len(r.elements) == 6 and r.group == "D6")
    r = aut_ff(RatMap.from_rational_function(GF(5), (0, 0, 0, 0, 0, 2), (1,)))
    checks.append(len(r.elements) == 4 and r.group == "C4")
    r = aut_ff(RatMap.from_rational_function(GF(7), (0, 0, 0, 0, 0, 2), (1,)))
    checks.append(len(r.elements) == 4 and r.group == "D4")
    r = aut_ff(RatMap.from_rational_function(GF(3), (0, 0, 0, 1), (1,)))
    checks.append(len(r.elements) == 24 and r.group == "S4")
    _report(4, "wild spot values over F2, F5, F7, F3", all(checks),
            "flags=%s" % checks)


def test_criterion_5_structural_properties():
    ok = True
    detail = ""
    maps = [phi for _, phi, _, _ in _battery_maps()]
    maps.append(RatMap.from_rational_function(QQ, (0, 0, 0, 0, 0, 2), (1,)))
    for phi in maps:
        res = aut_qq(phi)
        els = list(res.elements)
        if not all(is_automorphism(s, phi) for s in els):
            ok, detail = False, "element fails to verify"
            break
        if not is_closed(els):
            ok, detail = False, "group not closed"
            break
        d = phi.d
        orders = [s.order() for s in els]
        if not all(any(t % n == 0 for t in (d - 1, d, d + 1)) for n in orders if n > 1):
            ok, detail = False, "order outside d-1,d,d+1 for d=%d: %s" % (d, orders)
            break
        bound = conjugacy_height_bound(phi)
        if not all(s.height() <= bound for s in els):
            ok, detail = False, "height above bound"
            break
        # good reduction sends Aut(P1 over Q) into the mod-p fiber
        good = [p for p in (5, 7, 11, 13, 17, 19, 23, 29) if phi.is_good_prime(p)][:2]
        for p in good:
            phip = phi.reduce_mod_p(p)
            fib = {m.t for m in aut_fixed_points(phip)}
            for s in els:
                sp = Mobius(phip.K, *[c % p for c in s.coeff_ints()])
                if sp.t not in fib:
                    ok, detail = False, "reduction misses fiber at p=%d" % p
                    break
            if not ok:
                break
        if not ok:
            break
    if ok:
        # conjugating sets are cosets: Conj = f o Aut, elementwise
        for expr in ("(z^2+2*z)/(-2*z-1)", "(z^3-21*z^2-3*z+7)/(-7*z^3-3*z^2+21*z+1)"):
            phi = parse_map(expr, QQ)
            f = Mobius(QQ, 1, 2, 1, 1)
            psi = conjugate_map(phi, f)
            res = conj_qq(phi, psi)
            aut = aut_qq(phi)
            want = {f.compose(a).t for a in aut.elements}
            if {m.t for m in res.elements} != want:
                ok, detail = False, "coset mismatch for %s" % expr
                break
            if not all(is_conjugating(s, phi, psi) for s in res.elements):
                ok, detail = False, "conjugator fails to verify"
                break
    _report(5, "verification, closure, orders, heights, reduction, cosets", ok, detail)


def test_criterion_6_crt_equals_fixed_points():
    ok = True
    detail = ""
    fixtures = [parse_map(ROW_ONE, QQ)]
    fixtures += [phi for _, phi, _, _ in _battery_maps()]
    fixtures += [_twist(k, fv) for k, fv, _ in TWIST_ROWS]
    for i, phi in enumerate(fixtures):
        a = aut_qq(phi, algorithm="fixed-points")
        b = aut_qq(phi, algorithm="crt")
        if {m.t for m in a.elements} != {m.t for m in b.elements}:
            ok, detail = False, "fixture %d" % i
            break
    if ok:
        rng = random.Random(20260815)
        for d in (2, 3, 4, 5, 6):
            for _ in range(20):
                phi = random_map_qq(d, 50, rng)
                a = aut_qq(phi, algorithm="fixed-points")
                b = aut_qq(phi, algorithm="crt")
                if {m.t for m in a.elements} != {m.t for m in b.elements}:
                    ok, detail = False, "random d=%d %s/%s" % (d, phi.F0, phi.F1)
                    break
            if not ok:
                break
    _report(6, "crt agrees with fixed-points on 23 fixtures + 100 random maps", ok, detail)


def test_criterion_7_timing_and_bench_format(capsys):
    ok = True
    detail = ""
    rng = random.Random(99)
    times = []
    for _ in range(7):
        phi = random_map_qq(3, 100, rng)
        t0 = time.perf_counter()
        aut_qq(phi, algorithm="fixed-points")
        times.append(time.perf_counter() - t0)
    med = statistics.median(times)
    if med >= 1.0:
        ok, detail = False, "degree-3 median %.3fs" % med
    if ok:
        phi21 = random_map_qq(21, 50, rng)
        t0 = time.perf_counter()
        aut_qq(phi21, algorithm="crt")
        dt21 = time.perf_counter() - t0
        if dt21 >= 60.0:
            ok, detail = False, "degree-21 crt %.1fs" % dt21
    if ok:
        # bench table carries the full degree x height grid by default
        if DEFAULT_BENCH_DEGREES != (3, 6, 9, 12, 15, 18, 21):
            ok, detail = False, "bench degree grid"
        if DEFAULT_BENCH_HEIGHTS != (50, 100, 1000, 10000, 100000, 1000000):
            ok, detail = False, "bench height grid"
    if ok:
        rc = cli_main(["bench", "--degree", "3", "--height", "100",
                       "--trials", "3", "--seed", "7"])
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        header = lines[0].split()
        row = lines[1].split()
        if rc != 0 or header[0] != "degree" or header[1] != "h=100" or row[0] != "3":
            ok, detail = False, "bench table shape: %r" % lines[:2]
        else:
            float(row[1])
    _report(7, "median timings and bench table format", ok, detail)
