"""Command line interface: parsing, dispatch, output formats, exit codes."""

import json
import random

from autconj.cli import MapParseError, main, parse_field, parse_map
from autconj.domains import QQ
from autconj.finitefield import GF
from autconj.projline import random_map_qq


def test_parse_map_examples():
    phi = parse_map("(z^2+2*z)/(-2*z-1)", QQ)
    assert phi.d == 2
    assert phi.F0 == (0, 2, 1) and phi.F1 == (-1, -2, 0)
    z2 = parse_map("z^2", QQ)
    assert z2.F0 == (0, 0, 1) and z2.F1 == (1, 0, 0)
    big = parse_map("345025251*z^6", QQ)
    assert big.F0[-1] == 345025251


def test_parse_map_sugar():
    # juxtaposition, double-star powers, negative exponents, fractions
    assert parse_map("3z^2", QQ).F0 == (0, 0, 3)
    assert parse_map("z**3", QQ) == parse_map("z^3", QQ)
    inv2 = parse_map("z^-2", QQ)
    assert inv2.F0 == (1, 0, 0) and inv2.F1 == (0, 0, 1)
    quarter = parse_map("z^2 + 1/4", QQ)
    assert quarter.F0 == (1, 0, 4) and quarter.F1 == (4, 0, 0)
    assert parse_map("-z^2", QQ).F1 == (-1, 0, 0)


def test_parse_map_errors():
    for expr in ("1/2", "z", "(z^2-1)/(z^2-1)", "1/(z-z)", "z^^2", "q^2", "(z^2", ""):
        try:
            parse_map(expr, QQ)
            assert False, expr
        except MapParseError:
            pass


def test_parse_map_over_finite_field():
    K = GF(5)
    from autconj.projline import RatMap

    phi = parse_map("z^2 + 1/4", K)
    # 1/4 = 4 mod 5, so this is z^2 + 4
    assert phi == RatMap.from_rational_function(K, (K.from_int(4), K.zero, K.one), (K.one,))


def test_parse_map_round_trip():
    rng = random.Random(71)
    for _ in range(25):
        phi = random_map_qq(rng.randrange(2, 5), 9, rng)
        assert parse_map(phi.to_str(), QQ) == phi
    K = GF(7)
    from autconj.projline import random_map_ff

    for _ in range(10):
        phi = random_map_ff(K, rng.randrange(2, 4), rng)
        assert parse_map(phi.to_str(), K) == phi


def test_parse_field():
    K, name = parse_field("qq")
    assert name == "qq" and K is QQ
    K7, name7 = parse_field("ff:7")
    assert name7 == "ff:7" and K7.order == 7
    K25, name25 = parse_field("ff:5^2")
    assert name25 == "ff:5^2" and K25.order == 25
    for bad in ("ff:4", "ff:6^2", "zz", "ff:", "ff:7^0", "ff:0"):
        try:
            parse_field(bad)
            assert False, bad
        except MapParseError:
            pass


def test_main_aut_text(capsys):
    rc = main(["aut", "--field", "qq", "(3*z^2-1)/(z^3-3*z)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "8 elements" in out and "D8" in out
    assert "1/z" in out and "-z" in out


def test_main_aut_json(capsys):
    rc = main(["aut", "--format", "json", "--seed", "5", "z^2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "aut"
    assert payload["field"] == "qq"
    assert payload["maps"] == ["z^2"]
    assert payload["algorithm"] == "fixed-points"
    assert payload["count"] == 2
    assert payload["group"] == "C2"
    assert sorted(payload["elements"]) == [[0, 1, 1, 0], [1, 0, 0, 1]]
    assert payload["seed"] == 5
    assert isinstance(payload["time_ms"], float)
    for key in ("primes", "fibers", "height_bound"):
        assert key in payload


def test_main_aut_ff_json(capsys):
    rc = main(["aut", "--field", "ff:3", "--format", "json", "z^3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 24 and payload["group"] == "S4"
    assert payload["algorithm"] == "exhaustive"


def test_main_conj_text(capsys):
    rc = main(["conj", "--field", "ff:5", "z^2", "z^2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 elements" in out
    assert "1/z" in out


def test_main_is_conjugate_yes(capsys):
    rc = main(["is-conjugate", "--field", "qq", "z^3", "(z^3-21*z^2-3*z+7)/(-7*z^3-3*z^2+21*z+1)"])
    out = capsys.readouterr().out
    assert rc == 0
    first = out.splitlines()[0]
    assert first in ("yes", "no")


def test_main_is_conjugate_no_with_reason(capsys):
    rc = main(["is-conjugate", "--field", "ff:5", "z^2", "z^2+1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "no"
    assert any("factorization type mismatch" in l for l in lines)


def test_main_is_conjugate_json(capsys):
    rc = main(["is-conjugate", "--format", "json", "--field", "ff:5", "z^2", "z^2+1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "is-conjugate"
    assert payload["conjugate"] is False
    assert payload["reason"] == "factorization type mismatch"
    assert payload["witness"] is None


def test_main_parse_error_exit_2(capsys):
    rc = main(["aut", "1/2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err and "constant map" in err
    rc = main(["aut", "--field", "ff:4", "z^2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not prime" in err


def test_main_refusal_exit_3(capsys):
    # exhaustive enumeration over F_101 would walk more than 10^6 elements
    rc = main(["aut", "--field", "ff:101", "--algorithm", "exhaustive", "z^2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("refused:")


def test_main_aut_auto_large_field(capsys):
    rc = main(["aut", "--field", "ff:101", "--format", "json", "z^2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "invariant-sets"
    assert payload["count"] == 2


def test_main_map_echo_reparses(capsys):
    rc = main(["aut", "--format", "json", "(3*z^2-1)/(z^3-3*z)"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    echoed = parse_map(payload["maps"][0], QQ)
    assert echoed == parse_map("(3*z^2-1)/(z^3-3*z)", QQ)


def test_bench_text(capsys):
    rc = main(["bench", "--degree", "3", "--height", "100", "--trials", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[0].split()[0] == "degree"
    assert "h=100" in lines[0]
    assert lines[1].split()[0] == "3"
    float(lines[1].split()[1])  # median seconds parses as a float


def test_bench_json(capsys):
    rc = main(["bench", "--degree", "3", "--height", "50", "--trials", "2", "--seed", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "bench"
    assert payload["degrees"] == [3]
    assert payload["heights"] == [50]
    meds = payload["medians_s"]
    assert len(meds) == 1 and len(meds[0]) == 1
    assert meds[0][0] >= 0


def test_bench_rejects_flags_below_one(capsys):
    # 0 is a value, not a missing flag: it must not fall back to the full grid
    for flag, value in (("--degree", "0"), ("--height", "0"), ("--trials", "0"),
                        ("--degree", "-2"), ("--height", "-1")):
        argv = ["bench", "--degree", "3", "--height", "5", "--trials", "1"]
        argv[argv.index(flag) + 1] = value
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, (flag, value)
        assert captured.out == ""
        assert "error:" in captured.err and flag in captured.err


def test_bench_reproducible(capsys):
    main(["bench", "--degree", "2", "--height", "50", "--trials", "3", "--seed", "9", "--format", "json"])
    one = json.loads(capsys.readouterr().out)
    main(["bench", "--degree", "2", "--height", "50", "--trials", "3", "--seed", "9", "--format", "json"])
    two = json.loads(capsys.readouterr().out)
    assert one["seed"] == two["seed"] == 9
