"""Command line front end.

Subcommands: aut, conj, is-conjugate, bench.  Maps are written as rational
expressions in z, e.g. "(z^2+2*z)/(-2*z-1)"; coefficients are reduced into
the requested field.  Exit codes: 0 success, 2 parse error, 3 solver
refusal (a search cap or field-size limit was hit).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from .domains import QQ
from .ffsolvers import aut_ff, conj_ff
from .finitefield import GF
from .ntheory import is_prime
from . import poly as P
from .projline import RatMap, random_map_qq
from .qqsolvers import aut_qq, conj_qq

DEFAULT_BENCH_DEGREES = (3, 6, 9, 12, 15, 18, 21)
DEFAULT_BENCH_HEIGHTS = (50, 100, 1000, 10000, 100000, 1000000)


class MapParseError(ValueError):
    pass


# ---------------------------------------------------------------- parsing

def parse_field(text: str):
    """Field descriptor -> (field, normalized descriptor)."""
    t = text.strip().lower()
    if t in ("qq", "q"):
        return QQ, "qq"
    if t.startswith("ff:"):
        desc = t[3:]
        base, _, exp = desc.partition("^")
        try:
            p = int(base)
            k = int(exp) if exp else 1
        except ValueError:
            raise MapParseError("bad field descriptor %r" % text)
        if not is_prime(p):
            raise MapParseError("%d is not prime" % p)
        if k < 1:
            raise MapParseError("bad field descriptor %r" % text)
        K = GF(p, k)
        return K, ("ff:%d" % p if k == 1 else "ff:%d^%d" % (p, k))
    raise MapParseError("bad field descriptor %r (want qq or ff:p or ff:p^k)"
                        % text)


def _tokenize(expr: str):
    toks = []
    i = 0
    n = len(expr)
    while i < n:
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and expr[j].isdigit():
                j += 1
            toks.append(("int", int(expr[i:j])))
            i = j
        elif ch == "z":
            toks.append(("z", "z"))
            i += 1
        elif expr.startswith("**", i):
            toks.append(("^", "^"))
            i += 2
        elif ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
        else:
            raise MapParseError("unexpected character %r in %r" % (ch, expr))
    return toks


class _ExprParser:
    """Recursive descent over rational functions in z.

    Every node is a pair (num, den) of dense z-polynomials over K, so
    division anywhere in the expression stays exact.
    """

    def __init__(self, K, toks):
        self.K = K
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        if self.pos >= len(self.toks):
            raise MapParseError("unexpected end of expression")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise MapParseError("expected %r, found %r" % (kind, tok[1]))
        self.pos += 1
        return tok

    # rational-node arithmetic
    def _add(self, a, b):
        K = self.K
        n = P.padd(K, P.pmul(K, a[0], b[1]), P.pmul(K, b[0], a[1]))
        return (n, P.pmul(K, a[1], b[1]))

    def _mul(self, a, b):
        K = self.K
        return (P.pmul(K, a[0], b[0]), P.pmul(K, a[1], b[1]))

    def _neg(self, a):
        return (P.pneg(self.K, a[0]), a[1])

    def _div(self, a, b):
        if not P.pstrip(self.K, b[0]):
            raise MapParseError("zero denominator")
        return (P.pmul(self.K, a[0], b[1]), P.pmul(self.K, a[1], b[0]))

    def _pow(self, a, e):
        if e < 0:
            a = self._div(((self.K.one,), (self.K.one,)), a)
            e = -e
        out = ((self.K.one,), (self.K.one,))
        for _ in range(e):
            out = self._mul(out, a)
        return out

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = self._add(node, self._neg(rhs) if op == "-" else rhs)
        return node

    def term(self):
        node = self.unary()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.take()[0]
                rhs = self.unary()
                node = self._mul(node, rhs) if op == "*" else self._div(node, rhs)
            elif nxt in ("z", "("):
                # juxtaposition, as in 3z^2 or 2(z+1)
                node = self._mul(node, self.unary())
            else:
                return node

    def unary(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        node = self.power()
        return self._neg(node) if sign < 0 else node

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            esign = 1
            while self.peek() in ("+", "-"):
                if self.take()[0] == "-":
                    esign = -esign
            e = esign * self.take("int")[1]
            if abs(e) > 10000:
                raise MapParseError("exponent %d out of range" % e)
            node = self._pow(node, e)
        return node

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return ((self.K.from_int(val),), (self.K.one,))
        if kind == "z":
            return ((self.K.zero, self.K.one), (self.K.one,))
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        raise MapParseError("unexpected token %r" % val)


def parse_map(expr: str, K) -> RatMap:
    parser = _ExprParser(K, _tokenize(expr))
    num, den = parser.expr()
    if parser.pos != len(parser.toks):
        raise MapParseError("trailing input %r"
                            % parser.toks[parser.pos][1])
    try:
        phi = RatMap.from_rational_function(K, num, den)
    except ValueError as e:
        raise MapParseError(str(e))
    if phi.d < 2:
        raise MapParseError("map must have degree >= 2, got %d" % phi.d)
    return phi


# ---------------------------------------------------------------- output

def _coord_json(K, x):
    if K.char == 0:
        return int(x)
    if isinstance(x, tuple):
        return [int(c) for c in x]
    return int(x)


def _mobius_json(s):
    return [_coord_json(s.K, x) for x in s.t]


def _emit(payload, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _result_common(res):
    return {
        "primes": list(res.primes),
        "fibers": list(res.fibers),
        "height_bound": res.height_bound,
    }


# ---------------------------------------------------------------- commands

def _solve_aut(phi, K, algorithm):
    if K.char == 0:
        return aut_qq(phi, algorithm)
    return aut_ff(phi, algorithm)


def _solve_conj(phi, psi, K, algorithm):
    if K.char == 0:
        return conj_qq(phi, psi, algorithm)
    return conj_ff(phi, psi, algorithm)


def _cmd_aut(args, K, field_name):
    phi = parse_map(args.map, K)
    t0 = time.perf_counter()
    res = _solve_aut(phi, K, args.algorithm)
    ms = round(1000 * (time.perf_counter() - t0), 3)
    payload = {
        "command": "aut",
        "field": field_name,
        "maps": [phi.to_str()],
        "algorithm": res.algorithm,
        "seed": args.seed,
        "count": len(res.elements),
        "group": res.group,
        "elements": [_mobius_json(s) for s in res.elements],
        "time_ms": ms,
    }
    payload.update(_result_common(res))
    lines = [
        "map: %s over %s" % (phi.to_str(), field_name),
        "algorithm: %s" % res.algorithm,
        "Aut: %d elements, group %s" % (len(res.elements), res.group),
    ]
    lines += ["  %s" % s.to_str() for s in res.elements]
    if res.primes:
        lines.append("primes: %s  fibers: %s"
                     % (list(res.primes), list(res.fibers)))
    lines.append("time: %s ms" % ms)
    _emit(payload, args.format, lines)
    return 0


def _cmd_conj(args, K, field_name, yes_no_only):
    phi = parse_map(args.map, K)
    psi = parse_map(args.map2, K)
    t0 = time.perf_counter()
    res = _solve_conj(phi, psi, K, args.algorithm)
    ms = round(1000 * (time.perf_counter() - t0), 3)
    payload = {
        "command": "is-conjugate" if yes_no_only else "conj",
        "field": field_name,
        "maps": [phi.to_str(), psi.to_str()],
        "algorithm": res.algorithm,
        "seed": args.seed,
        "conjugate": res.is_conjugate,
        "reason": res.reason,
        "time_ms": ms,
    }
    payload.update(_result_common(res))
    if yes_no_only:
        witness = res.elements[0] if res.elements else None
        payload["witness"] = _mobius_json(witness) if witness else None
        lines = ["yes" if res.is_conjugate else "no"]
        if witness is not None:
            lines.append("witness: %s" % witness.to_str())
        if res.reason:
            lines.append("reason: %s" % res.reason)
    else:
        payload["count"] = len(res.elements)
        payload["elements"] = [_mobius_json(s) for s in res.elements]
        if res.is_conjugate:
            lines = ["Conj: %d elements" % len(res.elements)]
            lines += ["  %s" % s.to_str() for s in res.elements]
        else:
            lines = ["not conjugate"]
            if res.reason:
                lines.append("reason: %s" % res.reason)
    lines.append("time: %s ms" % ms)
    _emit(payload, args.format, lines)
    return 0


def _cmd_bench(args, K, field_name):
    if K.char != 0:
        raise MapParseError("bench runs over qq")
    import random

    for flag in ("degree", "height", "trials"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise MapParseError("--%s must be >= 1, got %d" % (flag, value))
    degrees = [args.degree] if args.degree is not None else list(DEFAULT_BENCH_DEGREES)
    heights = [args.height] if args.height is not None else list(DEFAULT_BENCH_HEIGHTS)
    seed = args.seed if args.seed is not None else 0
    rng = random.Random(seed)
    table = []
    for d in degrees:
        row = []
        for h in heights:
            times = []
            for _ in range(args.trials):
                phi = random_map_qq(d, h, rng)
                t0 = time.perf_counter()
                aut_qq(phi, args.algorithm)
                times.append(time.perf_counter() - t0)
            row.append(statistics.median(times))
        table.append(row)
    payload = {
        "command": "bench",
        "field": field_name,
        "algorithm": args.algorithm,
        "seed": seed,
        "trials": args.trials,
        "degrees": degrees,
        "heights": heights,
        "medians_s": [[round(t, 4) for t in row] for row in table],
    }
    width = 10
    header = "degree".ljust(8) + "".join(
        ("h=%d" % h).rjust(width) for h in heights)
    lines = [header]
    for d, row in zip(degrees, table):
        lines.append(str(d).ljust(8)
                     + "".join(("%.3f" % t).rjust(width) for t in row))
    _emit(payload, args.format, lines)
    return 0


# ---------------------------------------------------------------- driver

def _build_argparser():
    ap = argparse.ArgumentParser(
        prog="autconj",
        description="Automorphism groups and conjugating sets of rational "
                    "maps on the projective line, over Q or a finite field.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, nmaps):
        sp.add_argument("--field", default="qq",
                        help="qq (default), ff:p, or ff:p^k")
        sp.add_argument("--algorithm", default="auto",
                        choices=["auto", "crt", "fixed-points",
                                 "invariant-sets", "exhaustive"])
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--format", default="text", choices=["text", "json"])
        sp.add_argument("map", help="rational expression in z")
        if nmaps == 2:
            sp.add_argument("map2", help="second map")

    common(sub.add_parser("aut", help="automorphism group of a map"), 1)
    common(sub.add_parser("conj", help="conjugating set between two maps"), 2)
    common(sub.add_parser("is-conjugate",
                          help="yes/no conjugacy test with a reason"), 2)

    bp = sub.add_parser("bench", help="median solver timings on random maps")
    bp.add_argument("--field", default="qq")
    bp.add_argument("--algorithm", default="auto",
                    choices=["auto", "crt", "fixed-points"])
    bp.add_argument("--seed", type=int, default=None)
    bp.add_argument("--format", default="text", choices=["text", "json"])
    bp.add_argument("--degree", type=int, default=None)
    bp.add_argument("--height", type=int, default=None)
    bp.add_argument("--trials", type=int, default=5)
    return ap


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        K, field_name = parse_field(args.field)
        if args.command == "aut":
            return _cmd_aut(args, K, field_name)
        if args.command == "conj":
            return _cmd_conj(args, K, field_name, yes_no_only=False)
        if args.command == "is-conjugate":
            return _cmd_conj(args, K, field_name, yes_no_only=True)
        return _cmd_bench(args, K, field_name)
    except MapParseError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, TypeError) as e:
        print("refused: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    return_code = main(argv=None)
    sys.exit(return_code)
