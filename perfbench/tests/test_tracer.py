import sys
import types

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 3

    def middle():
        clock.now += 1
        leaf()
        clock.now += 2
        leaf()
        clock.now += 1

    leaf_w = tr.timed("leaf", leaf)
    leaf = leaf_w  # middle calls the wrapped leaf
    middle_w = tr.timed("middle", middle)
    tr.begin_op("op0")
    middle_w()

    assert tr.calls("middle") == 1 and tr.calls("leaf") == 2
    assert tr.total("middle") == 10 and tr.self_time("middle") == 4
    assert tr.total("leaf") == 6 and tr.self_time("leaf") == 6
    spans = {s[1]: s for s in tr.spans}
    assert spans["middle"][4] is None
    assert all(s[4] == spans["middle"][0] for s in tr.spans if s[1] == "leaf")
    assert all(s[5] == "op0" for s in tr.spans)


def test_recursion_counts_total_once():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def rec(n):
        clock.now += 1
        if n:
            rec_w(n - 1)

    rec_w = tr.timed("rec", rec)
    rec_w(2)
    assert tr.calls("rec") == 3
    assert tr.total("rec") == 3
    assert tr.self_time("rec") == 3


def test_accept_ratio_and_counted():
    tr = Tracer()
    yes = tr.timed("yes", lambda x: x > 0)
    for x in (1, -1, 2, -2):
        yes(x)
    assert tr.accept_ratio("yes") == 0.5
    inc = tr.counted("inc", lambda x: x + 1)
    assert [inc(i) for i in range(3)] == [1, 2, 3]
    assert tr.calls("inc") == 3 and tr.total("inc") == 0.0


@pytest.fixture
def toy_package():
    pkg = types.ModuleType("toypkg")
    a = types.ModuleType("toypkg.a")
    b = types.ModuleType("toypkg.b")

    def f(x):
        return x * 2

    class Box:
        def get(self):
            return 7

    a.f, a.Box = f, Box
    b.f = f            # a second binding, as "from .a import f" makes
    b.twice = f
    names = {"toypkg": pkg, "toypkg.a": a, "toypkg.b": b}
    sys.modules.update(names)
    yield a, b, f
    for n in names:
        del sys.modules[n]


def test_install_wraps_every_binding_and_reports_absent(toy_package):
    a, b, f = toy_package
    tr = Tracer()
    tr.install([("a", "f", "timed"), ("a", "Box.get", "counted"),
                ("a", "gone", "timed"), ("a", "Box.gone", "timed"),
                ("missing", "f", "timed")], package="toypkg")
    assert tr.absent == ["a.gone", "a.Box.gone", "missing.f"]
    assert a.f is not f and b.f is a.f and b.twice is a.f
    assert a.f(2) + b.f(3) + b.twice(4) == 18
    assert a.Box().get() == 7
    assert tr.calls("a.f") == 3 and tr.calls("a.Box.get") == 1
    tr.uninstall()
    assert a.f is f and b.f is f and b.twice is f
    assert "get" in vars(a.Box) and a.Box.get.__name__ == "get"


def test_install_on_the_package_reaches_cross_module_bindings():
    from autconj import cli, exact, ffsolvers, factor, projline, qqsolvers  # noqa: F401
    from perfbench.run import TRACE_TARGETS

    originals = (qqsolvers.crt_combine, ffsolvers.factor_ff,
                 ffsolvers.is_conjugating, projline.RatMap.__init__)
    tr = Tracer()
    tr.install(TRACE_TARGETS)
    try:
        assert qqsolvers.crt_combine is exact.crt_combine is not originals[0]
        assert ffsolvers.factor_ff is factor.factor_ff is not originals[1]
        assert ffsolvers.is_conjugating is projline.is_conjugating is not originals[2]
        assert projline.RatMap.__init__ is not originals[3]
        assert tr.absent == []
    finally:
        tr.uninstall()
    assert (qqsolvers.crt_combine, ffsolvers.factor_ff,
            ffsolvers.is_conjugating, projline.RatMap.__init__) == originals
