import time

from perfbench import harness as H


def test_cap_turns_a_busy_loop_into_a_timeout_then_the_next_op_runs():
    def spin():
        while True:
            pass

    with H.alarm_handler():
        t0 = time.perf_counter()
        outcome, result, seconds, error = H.run_capped(spin, 0.2)
        assert outcome == H.TIMED_OUT and result is None
        assert 0.2 <= seconds < 2.0 and time.perf_counter() - t0 < 2.0
        outcome, result, _, _ = H.run_capped(lambda: sum(range(1000)), 1.0)
        assert outcome == H.COMPLETED and result == 499500


def test_timeout_is_not_swallowed_by_a_solver_catching_exception():
    def stubborn():
        while True:
            try:
                while True:
                    pass
            except Exception:
                pass

    with H.alarm_handler():
        outcome, _, _, _ = H.run_capped(stubborn, 0.1)
    assert outcome == H.TIMED_OUT


def test_a_raising_solver_is_refused():
    def refuse():
        raise RuntimeError("splitting field degree 42 is out of reach")

    with H.alarm_handler():
        outcome, _, _, error = H.run_capped(refuse, 1.0)
    assert outcome == H.REFUSED and "RuntimeError" in error


def test_tail_is_the_eleventh_largest():
    times = [float(i) for i in range(1, 41)]
    value, pct, n = H.tail(times)
    assert value == 30.0 and pct == 75.0 and n == 40


def test_failed_operations_count_at_the_cap():
    recs = [H.Record("a%d" % i, "aut", "s", H.COMPLETED, 0.1) for i in range(5)]
    recs += [H.Record("c%d" % i, "conj", "s", H.COMPLETED, 0.3) for i in range(4)]
    recs += [H.Record("t", "aut", "s", H.TIMED_OUT, 4.2),
             H.Record("r", "conj", "s", H.REFUSED, 0.01)]
    m, info = H.end_to_end(recs, 4.0, busy_seconds=2.0, tail_ops=len(recs))
    assert m["solve_p50_s"] == 0.3
    assert m["aut_p50_s"] == 0.1 and m["conj_p50_s"] == 0.3
    assert m["ops_per_s"] == 9 / 2.0
    assert abs(m["failed_frac"] - 2 / 11) < 1e-12
    assert abs(m["completed_frac"] - 9 / 11) < 1e-12
    assert info["tail_samples"] == 11


def test_tail_does_not_change_when_more_rounds_run():
    # three rounds of 20 operations, one of them capped, then extra rounds
    # of faster operations, as a sped-up program would fit in
    def round_(scale):
        recs = [H.Record("o%d" % i, "aut", "s", H.COMPLETED, scale * i)
                for i in range(19)]
        return recs + [H.Record("h", "aut", "s", H.TIMED_OUT, 4.1)]

    first = round_(0.1) + round_(0.1) + round_(0.1)
    base, base_info = H.end_to_end(first, 4.0, 1.0, tail_ops=len(first))
    for extra in (1, 5):
        more = first + [r for _ in range(extra) for r in round_(0.01)]
        m, info = H.end_to_end(more, 4.0, 1.0, tail_ops=len(first))
        assert m["solve_tail_s"] == base["solve_tail_s"]
        assert info == base_info
    assert base["solve_tail_s"] == 0.1 * 16 and base_info["tail_samples"] == 60
