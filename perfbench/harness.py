"""Closed-loop operation runner with a wall-clock cap, and the end-to-end
statistics computed from its records.

The cap is an interval timer (SIGALRM) armed around each call, so no
thread or process is started: the known hangs are pure-Python loops,
which the interpreter interrupts between bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

COMPLETED = "completed"
REFUSED = "refused"
TIMED_OUT = "timed_out"


class OpTimeout(BaseException):
    """Raised by the timer inside a capped call.

    A BaseException, so that solver code catching Exception (or
    ValueError) cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def alarm_handler():
    """Install the cap's signal handler for the duration of a run."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_capped(fn, cap: float):
    """Call fn() under the cap: (outcome, result, seconds, error text)."""
    clock = time.perf_counter
    t0 = clock()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return TIMED_OUT, None, clock() - t0, "cap %.1fs" % cap
    except Exception as e:  # a solver refusal; the run goes on
        return REFUSED, None, clock() - t0, "%s: %s" % (type(e).__name__, e)
    return COMPLETED, result, clock() - t0, ""


@dataclass
class Record:
    op: str
    kind: str        # "aut" or "conj"
    stratum: str
    outcome: str
    seconds: float
    error: str = ""


def charged(records, cap):
    """Per-operation times with every failed operation counted at the cap."""
    return [r.seconds if r.outcome == COMPLETED else cap for r in records]


def tail(times):
    """(value, percentile, samples): the highest percentile with at least
    ten operations beyond it, i.e. the eleventh-largest time."""
    n = len(times)
    ordered = sorted(times)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records, cap, busy_seconds, tail_ops):
    """The timed-phase metrics from one run's records.

    busy_seconds is the summed wall time of the operations themselves,
    excluding the gate's checking between them.  The tail is taken over
    the first tail_ops records only, so that its sample count, and with
    it the percentile, does not change with the number of rounds a run
    fits in.
    """
    times = charged(records, cap)
    aut = charged([r for r in records if r.kind == "aut"], cap)
    conj = charged([r for r in records if r.kind == "conj"], cap)
    completed = sum(r.outcome == COMPLETED for r in records)
    tail_value, tail_pct, n = tail(times[:tail_ops])
    out = {
        "solve_p50_s": statistics.median(times),
        "solve_tail_s": tail_value,
        "aut_p50_s": statistics.median(aut) if aut else None,
        "conj_p50_s": statistics.median(conj) if conj else None,
        "ops_per_s": completed / busy_seconds,
        "completed_frac": completed / len(records),
        "failed_frac": 1 - completed / len(records),
    }
    info = {"tail_percentile": round(tail_pct, 2), "tail_samples": n}
    return out, info
