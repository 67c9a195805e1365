"""Benchmark of the autconj solvers: one workload, one seed, one run.

    python3 perfbench/run.py --workload qq-crt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
src/.  One process, one thread, a closed loop: each operation starts when
the previous one has returned, under a wall-clock cap.

--trace 0 prints the end-to-end metrics of a timed run.  --trace 1 runs
one round untraced, then builds the inputs again and runs the same round
with the tracer installed, then once more untraced, and prints the
per-layer metrics; the tracing overhead compares the traced round with
the mean of the two untraced ones, which cancels a steady drift in the
machine's speed.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  A wrong answer exits 1; a checkout without src/autconj exits 2
before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:  # run as a script
    sys.path.insert(0, str(ROOT))

from perfbench import harness as H  # noqa: E402
from perfbench.tracer import SELF, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Lib, build  # noqa: E402

CAP_S = 4.0            # wall-clock cap of one operation
SETUP_REPEATS = 5      # set-ups per timed run; setup_s is their median
TRACE_ROUNDS = 1       # rounds run in each phase of a traced run

# The metric names and units are those of BENCHMARK.json.  A per-layer
# name "<module>.<function or Class.method>.<stat>" names the function
# the tracer wraps and the statistic read from it; every other per-layer
# metric is derived in traced_run.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
STATS = ("calls", "self_s", "total_s", "accept_ratio")
TRACED = {name: name.rpartition(".")[0] for name in PER_LAYER
          if name.rpartition(".")[2] in STATS}

# (module, function or Class.method, mode): the finitefield element
# methods are only counted, since timing them costs more than their work.
TRACE_TARGETS = [
    (fn.partition(".")[0], fn.partition(".")[2],
     "counted" if fn.startswith("finitefield.") else "timed")
    for fn in dict.fromkeys(TRACED.values())
]


def provenance():
    """Git revision (read from .git when present) and a source digest."""
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "autconj").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "source_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def execute(rounds, cap, seconds=0.0, max_rounds=None, tracer=None):
    """Run whole rounds until `seconds` have passed and every built round
    has run once (or until max_rounds are done).

    Returns (records, busy seconds, answers, rounds run).  Without a
    tracer every answer is checked at the end of its round; with one,
    answers are the (round, op, result) of the completed operations, for
    the caller to check once the tracer is off."""
    records, answers = [], []
    busy = 0.0
    start = time.perf_counter()
    done = 0
    while True:
        gc.collect()  # start each round without the last round's garbage
        answered = []
        for op in rounds[done % len(rounds)]:
            if tracer is not None:
                tracer.begin_op(op.id)
            outcome, res, dt, err = H.run_capped(op.call, cap)
            busy += dt
            records.append(H.Record(op.id, op.kind, op.stratum, outcome, dt, err))
            if outcome == H.COMPLETED:
                answered.append((done, op, res))
        if tracer is None:
            check_answers(answered, len(records))
        else:  # checked once the tracer is off
            answers += answered
        done += 1
        if max_rounds is not None and done >= max_rounds:
            break
        if done >= len(rounds) and time.perf_counter() - start >= seconds:
            break
    return records, busy, answers, done


def check_answers(answers, attempted):
    """The correctness gate over (round, op, result).  Ops of one round
    share a context, filled in the order the round was built, so an Aut
    answer is there for the Conj checks that use it."""
    ctx, current = {}, None
    for rnd, op, res in sorted(answers, key=lambda a: (a[0], a[1].seq)):
        if rnd != current:
            ctx, current = {}, rnd
        try:
            op.check(res, ctx)
        except Exception as e:
            raise WrongAnswer("%s: %s: %s" % (op.id, type(e).__name__, e),
                              attempted)


def crt_counts(answers):
    """(primes used, fiber elements) of every CRT answer."""
    return [(len(res.primes), sum(res.fibers)) for _, _, res in answers
            if getattr(res, "algorithm", None) == "crt"]


class WrongAnswer(Exception):
    def __init__(self, message, attempted):
        super().__init__(message)
        self.attempted = attempted


def timed_run(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = Lib(fresh=True)
        rounds = build(workload, seed, lib)
        setups.append(time.perf_counter() - t0)
    records, busy, _, done = execute(rounds, CAP_S, seconds=seconds)
    metrics, info = H.end_to_end(records, CAP_S, busy,
                                 tail_ops=sum(len(r) for r in rounds))
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info.update(rounds_run=done, rounds_built=len(rounds), busy_s=round(busy, 3),
                setup_runs_s=[round(t, 4) for t in setups],
                conj_p50_s=metrics.pop("conj_p50_s"),
                failed_frac=metrics.pop("failed_frac"))
    out = {k: (metrics[k], unit) for k, unit in END_TO_END.items()}
    return records, out, info, rounds[0]


def traced_run(workload, seed):
    lib = Lib(fresh=True)
    rounds = build(workload, seed, lib, rounds=TRACE_ROUNDS)
    ref, ref_busy, _, _ = execute(rounds, CAP_S, max_rounds=TRACE_ROUNDS)

    tracer = Tracer()
    tracer.install(TRACE_TARGETS)
    try:
        tracer.begin_op("setup")
        rounds = build(workload, seed, lib, rounds=TRACE_ROUNDS)
        records, _, answers, _ = execute(rounds, CAP_S, max_rounds=TRACE_ROUNDS,
                                         tracer=tracer)
    finally:
        tracer.uninstall()
    check_answers(answers, len(records))
    crt = crt_counts(answers)
    after, _, _, _ = execute(rounds, CAP_S, max_rounds=TRACE_ROUNDS)

    both = [((a.seconds + c.seconds) / 2, b.seconds)
            for a, b, c in zip(ref, records, after)
            if a.outcome == b.outcome == c.outcome == H.COMPLETED]
    untraced = sum(a for a, _ in both)
    traced = sum(b for _, b in both)
    out = {}
    read = {"calls": tracer.calls, "total_s": tracer.total,
            "self_s": tracer.self_time, "accept_ratio": tracer.accept_ratio}
    for name, fn in TRACED.items():
        out[name] = (read[name.rpartition(".")[2]](fn), PER_LAYER[name])
    derived = {
        "qqsolvers.primes_per_solve":
            statistics.fmean(p for p, _ in crt) if crt else 0.0,
        "qqsolvers.fiber_elements_per_solve":
            statistics.fmean(f for _, f in crt) if crt else 0.0,
        "solve.conj_p50_s": H.end_to_end(ref, CAP_S, ref_busy, len(ref))[0]["conj_p50_s"] or 0.0,
        "trace.overhead_frac": traced / untraced - 1 if untraced else 0.0,
    }
    for name, value in derived.items():
        out[name] = (value, PER_LAYER[name])
    span_dir = ROOT / ".perfbench"
    span_dir.mkdir(exist_ok=True)
    span_file = span_dir / ("spans-%s-%d.jsonl" % (workload, seed))
    tracer.write_spans(span_file)
    layers = {}
    for fn, st in tracer.stats.items():
        layer = fn.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + st[SELF]
    info = {"layer_self_s": {k: round(v, 4) for k, v in sorted(layers.items())},
            "absent": tracer.absent, "spans": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "span_file": str(span_file.relative_to(ROOT)),
            "compared_ops": len(both)}
    return records, out, info, rounds[0]


def run_one(args):
    with H.alarm_handler():
        try:
            if args.trace:
                records, metrics, info, first_round = traced_run(args.workload, args.seed)
            else:
                records, metrics, info, first_round = timed_run(
                    args.workload, args.seed, args.seconds)
        except WrongAnswer as e:
            print("wrong answer: %s" % e, file=sys.stderr)
            print("correct: false")
            print(json.dumps({"correct": False, "attempted": e.attempted,
                              "failed": 0, "metrics": {}}))
            return 1
    composition = {}
    for op in sorted(first_round, key=lambda op: op.seq):
        composition[op.stratum] = composition.get(op.stratum, 0) + 1
    failed = sum(r.outcome != H.COMPLETED for r in records)
    head = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "cap_s": CAP_S, **provenance(),
            "attempted": len(records), "completed": len(records) - failed,
            "refused": sum(r.outcome == H.REFUSED for r in records),
            "timed_out": sum(r.outcome == H.TIMED_OUT for r in records),
            **info, "ops_per_round": len(first_round)}
    print("run " + json.dumps(head))
    print("round composition " + json.dumps(composition))
    by_stratum = {}
    for r in records:
        by_stratum[r.stratum] = by_stratum.get(r.stratum, 0.0) + r.seconds
    top = sorted(by_stratum.items(), key=lambda kv: -kv[1])[:15]
    print("seconds by stratum " + json.dumps({k: round(v, 3) for k, v in top}))
    for r in records:
        if r.outcome != H.COMPLETED:
            print("failed %s %s %.3fs %s" % (r.op, r.outcome, r.seconds, r.error))
    for name, (value, unit) in metrics.items():
        print("metric %-44s %14.6g %s" % (name, value, unit))
    print("correct: true")
    print(json.dumps({
        "correct": True, "attempted": len(records), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a child process of its own, then a summary."""
    status = 0
    summary = []
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        summary.append((w, proc.returncode, result))
    for w, rc, result in summary:
        print("== %s: exit %d, correct %s" % (w, rc, result.get("correct")))
        for name, m in result.get("metrics", {}).items():
            print("   %-44s %14.6g %s" % (name, m["value"], m["unit"]))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="qq-aut, qq-crt, ff, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "autconj" / "__init__.py").is_file():
        print("perfbench: no package sources at %s" % (SRC / "autconj"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r" % args.workload)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
