"""Outside-in tracer: wraps the package's functions from the benchmark's
own files, records a span per call, and aggregates calls, total and
self time per function.

Self time is a span's duration minus the time covered by its wrapped
child spans.  Total time counts only the outermost activation of a
function, so recursion is not counted twice.  Functions registered as
counted (the per-element field methods) only have their calls counted:
timing them would cost more than the work they do, and their time lands
in the caller's self time.

Spans stay in memory as (span id, name, start, end, parent id, op id)
tuples, up to MAX_SPANS; later spans only feed the aggregates.
"""

from __future__ import annotations

import functools
import json
import sys
import time

PACKAGE = "autconj"
MAX_SPANS = 200_000

# fields of a per-function stats list
CALLS, TOTAL, SELF, TRUTHY, DEPTH = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.dropped = 0
        self.stats = {}           # name -> [calls, total, self, truthy, depth]
        self.absent = []
        self.op_id = None
        self._stack = []          # open frames: [start, child seconds, span id]
        self._next_id = 0
        self._undo = []

    def _stats(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def calls(self, name):
        return self.stats.get(name, (0,))[CALLS]

    def total(self, name):
        return self.stats[name][TOTAL] if name in self.stats else 0.0

    def self_time(self, name):
        return self.stats[name][SELF] if name in self.stats else 0.0

    def accept_ratio(self, name):
        """Share of calls that returned True."""
        st = self.stats.get(name)
        return st[TRUTHY] / st[CALLS] if st and st[CALLS] else 0.0

    # -- wrappers -------------------------------------------------------

    def timed(self, name, fn):
        st = self._stats(name)
        stack = self._stack
        spans = self.spans
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            st[DEPTH] += 1
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                st[DEPTH] -= 1
                dur = end - frame[0]
                st[CALLS] += 1
                if not st[DEPTH]:
                    st[TOTAL] += dur
                st[SELF] += dur - frame[1]
                if result is True:
                    st[TRUTHY] += 1
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                if len(spans) < MAX_SPANS:
                    spans.append((frame[2], name, frame[0], end, parent, tracer.op_id))
                else:
                    tracer.dropped += 1

        return wrapper

    def counted(self, name, fn):
        st = self._stats(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[CALLS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_op(self, op_id):
        """Start a new operation; drops frames a timed-out call left open."""
        self.op_id = op_id
        self._stack.clear()
        for st in self.stats.values():
            st[DEPTH] = 0

    # -- installation ---------------------------------------------------

    def install(self, targets, package=PACKAGE):
        """Wrap each (module, qualname, mode) target in every module of the
        package that binds it.  A target that no longer exists is listed
        in self.absent instead."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for module_name, qualname, mode in targets:
            name = "%s.%s" % (module_name, qualname)
            module = sys.modules.get("%s.%s" % (package, module_name))
            make = self.timed if mode == "timed" else self.counted
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.absent.append(name)
                    continue
                setattr(owner, attr, make(name, original))
                self._undo.append((owner, attr, original))
                continue
            original = getattr(module, attr, None) if module else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = make(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ---------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
