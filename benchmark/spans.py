"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the hequel modules from outside the
package: nothing under ``src/`` knows it exists. Each wrapped call opens a
span that records its name, start, end and parent, plus the gate kernel's
counters at both ends. Self time and self counts are a span's own figures
minus those of its child spans, so summing self figures over every span of
an op gives the op's totals exactly once, recursion included.

Aggregates cover every span. Raw spans are kept only up to ``KEEP_SPANS``
so that a long run does not let the trace set memory; they are written out
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

from hequel import plans, protocol, relalg, serial

# Span name for each wrapped function, by owner. ``protocol`` imports
# ``oblivious_sort_rows`` and ``op_count`` by name, so those wrappers go on
# both names.
RELALG_OPS = ("op_select", "op_count", "op_sum", "op_min", "op_max",
              "op_avg", "op_distinct", "op_sort", "op_groupby_sum",
              "op_bag_intersect", "op_bag_diff", "oblivious_sort_rows")
PLAN_WALKERS = ("typecheck", "encrypt_plan_literals", "plan_to_obj",
                "plan_from_obj", "eval_encrypted")
SERIAL_ENCODE = ("message_to_bytes", "table_to_obj", "row_to_obj",
                 "word_to_obj")
SERIAL_DECODE = ("message_from_bytes", "table_from_obj", "row_from_obj",
                 "word_from_obj")
CLIENT_PHASES = ("upload_message", "query_message", "read_count",
                 "fetch_message", "read_rows_and_verify")
# ``ServerStore.handle`` dispatches each message type to one handler; the
# handlers are wrapped so the span names the type without reading bytes.
SERVER_HANDLERS = {"_handle_upload": "upload_table", "_handle_query": "query",
                   "_handle_fetch": "fetch_rows_request"}
SERVER_MESSAGES = tuple(SERVER_HANDLERS.values())
KEEP_SPANS = 20000


def counters(state) -> tuple[int, int, int, int]:
    """The kernel counters every span snapshots: AND, XOR, refresh and
    fresh-encryption counts."""
    return (state.and_count, state.xor_count, state.refresh_count,
            state.encrypt_count)


class Tracer:
    """In-memory span recorder bound to one kernel state."""

    def __init__(self, state):
        self.state = state
        self.spans: list[tuple] = []
        # name -> [calls, self_s, incl_s, self counts x4, incl counts x4]
        self.totals: dict[str, list] = {}
        self._stack: list[list] = []
        self._next_id = 0
        # time spent in the child spans of the last root span to close
        self.last_root_child_s = 0.0

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][5] if self._stack else 0
        self._stack.append([name, time.perf_counter(), counters(self.state),
                            0.0, [0, 0, 0, 0], self._next_id, parent])

    def exit(self) -> None:
        t1 = time.perf_counter()
        c1 = counters(self.state)
        name, t0, c0, child_s, child_c, span_id, parent = self._stack.pop()
        incl_s = t1 - t0
        incl_c = [b - a for a, b in zip(c0, c1)]
        if self._stack:
            up = self._stack[-1]
            up[3] += incl_s
            up[4] = [x + y for x, y in zip(up[4], incl_c)]
        else:
            self.last_root_child_s = child_s
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0] + [0] * 8
        tot[0] += 1
        tot[1] += incl_s - child_s
        tot[2] += incl_s
        for i in range(4):
            tot[3 + i] += incl_c[i] - child_c[i]
            tot[7 + i] += incl_c[i]
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((span_id, parent, name, t0, t1, c0, c1))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, fn, name: str):
        """Wrap ``fn`` in a span called ``name``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def self_figures(self, name: str) -> dict:
        """Summed self figures of every span called ``name``."""
        tot = self.totals.get(name, [0, 0.0, 0.0] + [0] * 8)
        return {"calls": tot[0], "s": tot[1], "and": tot[3], "xor": tot[4],
                "refresh": tot[5], "encrypt": tot[6]}

    def inclusive_figures(self, name: str) -> dict:
        """Summed inclusive figures; exact only for non-recursive spans."""
        tot = self.totals.get(name, [0, 0.0, 0.0] + [0] * 8)
        return {"calls": tot[0], "s": tot[2], "and": tot[7], "xor": tot[8],
                "refresh": tot[9], "encrypt": tot[10]}

    def write(self, path) -> None:
        fields = ["id", "parent", "name", "start", "end",
                  "counters_start", "counters_end"]
        with open(path, "w") as fh:
            json.dump({"counters": ["and", "xor", "refresh", "encrypt"],
                       "fields": fields, "spans": self.spans}, fh)


def _targets():
    """(owner, attribute, span name) for every function the trace wraps."""
    out = []
    for fn in RELALG_OPS:
        out.append((relalg, fn, f"relalg.{fn}"))
    for fn in ("oblivious_sort_rows", "op_count"):
        out.append((protocol, fn, f"relalg.{fn}"))
    for fn in PLAN_WALKERS:
        out.append((plans, fn, f"plans.{fn}"))
    for fn in SERIAL_ENCODE:
        out.append((serial, fn, "serial.encode"))
    for fn in SERIAL_DECODE:
        out.append((serial, fn, "serial.decode"))
    for fn in CLIENT_PHASES:
        out.append((protocol.ClientSession, fn, f"protocol.{fn}"))
    for fn, mtype in SERVER_HANDLERS.items():
        out.append((protocol.ServerStore, fn, f"protocol.handle.{mtype}"))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced function for the duration of the block."""
    saved = []
    try:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

