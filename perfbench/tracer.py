"""Span recorder that times calls into optocorr's public functions.

Probes replace module attributes (the names callers look up at call
time) with wrappers that record one span per call: name, start, end,
parent span and one float payload.  Nothing in ``src/optocorr`` is
edited; ``uninstall`` puts every original back.

Spans stay in memory.  A process forked while probes are installed (the
workers of ``run_sweep(..., workers=N)``) cannot hand its memory back, so
it appends each finished root span tree to a shared file in one
``O_APPEND`` write; ``drain`` merges that file into the parent's list.
"""

from __future__ import annotations

import importlib
import os
import struct
from time import perf_counter_ns

# pid, name index, span id, parent id (0 = root), start ns, end ns, payload
_RECORD = struct.Struct("<iHqqqqd")

# payload of a span whose call raised
RAISED = -1.0


class Tracer:
    """Holds the spans of one process; one instance per benchmark process."""

    def __init__(self, spill_path: str):
        self.spill_path = spill_path
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._pid = os.getpid()
        self._spill_fd = None
        self._pending: list[bytes] = []
        self._patched: list[tuple] = []
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        ix = self._index.get(name)
        if ix is None:
            ix = self._index[name] = len(self.names)
            self.names.append(name)
        return ix

    def _after_fork_in_child(self):
        self._pid = os.getpid()
        self._stack = []
        self.spans = []
        self._pending = []
        self._spill_fd = os.open(self.spill_path,
                                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def _record(self, name_ix, sid, parent, t0, t1, payload):
        if self._spill_fd is None:
            self.spans.append((self._pid, name_ix, sid, parent, t0, t1, payload))
            return
        self._pending.append(_RECORD.pack(self._pid, name_ix, sid, parent, t0, t1, payload))
        if not self._stack:
            os.write(self._spill_fd, b"".join(self._pending))
            self._pending = []

    def call(self, name: str, fn, *args, payload=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `payload(args, result)` gives the span's float payload; its own
        run time is recorded as a child span "trace.payload" so that it is
        not charged to the caller's self time.
        """
        name_ix = self._name_index(name)
        parent = self._stack[-1] if self._stack else 0
        self._next_id += 1
        sid = self._next_id
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            t1 = perf_counter_ns()
            self._stack.pop()
            self._record(name_ix, sid, parent, t0, t1, RAISED)
            raise
        t1 = perf_counter_ns()
        self._stack.pop()
        value = 0.0
        if payload is not None:
            self._next_id += 1
            p0 = perf_counter_ns()
            value = float(payload(args, out))
            self._record(self._name_index("trace.payload"), self._next_id, parent,
                         p0, perf_counter_ns(), 0.0)
        self._record(name_ix, sid, parent, t0, t1, value)
        return out

    # -- probes ------------------------------------------------------------

    def install(self, probes, ref=None, ref_every=0):
        """Patch each (target, attribute, span name, payload) probe.

        `target` is a module path or "module:Class".  With `ref`, every
        `ref_every`-th call of a probe first runs ref() in a span named
        "bench.ref".  Names are indexed here, before any worker forks, so
        that workers and parent agree.
        """
        for name in ("trace.payload", "bench.ref"):
            self._name_index(name)
        for target, attr, name, payload in probes:
            self._name_index(name)
            mod_name, _, cls_name = target.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._probe(name, original, payload, ref, ref_every))

    def _probe(self, name, fn, payload, ref, ref_every):
        calls = 0

        def probe(*args, **kwargs):
            nonlocal calls
            if ref is not None and calls % ref_every == 0:
                self.call("bench.ref", ref)
            calls += 1
            return self.call(name, fn, *args, payload=payload, **kwargs)
        probe.__wrapped__ = fn
        return probe

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def drain(self):
        """Return [(pid, name, id, parent, t0, t1, payload)] and reset."""
        spans = [(pid, self.names[ix], sid, parent, t0, t1, value)
                 for pid, ix, sid, parent, t0, t1, value in self.spans]
        self.spans = []
        if os.path.exists(self.spill_path):
            with open(self.spill_path, "rb") as fh:
                data = fh.read()
            os.unlink(self.spill_path)
            for pid, ix, sid, parent, t0, t1, value in _RECORD.iter_unpack(data):
                spans.append((pid, self.names[ix], sid, parent, t0, t1, value))
        return spans


def write_spans(path: str, spans) -> None:
    """Write spans once, as CSV, at the end of a traced run."""
    with open(path, "w") as fh:
        fh.write("pid,name,id,parent,start_ns,end_ns,payload\n")
        for span in spans:
            fh.write(",".join(str(v) for v in span) + "\n")


def self_times(spans):
    """{(pid, id): duration minus the time covered by its child spans}."""
    child = {}
    for pid, _, _, parent, t0, t1, _ in spans:
        if parent:
            child[(pid, parent)] = child.get((pid, parent), 0) + (t1 - t0)
    return {(pid, sid): (t1 - t0) - child.get((pid, sid), 0)
            for pid, _, sid, _, t0, t1, _ in spans}
