"""Timing shims for the traced run.

Only ``run.py --trace 1`` imports this module.  ``Tracer.install`` replaces
the names each calling module looks up (``memgift.pipeline.compile_layout``,
``memgift.layout.round_addition_masks``, ...) with wrappers that record one
span per call: boundary name, start, end, parent span and op id.  Spans
stay in memory until ``write_spans``.  A boundary's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter

from memgift import energy, gift, layout, masking, pipeline

Session = pipeline.EncryptionSession

# boundary -> (owner, attribute) pairs that the callers look the layer up by.
BOUNDARIES = {
    "gift.encrypt_block": [(pipeline, "encrypt_block"), (gift, "encrypt_block")],
    "gift.round_addition_masks": [(layout, "round_addition_masks")],
    "layout.compile_layout": [(pipeline, "compile_layout")],
    "crossbar.program_slice": [(pipeline, "program_slice")],
    "crossbar.draw_read_factors": [(pipeline, "draw_read_factors")],
    "crossbar.read_round": [(pipeline, "read_round")],
    "pipeline.session_init": [(Session, "__init__")],
    "pipeline.encrypt": [(Session, "encrypt"), (Session, "encrypt_with_error_count")],
    "pipeline.export_trace": [(pipeline, "export_round_trace"), (pipeline, "export_analog_trace")],
    "pipeline.run_sweep": [(pipeline, "run_sweep")],
    "masking.apply_mask": [(masking, "apply_mask")],
    "masking.encrypt_masked": [(masking, "encrypt_masked")],
    "energy.account": [(energy, "account")],
}

# Boundaries whose distinct argument tuples are counted, for the waste ratios.
UNIQUE_ARGS = ("layout.compile_layout", "gift.encrypt_block")


class Tracer:
    def __init__(self, persistent_sessions=()):
        self.names = list(BOUNDARIES)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.distinct = {name: set() for name in UNIQUE_ARGS}
        self.reads = self.cell_writes = self.bit_errors = 0
        self.op = -1
        self._span_name = array("h")
        self._span_parent = array("q")
        self._span_op = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack = []  # [span id, seconds covered by child spans]
        self._persistent = list(persistent_sessions)
        self._base = []
        self._new_sessions = []
        self._saved = []

    # -- ops ------------------------------------------------------------------

    def begin_op(self, i: int) -> None:
        self.op = i
        self._base = [_session_counts(s) for s in self._persistent]

    def end_op(self) -> None:
        for s, (reads, writes) in zip(self._persistent, self._base):
            now_reads, now_writes = _session_counts(s)
            self.reads += now_reads - reads
            self.cell_writes += now_writes - writes
        for s in self._new_sessions:
            reads, writes = _session_counts(s)
            self.reads += reads
            self.cell_writes += writes
        self._new_sessions.clear()
        self.op = -1

    # -- shims ----------------------------------------------------------------

    def install(self) -> None:
        for idx, (name, targets) in enumerate(BOUNDARIES.items()):
            for owner, attr in targets:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(idx, name, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, idx: int, name: str, attr: str, fn):
        tracer = self
        distinct = self.distinct.get(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            in_op = tracer.op >= 0
            if in_op and distinct is not None:
                distinct.add(args + tuple(sorted(kwargs.items())))
            sid = len(tracer._span_start)
            frame = [sid, 0.0]
            tracer._span_name.append(idx)
            tracer._span_parent.append(tracer._stack[-1][0] if tracer._stack else -1)
            tracer._span_op.append(tracer.op)
            tracer._span_end.append(0.0)
            tracer._stack.append(frame)
            start = perf_counter()
            tracer._span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._span_end[sid] = end
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                if in_op:
                    tracer.calls[idx] += 1
                    tracer.self_s[idx] += end - start - frame[1]
            if in_op:
                if attr == "__init__":
                    tracer._new_sessions.append(args[0])
                elif attr == "encrypt_with_error_count":
                    tracer.bit_errors += result[1]
            return result

        return shim

    # -- results --------------------------------------------------------------

    def metrics(self, ops: int, op_seconds: float) -> dict:
        """Per-op calls and self time, share of op time, counts and ratios."""
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[idx] / ops
            out[f"{name}.self_s"] = self.self_s[idx] / ops
            out[f"{name}.share"] = self.self_s[idx] / op_seconds
        out["pipeline.reads"] = self.reads / ops
        out["crossbar.cell_writes"] = self.cell_writes / ops
        out["pipeline.bit_errors"] = self.bit_errors / ops
        for name in UNIQUE_ARGS:
            calls = self.calls[self.names.index(name)]
            # No calls in the ops means no repeated work.
            out[f"{name}.unique_ratio"] = len(self.distinct[name]) / calls if calls else 1.0
        return out

    def write_spans(self, path) -> int:
        with open(path, "w") as fp:
            fp.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                 "names": self.names}) + "\n")
            for sid, row in enumerate(zip(self._span_name, self._span_start, self._span_end,
                                          self._span_parent, self._span_op)):
                name, start, end, parent, op = row
                fp.write(f"[{sid},{name},{start!r},{end!r},{parent},{op}]\n")
        return len(self._span_start)


def _session_counts(session) -> tuple[int, int]:
    return session.reads_executed, session.write_log.get("cell_write")
