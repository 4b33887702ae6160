"""Span tracer for risjam, attached from outside the package.

install() replaces the public functions and methods listed in TARGETS with
wrappers that record one span per call: (parent span, name, start, end,
note). Module-level functions are replaced under every name a risjam module
binds them to, so `from .channel import build_channel_set` in the harness is
traced too. Spans stay in memory; dump() hands them out when the job ends.

The clock is time.monotonic, which is system-wide on Linux, so a child
process can record a span that starts at its parent's spawn time.
"""

from __future__ import annotations

import functools
import os
import sys
import time

clock = time.monotonic

# (module, attribute, span name); a dotted attribute is a method of a class.
TARGETS = (
    ("risjam.harness", "main", "harness.main"),
    ("risjam.harness", "optimized_config", "harness.optimized_config"),
    ("risjam.harness", "write_csv", "harness.write_csv"),
    ("risjam.scene", "load_scenario", "scene.load_scenario"),
    ("risjam.scene", "ScenarioConfig.__init__", "scene.scenario_build"),
    ("risjam.channel", "build_channel_set", "channel.build"),
    ("risjam.channel", "cascaded_gain", "channel.cascaded_gain"),
    ("risjam.ris", "PhaseConfig.__init__", "ris.phaseconfig_build"),
    ("risjam.ris", "PhaseConfig.snapshot_id", "ris.snapshot_id"),
    ("risjam.ris", "binary_dft_codebook", "ris.codebook"),
    ("risjam.optimize", "ReceivedPowerOracle.__call__", "optimize.oracle"),
    ("risjam.optimize", "iterative_optimize", "optimize.iterative"),
    ("risjam.optimize", "dft_sweep", "optimize.dft_sweep"),
    ("risjam.optimize", "optimize_alpha", "optimize.optimize_alpha"),
    ("risjam.secrecy", "beta_terms", "secrecy.beta_terms"),
    ("risjam._kernels", "coherent_sum", "_kernels.coherent_sum"),
)


def _csv_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _accepted_flips(args, kwargs, result):
    # One pass visits each partition element once, so every accepted flip
    # leaves exactly one element changed between the input and output config.
    if kwargs.get("passes", args[4] if len(args) > 4 else 1) != 1:
        return 0
    return int((args[1].phases != result[0].phases).sum())


def _elements(args, kwargs, result):
    return len(args[0])


# What a span notes besides its time.
NOTES = {
    "harness.write_csv": _csv_bytes,
    "optimize.iterative": _accepted_flips,
    "_kernels.coherent_sum": _elements,
}


class Tracer:
    """Records spans of the TARGETS while installed; one instance per traced job."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []
        self._oracles: list = []

    def add_span(self, name: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((parent, name, start, end, 0))

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (parent, name, start, clock(), 0)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[sid] = (parent, name, start, end, note(args, kwargs, result) if note else 0)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "risjam" or k.startswith("risjam.")]
        for mod_name, attr, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)
        oracle_cls = sys.modules["risjam.optimize"].ReceivedPowerOracle
        init = oracle_cls.__dict__["__init__"]
        oracles = self._oracles

        @functools.wraps(init)
        def register(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            oracles.append(obj)

        self._patch(oracle_cls, "__init__", init, register)

    def _patch(self, owner, key, orig, wrapper) -> None:
        self._restore.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def oracle_calls(self) -> int:
        """Sum of ReceivedPowerOracle.calls over the oracles built while installed."""
        return sum(o.calls for o in self._oracles)

    def dump(self) -> dict:
        return {"spans": self.spans, "oracle_calls": self.oracle_calls()}

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._oracles.clear()


def summarize(spans) -> dict:
    """Per-name call counts, self and inclusive seconds, and note totals.

    Oracle calls are split into flips (every call inside an iterative pass
    after its first, incumbent measurement) and full-configuration calls.
    """
    durations = [end - start for _, _, start, end, _ in spans]
    self_time = list(durations)
    for (parent, *_), d in zip(spans, durations):
        if parent >= 0:
            self_time[parent] -= d
    out: dict = {}
    first_oracle_seen: set = set()
    for i, (parent, name, _, _, note) in enumerate(spans):
        if name == "optimize.oracle":
            in_pass = parent >= 0 and spans[parent][1] == "optimize.iterative"
            if in_pass and parent in first_oracle_seen:
                name = "optimize.oracle.flip"
            else:
                first_oracle_seen.add(parent)
                name = "optimize.oracle.full"
        calls, self_s, incl_s, notes = out.get(name, (0, 0.0, 0.0, 0))
        out[name] = (calls + 1, self_s + self_time[i], incl_s + durations[i], notes + note)
    return out
