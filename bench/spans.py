"""Spans around the calls that cross into pathfuse's layers, for the traced run.

The tracer rebinds the public names that ``pathfuse.cli`` and the ``pathfuse``
package bind, in this process only, so that a call from the CLI or from the
benchmark into a layer records a span: name, start, end, parent span and
operation id.  Calls inside the library are not wrapped.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np


def _changed(args, kwargs, out) -> int:
    s = args[0]
    moved = (s.positions != out.positions) | (s.orientations != out.orientations)
    return int(np.count_nonzero(moved.any(axis=1)))


# (layer module, function) -> {count name: f(args, kwargs, result)}
TRACED = {
    ("demo", "parse_demo"): {"rows": lambda a, k, r: len(r)},
    ("demo", "filter_outliers"): {"replaced": _changed},
    ("demo", "downsample"): {"ratio": lambda a, k, r: len(r) / len(a[0])},
    ("demo", "synth_demo"): {"samples": lambda a, k, r: len(r)},
    ("cad", "parse_cad"): {},
    ("cad", "resample_cad"): {"points_out": lambda a, k, r: len(r)},
    ("fusion", "fuse"): {"points": lambda a, k, r: len(r), "time_fallback": lambda a, k, r: int(r.time_parameterized)},
    ("fusion", "to_robot_frame"): {},
    ("fusion", "fused_path_to_json"): {},
    ("fusion", "fused_path_from_json"): {},
    ("pathml", "build_document"): {},
    ("pathml", "write_xml"): {"bytes": lambda a, k, r: len(r)},
    ("pathml", "parse_xml"): {"bytes": lambda a, k, r: len(a[0])},
    ("pathml", "expand_layers"): {},
    ("pathml", "validate_document"): {},
    ("program", "validate_path"): {"violations": lambda a, k, r: len(r.violations)},
    ("program", "emit_program"): {"lines": lambda a, k, r: len(r.lines)},
    ("program", "deviation_report"): {},
}

CLI_STEPS = ("fuse", "pathml_gen", "pathml_validate", "pathml_expand", "emit", "report")


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self, pathfuse_pkg):
        self.pkg = pathfuse_pkg
        self.spans: list[list] = []  # [op id, name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([self._op, name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][3] = time.perf_counter()

    def _wrap(self, name: str, fn, counters):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, count in counters.items():
                self.counts[f"{name}.{key}"] += count(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self):
        """Trace one operation: wrap the layer entry points for its duration."""
        self._op += 1
        targets = [self.pkg, self.pkg.cli]
        saved = []
        for (layer, fn_name), counters in TRACED.items():
            original = getattr(self.pkg, fn_name, None)
            if original is None:
                continue  # the name left the public API; its metrics read 0
            wrapped = self._wrap(f"{layer}.{fn_name}", original, counters)
            for mod in targets:
                if getattr(mod, fn_name, None) is original:
                    saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)
        try:
            with self.span("op"):
                yield self.span
        finally:
            for mod, fn_name, original in saved:
                setattr(mod, fn_name, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-op mean self time and calls of every traced name, plus work counts."""
        n_ops = max(1, self._op + 1)
        child = defaultdict(float)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for i, s in enumerate(self.spans):
            self_ms[s[1]] += (s[3] - s[2] - child[i]) * 1000.0
            calls[s[1]] += 1
        out = {}
        for (layer, fn_name), counters in TRACED.items():
            name = f"{layer}.{fn_name}"
            out[f"{name}.self_ms"] = self_ms[name] / n_ops
            out[f"{name}.calls"] = calls[name] / n_ops
            for key in counters:
                out[f"{name}.{key}"] = self.counts[f"{name}.{key}"] / n_ops
        for step in CLI_STEPS:
            out[f"cli.{step}.self_ms"] = self_ms[f"cli.{step}"] / n_ops
        out["bench.op.self_ms"] = self_ms["op"] / n_ops
        return out

    def write(self, path) -> None:
        keys = ("op", "name", "start", "end", "parent")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)
