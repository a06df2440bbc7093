"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions listed in LAYERS.  Each wrapper
replaces the function under every name it is bound to in a loaded trilam
module, so calls through `from ... import` bindings are timed as well; the
program's own files are not changed.  While the tracer is recording, a call
records a span (name, start, end, parent) in memory, and a layer's time is
the sum of the self times of its spans: a span's duration minus the time of
its direct child spans.

`circle` and `chords` are not wrapped: they run millions of tiny calls, and
a Python wrapper would cost more than the work it times.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, function) -> layer.  Several functions may share a layer; the
# layer's time then sums their self times, so nesting inside one layer
# (canonical_diameter -> canonical_of_quadratic_gap) is not counted twice.
LAYERS: Dict[Tuple[str, str], str] = {
    ("trilam.lamination", "canonical_of_quadratic_gap"): "lamination.build",
    ("trilam.lamination", "canonical_diameter"): "lamination.build",
    ("trilam.lamination", "canonical_of_rotational"): "lamination.build",
    ("trilam.lamination", "quadratic_canonical"): "lamination.build",
    ("trilam.lamination", "check_invariance"): "lamination.check",
    ("trilam.lamination", "dumps"): "lamination.dumps",
    ("trilam.lamination", "write_lamination"): "lamination.dumps",
    ("trilam.lamination", "loads"): "lamination.loads",
    ("trilam.lamination", "read_lamination"): "lamination.loads",
    ("trilam.lamination", "classify_smp"): "lamination.classify_smp",
    ("trilam.lamination", "project_through_gap"): "lamination.project",
    ("trilam.core", "periodic_rotational_classes"): "core.rotational_classes",
    ("trilam.quadgap", "classify_critical"): "quadgap.classify_critical",
    ("trilam.quadgap", "build_gap"): "quadgap.build_gap",
    ("trilam.quadgap", "psi"): "quadgap.psi",
    ("trilam.lamsets", "enumerate_rotational"): "lamsets.enumerate_rotational",
    ("trilam.render", "render"): "render.render",
    ("trilam.cli", "main"): "cli.main",
}

# Work counted at a function boundary from the call's arguments and result.
# A build counts only when no other build encloses it, so that
# canonical_diameter -> canonical_of_quadratic_gap is one build.
COUNTERS: Dict[str, Callable[[tuple, object], Dict[str, int]]] = {
    **{f"lamination.{fn}": (lambda a, r: {"lamination.builds": 1,
                                          "lamination.leaves_built": len(r.leaves)})
       for (_, fn), layer in LAYERS.items() if layer == "lamination.build"},
    "lamination.check_invariance": lambda a, r: {"lamination.leaves_checked": r.leaf_count},
    "lamination.dumps": lambda a, r: {"lamination.bytes_written": len(r.encode())},
    "lamination.loads": lambda a, r: {"lamination.bytes_read": len(a[0].encode())},
    "core.periodic_rotational_classes": lambda a, r: {"core.classes": len(r.cut_classes)},
    "quadgap.classify_critical": lambda a, r: {"quadgap.critical_chords": 1},
    "quadgap.build_gap": lambda a, r: {"quadgap.gaps": 1},
    "quadgap.psi": lambda a, r: {"quadgap.psi_calls": 1},
    "lamsets.enumerate_rotational": lambda a, r: {"lamsets.rotational_sets": len(r)},
    "render.render": lambda a, r: {"render.svg_bytes": len(r.encode())},
    "cli.main": lambda a, r: {"cli.commands": 1},
}

TIME_METRICS = [layer + "_s" for layer in dict.fromkeys(LAYERS.values())]
COUNT_METRICS = [
    "lamination.builds", "lamination.leaves_built", "lamination.leaves_checked",
    "lamination.bytes_written", "lamination.bytes_read", "core.classes",
    "quadgap.critical_chords", "quadgap.gaps", "quadgap.psi_calls",
    "lamsets.rotational_sets", "render.svg_bytes", "cli.commands",
]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, Optional[int]]] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self.recording = False
        self._stack: List[int] = []
        self._open = Counter()  # layer -> spans of it now open
        self._bindings: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "trilam" or n.startswith("trilam.")]
        for (mod_name, fn_name), layer in LAYERS.items():
            orig = getattr(sys.modules[mod_name], fn_name)
            name = f"{mod_name.removeprefix('trilam.')}.{fn_name}"
            wrapper = self._wrap(orig, name, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._bindings):
            setattr(mod, attr, orig)
        self._bindings.clear()

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        spans, stack, open_ = self.spans, self._stack, self._open
        count = COUNTERS.get(name)
        nested_counts = layer != "lamination.build"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            counted = nested_counts or open_[layer] == 0
            label = f"{name} {args[0][0]}" if name == "cli.main" else name
            idx = len(spans)
            spans.append((label, 0.0, 0.0, parent))
            stack.append(idx)
            open_[layer] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                open_[layer] -= 1
                stack.pop()
                spans[idx] = (label, t0, t1, parent)
            if count is not None and counted:
                for key, n in count(args, result).items():
                    self.counts[key] += n
            return result

        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Self time per span name; cli.main spans are named after their
        subcommand."""
        child_time = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: Dict[str, float] = {}
        for (name, t0, t1, _), child in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child
        return out

    def layer_times(self) -> Dict[str, float]:
        out = {name: 0.0 for name in TIME_METRICS}
        for name, t in self.self_times().items():
            out[_LAYER_OF_NAME[name.split()[0]] + "_s"] += t
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")


_LAYER_OF_NAME = {f"{mod.removeprefix('trilam.')}.{fn}": layer
                  for (mod, fn), layer in LAYERS.items()}
