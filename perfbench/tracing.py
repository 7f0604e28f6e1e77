"""Outside-in tracer for the tailcal package.

Wraps every public module-level function of every ``tailcal`` module and
rebinds the wrapper wherever a module holds a reference to the original
(``cli`` imports ``train`` with ``from .model import train``). Each call
becomes a span with its name, start, end, parent span and error flag. Spans
stay in memory; :func:`aggregate` turns them into per-function self and
total time when the run ends. Nothing under ``src/`` changes.

The tracer keeps one span stack, so it assumes the traced calls run on one
thread (the benchmark never passes ``--workers``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    parent: int  # index into Tracer.spans, -1 for a root span
    outer: bool  # False when an enclosing span has the same name (recursion)
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, name: str, index: int):
    return kwargs[name] if name in kwargs else args[index]


# Work counts recorded at a function's boundary, keyed by bare function
# name so that they follow a function that moves to another module. Each
# takes (args, kwargs, result) and returns {count_name: value}.
COUNTERS = {
    "batch_loss_and_grads": lambda a, k, r: {"rows": len(_arg(a, k, "features", 1))},
    "load_dataset": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, "path", 0))},
    "save_dataset": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, "path", 1))},
    "load_logit_dump": lambda a, k, r: {"rows": len(r[1])},
    "save_logit_dump": lambda a, k, r: {"rows": len(_arg(a, k, "logits", 1))},
}


class Tracer:
    """Records one span per wrapped call; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def reset(self) -> None:
        self.spans, self._stack, self._active = [], [], {}

    def call(self, name: str, counter, fn, args, kwargs):
        depth = self._active.get(name, 0)
        span = Span(name, self.clock(), self._stack[-1] if self._stack else -1, depth == 0)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._active[name] = depth + 1
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = self.clock()
            self._stack.pop()
            self._active[name] = depth
        if counter is not None:
            try:
                span.counts = counter(args, kwargs, result)
            except (TypeError, IndexError, KeyError, OSError):
                span.counts = {}  # signature changed: the count is absent
        return result

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name.rsplit(".", 1)[-1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, counter, fn, args, kwargs)

        return traced


def package_functions(package: str = "tailcal") -> dict[str, object]:
    """Every public function defined at module level in the package, keyed
    ``<layer>.<function>`` where the layer is the defining module's short
    name. ``__main__`` is skipped because importing it runs the CLI."""
    pkg = importlib.import_module(package)
    found = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"{package}.{info.name}")
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                found[f"{info.name}.{attr}"] = obj
    return found


class Instrumentation:
    """Installs and removes tracer wrappers across the package's modules."""

    def __init__(self, tracer: Tracer, package: str = "tailcal"):
        self.functions = package_functions(package)
        self.modules = [
            m for n, m in sorted(sys.modules.items())
            if n == package or n.startswith(package + ".")
        ]
        # id -> (original, wrapper); the identity check guards against reused ids
        self._wrappers = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in self.functions.items()}
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._rebound.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._rebound:
            setattr(module, attr, original)
        self._rebound = []


def no_calls() -> dict:
    return {"calls": 0, "errors": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}}


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per-function calls, errors, self time, total time and counts.

    Self time is a span's duration minus the durations of its direct child
    spans. Total time sums only outermost spans of a name, so recursion is
    not counted twice.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    stats: dict[str, dict] = {}
    for i, span in enumerate(spans):
        s = stats.setdefault(span.name, no_calls())
        duration = span.end - span.start
        s["calls"] += 1
        s["errors"] += int(span.error)
        s["self_s"] += duration - covered[i]
        if span.outer:
            s["total_s"] += duration
        for key, value in span.counts.items():
            s["counts"][key] = s["counts"].get(key, 0) + value
    return stats


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def op_metrics(stats: dict[str, dict], functions, layers, wanted) -> tuple[dict, list[str]]:
    """Flat per-layer metrics for one traced operation.

    ``functions`` are the ``<layer>.<function>`` names that exist in the
    package, ``layers`` the layers to report, and ``wanted`` the declared
    per-function metric names. A declared function found under another
    layer is reported under that layer; one that no longer exists is
    returned in the second value, as absent.
    """
    by_function = {n.split(".", 1)[1]: n for n in functions}
    metrics: dict[str, float] = {}
    for layer in layers:
        mine = [s for n, s in stats.items() if layer_of(n) == layer]
        metrics[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
        metrics[f"{layer}.calls"] = sum(s["calls"] for s in mine)
        metrics[f"{layer}.errors"] = sum(s["errors"] for s in mine)
    absent = []
    for declared in wanted:
        parts = declared.split(".")
        if len(parts) == 2:  # a derived layer rate, e.g. model.step_ms
            function, stat = DERIVED[parts[1]], parts[1]
        else:
            function, stat = parts[1], parts[2]
        name = by_function.get(function)
        if name is None:
            absent.append(declared)
            continue
        s = stats.get(name) or no_calls()
        key = f"{layer_of(name)}.{stat}" if len(parts) == 2 else f"{name}.{stat}"
        metrics[key] = function_stat(s, stat)
    return metrics, absent


# Layer-level rates derived from one function: metric suffix -> function.
DERIVED = {"step_ms": "batch_loss_and_grads"}


def function_stat(s: dict, stat: str) -> float:
    counts, total = s["counts"], s["total_s"]
    if stat in ("calls", "errors", "self_s", "total_s"):
        return s[stat]
    if stat == "rows":
        return counts.get("rows", 0)
    if stat == "rows_per_s":
        return counts.get("rows", 0) / total if total > 0 else 0.0
    if stat == "mb_per_s":
        return counts.get("bytes", 0) / 1e6 / total if total > 0 else 0.0
    if stat == "step_ms":
        return 1000.0 * total / s["calls"] if s["calls"] else 0.0
    raise ValueError(f"unknown per-function statistic {stat!r}")


UNITS = {
    "self_s": "s", "total_s": "s", "calls": "count", "errors": "count",
    "rows": "count", "rows_per_s": "rows/s", "mb_per_s": "MB/s",
    "step_ms": "ms", "overhead_frac": "fraction", "traced_s": "s", "untraced_s": "s",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]
