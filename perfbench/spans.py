"""Span recorder for the traced run.

Every public function of the ``qubitrd`` modules is wrapped in a recorder
that appends one span (name, start, end, parent span, operation id, raised)
to an in-memory list. Wrappers go on every module binding of a function, so
``qubitrd.verify.sweep_curve`` is traced as well as
``qubitrd.ratedistortion.sweep_curve``. Construction of ``KrausChannel`` and
``RateCurveInterpolator`` is traced through their ``__post_init__`` and
``__init__``. Spans are written out only when a run ends.

This program has one caller and no queues, so a span's self time is busy
time; nothing in it waits.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable

# Modules whose public functions are wrapped, in the order their bindings
# are scanned. The cli module contributes only ``main``: its other
# functions are argument handling and formatting, which should count as
# ``cli.main`` self time.
LAYERS = ("linalg", "quantum", "ratedistortion", "verify", "realization")
CLASS_HOOKS = (
    ("quantum", "KrausChannel", "__post_init__"),
    ("verify", "RateCurveInterpolator", "__init__"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    op: int  # operation id set by the timed loop, -1 outside operations
    raised: bool


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(name, start, end, parent, self.op, raised)

        return traced

    def finished(self) -> list[Span]:
        """All spans; call only when no span is open."""
        if self._stack:
            raise RuntimeError("spans are still open")
        return list(self.spans)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.finished():
                handle.write(
                    json.dumps([s.name, s.start, s.end, s.parent, s.op, s.raised])
                    + "\n"
                )


def load(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle if line.strip()]


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        yield name, obj


def install(recorder: Recorder, package) -> Callable[[], None]:
    """Wrap the package's public functions on every binding; return an undo.

    ``package`` is the imported ``qubitrd`` package.
    """
    modules = {layer: getattr(package, layer) for layer in LAYERS}
    modules["cli"] = getattr(package, "cli")
    targets = {}
    for layer, module in modules.items():
        if layer == "cli":
            targets[id(module.main)] = ("cli.main", module.main)
            continue
        for name, fn in _public_functions(module):
            targets[id(fn)] = (f"{layer}.{name}", fn)

    undo = []
    for module in [package, *modules.values()]:
        for attr, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[1] is value:
                setattr(module, attr, recorder.wrap(hit[0], value))
                undo.append((module, attr, value))
    for layer, cls_name, method in CLASS_HOOKS:
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, recorder.wrap(f"{layer}.{cls_name}", original))
        undo.append((cls, method, original))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0


def aggregate(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name call counts, inclusive time, self time and raised spans.

    Self time is a span's duration minus the durations of its direct
    children; spans of one caller nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    stats: dict[str, LayerStats] = {}
    for i, s in enumerate(spans):
        entry = stats.setdefault(s.name, LayerStats())
        entry.calls += 1
        entry.total_s += s.end - s.start
        entry.self_s += (s.end - s.start) - child_time[i]
        entry.errors += int(s.raised)
    return stats


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that have a span ``ancestor`` above them."""
    count = 0
    for s in spans:
        if s.name != name:
            continue
        parent = s.parent
        while parent >= 0:
            if spans[parent].name == ancestor:
                count += 1
                break
            parent = spans[parent].parent
    return count
