"""In-memory span recorder that wraps sbpkit's public functions.

A span records the wrapped function's name and layer (the sbpkit module
that defines it), its start and end on ``time.perf_counter``, the index of
the span that was open when it began, the pass it belongs to, whether it
returned or raised, and a few attributes taken from its arguments and
result.  Spans stay in memory until the run ends.

Wrapping happens from outside the package: every module attribute bound
to a wrapped function, in every loaded ``sbpkit`` module, is replaced, so
calls through re-exports (``sbpkit.find_operator``) and through names
imported into other modules (``sbpkit.solver.find_operator``) are both
seen.  :func:`unpatched_sites` reports any binding that still points at
an original function.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("spaces", "quadrature", "operators", "solver", "diagnostics", "cli")

#: binding sites named explicitly because the run depends on them being
#: patched; a miss fails the self-check even if the scan finds nothing
REQUIRED_SITES = (
    "sbpkit.find_operator",
    "sbpkit.operators.find_positive_rule",
    "sbpkit.operators.build_operator",
    "sbpkit.solver.find_operator",
    "sbpkit.cli.run",
    "sbpkit.cli.convergence_table",
)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    pass_id: str
    ok: bool = True
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pass": self.pass_id,
            "ok": self.ok,
            "attrs": self.attrs,
        }


class Recorder:
    """Collects spans while a pass is open; wrappers are inert otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def recording(self, pass_id: str):
        self.pass_id = pass_id
        try:
            yield
        finally:
            self.pass_id = None
            self._stack.clear()

    def wrap(self, layer: str, name: str, fn: Callable, attrs_fn=None) -> Callable:
        rec = self

        def wrapper(*args, **kwargs):
            if rec.pass_id is None:
                return fn(*args, **kwargs)
            span = Span(
                name=name,
                layer=layer,
                start=0.0,
                end=0.0,
                parent=rec._stack[-1] if rec._stack else -1,
                pass_id=rec.pass_id,
            )
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
                if attrs_fn is not None:
                    span.attrs = attrs_fn(args, kwargs, result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-bounds children never make a
    self time negative or count twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, s.duration - covered))
    return out


#: samples that must lie above a reported percentile
MIN_BEYOND = 10


def percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or None without enough support.

    The value is reported only when at least ``MIN_BEYOND`` samples lie
    strictly above its rank, so a p98 needs 500 samples.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def _public_functions(module) -> dict[str, Callable]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for n in names:
        obj = getattr(module, n, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[n] = obj
    return out


def _sbpkit_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "sbpkit" or name.startswith("sbpkit."))
    ]


@dataclass
class Instrumentation:
    """Which originals were wrapped and where each wrapper was installed."""

    originals: dict
    sites: list[str]
    _undo: list = field(default_factory=list)

    def restore(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def instrument(rec: Recorder, attrs: dict | None = None) -> Instrumentation:
    """Wrap every public function of the six layers at every binding site.

    ``attrs`` maps ``"layer.name"`` to a callable ``(args, kwargs,
    result) -> dict`` that fills the span's attributes.
    """
    attrs = attrs or {}
    wrappers: dict[int, Callable] = {}
    originals: dict[int, str] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"sbpkit.{layer}")
        for name, fn in _public_functions(module).items():
            key = f"{layer}.{name}"
            wrappers[id(fn)] = rec.wrap(layer, name, fn, attrs.get(key))
            originals[id(fn)] = key
    inst = Instrumentation(originals=originals, sites=[])
    for module in _sbpkit_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                inst._undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
                inst.sites.append(f"{module.__name__}.{attr}")
    return inst


def unpatched_sites(inst: Instrumentation) -> list[str]:
    """Bindings that still reach an original function, plus required misses."""
    missed = [
        f"{module.__name__}.{attr}"
        for module in _sbpkit_modules()
        for attr, value in vars(module).items()
        if id(value) in inst.originals and inspect.isfunction(value)
    ]
    missed += [s for s in REQUIRED_SITES if s not in inst.sites]
    return missed
