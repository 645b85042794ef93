"""Spans around calls into udbound's public functions, patched from outside.

While a traced round runs, every public function of the package's layer
modules is replaced, in every udbound module namespace that binds it, by a
wrapper that records a span: name, start, end, parent span and job id.
Private helpers (``_assemble``, ``_project_cone``, ...) are not wrapped;
their time is self time of the public function that called them.  Spans
stay in memory and are written out once, when the benchmark ends.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans plus the time outside any span add up to
the traced job time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "jsonio", "ensembles", "cones", "operators", "programs", "solver", "verify")

# Public methods traced on their class: span name -> (layer, class, attribute).
METHODS = {
    "ensembles.reconstruct": ("ensembles", "SeparableDecomposition", "reconstruct"),
    "ensembles.reconstruct_elements": ("ensembles", "LoccProtocol", "reconstruct_elements"),
    "ensembles.psd_residual": ("ensembles", "Measurement", "psd_residual"),
}

# Functions of other packages that a layer calls through its own namespace.
FOREIGN = {"solver": ("cho_factor", "cho_solve")}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.subspace_keys: set[tuple[int, int, int]] = set()
        self._held: list[object] = []
        self._stack: list[list] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self.job = -1
        self.job_keys: list[str] = []
        self.round = -1
        self.origin = time.perf_counter()

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function where udbound modules look it up."""
        modules = {layer: sys.modules[f"udbound.{layer}"] for layer in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets[id(obj)] = (f"{layer}.{attr}", obj)
            for attr in FOREIGN.get(layer, ()):
                obj = getattr(mod, attr)
                targets[id(obj)] = (f"{layer}.{attr}", obj)
        namespaces = [m for name, m in sys.modules.items() if name == "udbound" or name.startswith("udbound.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    self._patch(mod, attr, self._wrap(targets[id(obj)][0], obj))
        for name, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job < 0:
                return fn(*args, **kwargs)
            idx = self._next
            self._next += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                dur = end - start
                if self._stack:
                    self._stack[-1][1] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                self.spans.append((idx, name, start - self.origin, end - self.origin, parent, self.job))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- results --------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_s.items():
            out[name.split(".", 1)[0]] += value
        return out

    def hold(self, obj) -> None:
        """Keep ``obj`` alive so its id stays a valid identity for the run."""
        self._held.append(obj)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"jobs": self.job_keys, "clock": "perf_counter seconds from run start"}) + "\n")
            for idx, name, start, end, parent, job in sorted(self.spans):
                fh.write(json.dumps([idx, name, start, end, parent, job]) + "\n")


def _observe_solve(tracer: Tracer, args, kwargs, report) -> None:
    program = _arg(args, kwargs, 0, "program")
    m = len(program.constraints)
    n = sum(b.side * b.side for b in program.blocks) + sum(c.sense == "ge" for c in program.constraints)
    tracer.counts["programs.constraints"] += m
    tracer.counts["programs.vars"] += n
    tracer.peaks["solver.dense_A_mb"] = max(tracer.peaks["solver.dense_A_mb"], m * n * 8 / 1e6)
    tracer.counts["solver.solve.iterations"] += report.iterations
    tracer.counts["solver.solve.optimal"] += report.status == "optimal"


def _observe_subspace(tracer: Tracer, args, kwargs, basis) -> None:
    ensemble = _arg(args, kwargs, 0, "ensemble")
    tracer.hold(ensemble)
    tracer.subspace_keys.add((tracer.round, id(ensemble), int(_arg(args, kwargs, 1, "i"))))
    key = "cones.conclusive_subspace.dim_max"
    tracer.peaks[key] = max(tracer.peaks[key], basis.shape[1])


def _observe_file(name: str):
    def observe(tracer: Tracer, args, kwargs, _result) -> None:
        tracer.counts[f"{name}.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return observe


_OBSERVERS = {
    "solver.solve": _observe_solve,
    "cones.conclusive_subspace": _observe_subspace,
    "jsonio.write_json": _observe_file("jsonio.write_json"),
    "jsonio.read_json": _observe_file("jsonio.read_json"),
}
