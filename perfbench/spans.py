"""Span tracer that wraps the package's public functions from the outside.

``install`` replaces every public function of the layer modules, in every
loaded ``dipolink`` module namespace that refers to it, by a wrapper that
records a span: name, start, end, parent span and, for a few functions, a
small dict of counts taken from the arguments and the result. Calls that go
through a module global (``from .spectral import decompose`` and then
``decompose(h)``) therefore see the wrapper, exactly as the calling module
sees the function. Spans stay in memory; ``layer_metrics`` turns a finished
trace into the per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types
from collections import defaultdict

LAYERS = ("lattice", "spectral", "transfer", "optimize", "disorder", "cli")

# Functions from outside the package that a layer calls through its own
# namespace, traced under that layer's name.
FOREIGN = {("optimize", "minimize")}

START, END, PARENT, NAME, INFO = range(5)


def _grid_info(args, result):
    times = args["times"]
    eig = args["spec"].eigenvalues
    return {
        "points": len(times),
        "n": len(eig),
        "t_max": float(times[-1]) if len(times) else 0.0,
        "bandwidth": float(eig[-1] - eig[0]),
    }


HOOKS = {
    "spectral.propagator_abs_grid": _grid_info,
    "transfer.find_peak": lambda args, result: {"f_abs": float(result[0])},
    "optimize.optimize_placement": lambda args, result: {
        "evaluations": int(result.report["evaluations"]),
        "min_fidelity": float(args["config"].min_fidelity),
    },
    "disorder.run_disorder": lambda args, result: {
        "samples": int(result.samples),
        "rejected": int(result.rejected),
    },
}


class Tracer:
    """Collects spans as ``[start, end, parent, name, info]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        hook = HOOKS.get(name)
        signature = inspect.signature(func) if hook else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [0.0, 0.0, stack[-1] if stack else -1, name, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[INFO] = hook(bound.arguments, result)
            return result

        return traced


def _span_name(attr: str, value, module_layer: str | None) -> str | None:
    origin = getattr(value, "__module__", "") or ""
    parts = origin.split(".")
    if len(parts) == 2 and parts[0] == "dipolink" and parts[1] in LAYERS:
        return f"{parts[1]}.{value.__name__}"
    if (module_layer, attr) in FOREIGN:
        return f"{module_layer}.{attr}"
    return None


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions in every loaded package module.

    One wrapper is made per function, so every namespace that refers to it
    records the same span.
    """
    wrappers: dict[int, types.FunctionType] = {}
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "dipolink" or key.startswith("dipolink."))]
    for module in modules:
        parts = module.__name__.split(".")
        layer = parts[1] if len(parts) == 2 and parts[1] in LAYERS else None
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            name = _span_name(attr, value, layer)
            if name is None:
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = tracer.wrap(name, value)
            setattr(module, attr, wrappers[id(value)])


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[START], span[END]
        kids = [(max(spans[c][START], lo), min(spans[c][END], hi))
                for c in children[i]]
        out.append((hi - lo) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def _fidelity(f_abs: float) -> float:
    return f_abs / 3.0 + f_abs * f_abs / 6.0 + 0.5


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Spans whose call count and self time are reported by name.
TIMED = ("lattice.build_hamiltonian", "spectral.decompose",
         "spectral.propagator_abs_grid", "spectral.propagator",
         "transfer.find_peak")
SELF_ONLY = ("optimize.optimize_placement", "optimize.minimize",
             "disorder.run_disorder", "cli.main")


def layer_metrics(spans: list[list], traced_wall: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced invocation.

    ``traced_wall`` is the invocation's wall time measured around the
    traced call; ``trace.untraced_s`` is the part of it outside every span,
    so the layer self times plus ``trace.untraced_s`` add up to it. Counts
    and ratios of a layer the workload does not reach are 0.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span, s in zip(spans, own):
        calls[span[NAME]] += 1
        self_s[span[NAME]] += s
        layer_self[span[NAME].split(".")[0]] += s

    m: dict[str, float] = {}
    for name in TIMED:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s[name]

    grid = [s for s in spans if s[NAME] == "spectral.propagator_abs_grid"]
    m["spectral.propagator_abs_grid.points"] = sum(s[INFO]["points"] for s in grid)
    m["spectral.propagator_abs_grid.exps"] = sum(
        s[INFO]["points"] * s[INFO]["n"] for s in grid)

    in_peak = [s[INFO] for s in grid
               if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "transfer.find_peak"]
    scans = [g for g in in_peak if g["points"] > 1]
    m["transfer.grid_points"] = sum(g["points"] for g in scans)
    m["transfer.refine_evals"] = sum(1 for g in in_peak if g["points"] == 1)
    oversample = [(g["points"] - 1) * 2.0 * math.pi / (g["t_max"] * g["bandwidth"])
                  for g in scans if g["t_max"] > 0 and g["bandwidth"] > 0]
    m["transfer.grid_oversample_min"] = min(oversample, default=0.0)

    evals = sum(s[INFO]["evaluations"] for s in spans
                if s[NAME] == "optimize.optimize_placement" and s[INFO])
    feasible = sum(1 for i, s in enumerate(spans)
                   if s[NAME] == "lattice.build_hamiltonian"
                   and _has_ancestor(spans, i, "optimize.minimize"))
    verify = [(s[INFO]["f_abs"], spans[s[PARENT]][INFO]) for s in spans
              if s[NAME] == "transfer.find_peak" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "optimize.optimize_placement"]
    passed = sum(1 for f_abs, parent in verify
                 if parent and _fidelity(f_abs) >= parent["min_fidelity"])
    m["optimize.objective_evals"] = evals
    m["optimize.feasible_eval_ratio"] = _ratio(feasible, evals)
    m["optimize.verify_calls"] = len(verify)
    m["optimize.verify_pass_ratio"] = _ratio(passed, len(verify))

    runs = [s[INFO] for s in spans if s[NAME] == "disorder.run_disorder" and s[INFO]]
    samples = sum(r["samples"] for r in runs)
    redraws = sum(r["rejected"] for r in runs)
    m["disorder.samples"] = samples
    m["disorder.redraws"] = redraws
    m["disorder.accept_ratio"] = _ratio(samples, samples + redraws)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0]
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_s"] = traced_wall - _covered(roots)
    return m
