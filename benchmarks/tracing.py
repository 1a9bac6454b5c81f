"""Spans around the calls that cross from one ``taurho`` layer into another.

The tracer replaces each layer's public functions at the module
attributes through which other layers and the benchmark reach them: the
defining module (``taurho.shuffles.canonicalize``, which ``verify``
imports at call time; ``taurho.verify.check_main_inequality``, which
``cli`` reaches as ``_verify.check_main_inequality``), every module that
imported the name (``taurho.realize.phi_boundary``, ``taurho.cli.realize``)
and the package namespace.  A wrapped call records a span only when it
enters its layer from outside it; a call between two functions of one
layer runs straight through, so its time stays in the caller's span.

Spans hold the function, the parent span, start and end times, and one
count of work (pieces, grid points, region points or instances tested)
read off the arguments or the result.  They stay in memory until
:meth:`Tracer.write` dumps them.  Nothing under ``src/`` is touched: the
originals are put back by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("shuffles", "concordance", "region", "realize", "verify", "cli")

_REGION_POINT_FUNCS = {"phi_boundary", "varphi", "theta", "contains"}


def public_functions(layer: str) -> dict:
    """The functions that ``taurho.<layer>`` defines and lists in ``__all__``."""
    module = importlib.import_module(f"taurho.{layer}")
    out = {}
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """Records layer-crossing spans while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []          # "layer.function" per function id
        self.layer_of: list[str] = []
        # (span id, function id, parent id, start, end, work, scalar argument),
        # appended as spans close, so children come before their parents.
        self.spans: list[tuple] = []
        self._count = 0
        self._stack: list[tuple[int, str]] = [(-1, "bench")]   # open (span id, layer)
        self._patched: list[tuple] = []

    # --- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function in every taurho namespace."""
        targets = {}
        for layer in LAYERS:
            for name, fn in public_functions(layer).items():
                targets[id(fn)] = self._wrap(layer, name, fn)
        modules = [importlib.import_module("taurho")]
        modules += [importlib.import_module(f"taurho.{layer}") for layer in LAYERS]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _function_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(self, layer: str, name: str, fn):
        fn_id = self._function_id(f"{layer}.{name}", layer)
        measure = _work_reader(layer, name)
        takes_points = layer == "region" and name in _REGION_POINT_FUNCS
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, caller = stack[-1]
            if not self.enabled or caller == layer:
                return fn(*args, **kwargs)
            idx = self._count
            self._count = idx + 1
            stack.append((idx, layer))
            work = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                work = measure(args, kwargs, result)
            finally:
                end = clock()
                stack.pop()
                scalar = takes_points and (
                    not args or isinstance(args[0], tuple) or np.ndim(args[0]) == 0
                )
                spans.append((idx, fn_id, parent, start, end, work, scalar))
            return result

        return wrapper

    @contextlib.contextmanager
    def op_span(self, label: str):
        """Record one benchmark operation as a root span while enabled."""
        if not self.enabled:
            yield
            return
        name = f"bench.{label}"
        fn_id = self.names.index(name) if name in self.names else self._function_id(name, "bench")
        idx = self._count
        self._count = idx + 1
        self._stack.append((idx, "bench"))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((idx, fn_id, -1, start, end, 0.0, False))

    def write(self, path) -> None:
        """Write the spans as JSON lines: one header, then one line per span
        as [id, function id, parent id, start, end, work]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": self.names}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(list(span[:6])) + "\n")


def _work_reader(layer: str, name: str):
    """How one span's work count is read from a call of ``layer.name``."""
    if layer == "concordance" and name in ("tau_rho", "inv_invs"):
        return lambda args, kwargs, result: float(args[0].n)
    if layer == "concordance" and name == "oracle_tau_rho":
        return lambda args, kwargs, result: float(
            kwargs.get("grid_m", args[1] if len(args) > 1 else 2000)
        )
    if layer == "shuffles":
        def pieces(args, kwargs, result):
            n = getattr(result, "n", None)
            return float(n) if hasattr(result, "perm") and n is not None else 0.0
        return pieces
    if layer == "region" and name == "contains":
        return lambda args, kwargs, result: 1.0
    if layer == "region" and name in _REGION_POINT_FUNCS:
        return lambda args, kwargs, result: float(np.size(args[0]))
    if layer == "verify" and name.startswith("check_"):
        return lambda args, kwargs, result: float(result.instances_tested)
    if layer == "verify" and name == "run_all_checks":
        return lambda args, kwargs, result: float(sum(r.instances_tested for r in result))
    return lambda args, kwargs, result: 0.0


def check_metric_name(span_name: str) -> str | None:
    """``verify.<check>_s`` key for a span, or None if it is not a check."""
    if span_name.startswith("verify.check_"):
        return span_name[len("verify.check_"):]
    if span_name == "region.area_quadrature":
        return "area"
    return None


def layer_metrics(tracer: Tracer, ops: int, targets: int, check_names) -> dict:
    """Per-layer figures from the recorded spans, per benchmark operation.

    ``ops`` is the number of operations run while tracing; ``targets`` the
    number of those that were ``realize`` calls made by the benchmark.
    Returns {name: (value, unit, better)}.
    """
    spans = sorted(tracer.spans)
    n = len(spans)
    fn = [s[1] for s in spans]
    parent = [s[2] for s in spans]
    dur = [s[4] - s[3] for s in spans]
    work = [s[5] for s in spans]
    scalar = [s[6] for s in spans]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    layer = [tracer.layer_of[f] for f in fn]
    name = [tracer.names[f] for f in fn]

    def inside(i: int, wanted: str) -> bool:
        p = parent[i]
        while p >= 0:
            if layer[p] == wanted:
                return True
            p = parent[p]
        return False

    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    pieces_scored = oracle_points = pieces_built = 0.0
    region_points = 0.0
    scalar_calls = 0
    region_in_realize = 0
    pieces_in_realize = 0.0
    instances = 0.0
    check_time = {c: 0.0 for c in check_names}
    check_calls = {c: 0 for c in check_names}
    for i in range(n):
        lay = layer[i]
        if lay == "bench":
            continue
        calls[lay] += 1
        self_s[lay] += dur[i] - child[i]
        nm = name[i]
        w = work[i]
        if nm in ("concordance.tau_rho", "concordance.inv_invs"):
            pieces_scored += w
        elif nm == "concordance.oracle_tau_rho":
            oracle_points += w
        elif lay == "shuffles":
            pieces_built += w
            if inside(i, "realize"):
                pieces_in_realize += w
        elif lay == "region":
            if nm.split(".")[1] in _REGION_POINT_FUNCS:
                region_points += w
                scalar_calls += int(scalar[i])
            if inside(i, "realize"):
                region_in_realize += 1
        elif lay == "verify":
            instances += w
        key = check_metric_name(nm)
        if key is not None and key in check_time:
            check_time[key] += dur[i]
            check_calls[key] += 1

    per = 1.0 / max(ops, 1)
    out = {}
    for lay in LAYERS:
        out[f"{lay}.calls"] = (calls[lay] * per, "1/op", "lower")
        out[f"{lay}.self_s"] = (self_s[lay] * per, "s/op", "lower")
    out["concordance.pieces_scored"] = (pieces_scored * per, "1/op", "lower")
    out["concordance.oracle_points"] = (oracle_points * per, "1/op", "lower")
    out["shuffles.pieces_built"] = (pieces_built * per, "1/op", "lower")
    out["region.points"] = (region_points * per, "1/op", "lower")
    out["region.scalar_calls"] = (scalar_calls * per, "1/op", "lower")
    tper = 1.0 / targets if targets else 0.0
    out["realize.region_calls_per_target"] = (region_in_realize * tper, "1/target", "lower")
    out["realize.pieces_per_target"] = (pieces_in_realize * tper, "1/target", "lower")
    out["verify.instances"] = (instances * per, "1/op", "higher")
    for c in check_names:
        mean = check_time[c] / check_calls[c] if check_calls[c] else 0.0
        out[f"verify.{c}_s"] = (mean, "s", "lower")
    return out
