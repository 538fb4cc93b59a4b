"""Timing spans around the calls that cross the package's layer boundaries.

Each layer is one module of the package.  `Tracer.install` replaces, in
every layer module's namespace, the names through which it reaches
another layer: a function imported by name (`dynamics.new_lattice`)
becomes a timing wrapper, and an imported layer module (`pipeline`'s
`stats`) becomes a view whose public functions are wrapped.  Calls inside
one layer stay unwrapped, so a layer's self time includes its private
helpers.  Spans are kept in memory with their parent and summarised at
the end; `uninstall` puts every original name back.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
import types

LAYERS = ("lattice", "dynamics", "trends", "theory", "stats", "io",
          "pipeline", "cli")

# Time metrics: the self time of the spans of one layer whose function is
# in the set; None takes the layer's spans that no other entry names.
TIME_GROUPS = {
    "lattice.build_s": ("lattice", None),
    "dynamics.run_simulation_s": ("dynamics", {"run_simulation"}),
    "dynamics.returns_s": ("dynamics", {"magnetization_to_returns"}),
    "trends.normalize_s": ("trends", {"normalize_returns",
                                      "normalize_raw_returns"}),
    "trends.weights_s": ("trends", {"weight_step", "weight_psi", "weight_phi",
                                    "statistical_warmup"}),
    "trends.trend_strength_s": ("trends", {"trend_strength",
                                           "trend_strength_recursive"}),
    "trends.adjacent_windows_s": ("trends", {"adjacent_window_trends"}),
    "stats.bootstrap_s": ("stats", {"bootstrap_errors_xy",
                                    "bootstrap_errors"}),
    "stats.fit_cubic_s": ("stats", {"fit_cubic_xy", "fit_cubic"}),
    "stats.moment_scaling_s": ("stats", {"moment_scaling"}),
    "stats.fit_kappa_s": ("stats", {"fit_kappa"}),
    "theory.trend_variance_s": ("theory", {"predicted_trend_variance"}),
    "theory.trend_return_correlation_s": (
        "theory", {"predicted_trend_return_correlation"}),
    "theory.other_s": ("theory", None),
    "io.load_price_csv_s": ("io", {"load_price_csv"}),
    "io.write_s": ("io", {"write_csv", "write_json", "write_trend_csv"}),
    "io.hash_s": ("io", {"sha256_of_file", "sha256_of_text"}),
    "pipeline.simulate_self_s": ("pipeline", {"cmd_simulate"}),
    "pipeline.analyze_self_s": ("pipeline", {"cmd_analyze"}),
    "pipeline.predict_self_s": ("pipeline", {"cmd_predict"}),
    "cli.self_s": ("cli", None),
}

SIM_LABELS = ("2d-L16", "2d-L128", "3d-L16")


def _flips(args, kwargs, result):
    p = args[0] if args else kwargs["params"]
    return {"flips": p.sweeps * p.side ** p.dims,
            "label": f"{p.dims}d-L{p.side}"}


def _resamples(args, kwargs, result):
    return {"resamples": args[2] if len(args) > 2 else kwargs["n_samples"],
            "kept": int(result.samples.shape[0])}


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Counts read off a call's arguments or result after its span has ended;
# layer_metrics sums each key over a pass.
PROBES = {
    ("dynamics", "run_simulation"): _flips,
    ("trends", "trend_strength"):
        lambda args, kwargs, result: {"samples": len(result.values)},
    ("stats", "bootstrap_errors_xy"): _resamples,
    ("stats", "fit_cubic_xy"):
        lambda args, kwargs, result: {"fit_calls": 1, "obs": result.n_obs},
    ("theory", "predicted_trend_variance"):
        lambda args, kwargs, result: {"variance_calls": 1},
    ("io", "load_price_csv"): lambda args, kwargs, result: {
        "cells": sum(len(m.prices) for m in result.markets)},
    ("io", "write_csv"): _written,
    ("io", "write_json"): _written,
}


class _LayerView:
    """Stands for a layer module inside another layer's namespace."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self._wrapped = wrapped

    def __getattr__(self, name):
        try:
            return self._wrapped[name]
        except KeyError:
            return getattr(self._module, name)


class Tracer:
    """In-memory spans: [parent, layer, function, start_ns, end_ns, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        probe = PROBES.get((layer, name))
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, layer, name, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"latticemarket.{layer}")
                   for layer in LAYERS}
        layer_of = {m.__name__: layer for layer, m in modules.items()}
        views = {}
        for layer, module in modules.items():
            wrapped = {name: self.wrap(layer, name, fn)
                       for name, fn in vars(module).items()
                       if inspect.isfunction(fn) and not name.startswith("_")
                       and fn.__module__ == module.__name__}
            views[layer] = (module, wrapped)
        for layer, module in modules.items():
            for name, value in list(vars(module).items()):
                if isinstance(value, types.ModuleType):
                    target = layer_of.get(value.__name__)
                    if target is None or target == layer:
                        continue
                    replacement = _LayerView(*views[target])
                elif inspect.isfunction(value) and not name.startswith("_"):
                    target = layer_of.get(value.__module__)
                    if target is None or target == layer:
                        continue
                    replacement = views[target][1][value.__name__]
                else:
                    continue
                self._saved.append((module, name, value))
                setattr(module, name, replacement)

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Seconds of each span not covered by its child spans."""
    own = [(s[4] - s[3]) * 1e-9 for s in spans]
    for s in spans:
        if s[0] >= 0:
            own[s[0]] -= (s[4] - s[3]) * 1e-9
    return own


def roots(spans: list[list]) -> list[int]:
    """Index of the top-level span each span descends from."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[0] < 0 else out[s[0]])
    return out


def layer_self_by_root(spans: list[list]) -> dict[int, dict[str, float]]:
    """{root span index: {layer: self seconds}}, one root per CLI command."""
    own = self_times(spans)
    table: dict[int, dict[str, float]] = {}
    for i, r in enumerate(roots(spans)):
        row = table.setdefault(r, dict.fromkeys(LAYERS, 0.0))
        row[spans[i][1]] += own[i]
    return table


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced pass over a workload."""
    own = self_times(spans)
    named = {}
    for metric, (layer, funcs) in TIME_GROUPS.items():
        if funcs is not None:
            for f in funcs:
                named[(layer, f)] = metric
    catch_all = {layer: metric for metric, (layer, funcs) in TIME_GROUPS.items()
                 if funcs is None}
    out = dict.fromkeys(TIME_GROUPS, 0.0)
    counts: dict[str, int] = {}
    kernel_s = dict.fromkeys(SIM_LABELS, 0.0)
    flips = dict.fromkeys(SIM_LABELS, 0)
    for span, t in zip(spans, own):
        layer, func, info = span[1], span[2], span[5] or {}
        metric = named.get((layer, func), catch_all.get(layer))
        if metric is not None:
            out[metric] += t
        for key, value in info.items():
            if key != "label":
                counts[key] = counts.get(key, 0) + value
        if info.get("label") in kernel_s:
            kernel_s[info["label"]] += t
            flips[info["label"]] += info["flips"]

    def rate(count_key, seconds):
        return counts.get(count_key, 0) / seconds if seconds > 0 else 0.0

    out["dynamics.flip_attempts"] = counts.get("flips", 0)
    for label in SIM_LABELS:
        out[f"dynamics.flips_per_s.{label}"] = (
            flips[label] / kernel_s[label] if kernel_s[label] > 0 else 0.0)
    out["trends.trend_samples_per_s"] = rate("samples",
                                             out["trends.trend_strength_s"])
    out["stats.bootstrap_resamples_per_s"] = rate("resamples",
                                                  out["stats.bootstrap_s"])
    out["stats.bootstrap_kept_ratio"] = (
        counts["kept"] / counts["resamples"] if counts.get("resamples") else 0.0)
    out["stats.fit_cubic_calls"] = counts.get("fit_calls", 0)
    out["stats.fit_cubic_obs_per_s"] = rate("obs", out["stats.fit_cubic_s"])
    out["theory.trend_variance_calls"] = counts.get("variance_calls", 0)
    out["io.price_cells_per_s"] = rate("cells", out["io.load_price_csv_s"])
    out["io.bytes_written"] = counts.get("bytes", 0)
    return out
