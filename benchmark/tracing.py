"""Spans at the boundaries of the delaydmd layers, recorded from outside.

Each layer's public functions are wrapped at every name the loaded
``delaydmd`` modules bind them to (``delaydmd.dmd.thin_svd`` as well as
``delaydmd.numerics.thin_svd``), so no source file changes. A span holds a
name, start, end and the index of its parent span; spans stay in memory and
are written out when the run ends. A hook whose function no longer exists is
listed as missing and the metrics that depend on it are left out.

Metrics labelled "computed" come from array shapes and file sizes, not from
hardware counters.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

MB = float(2 ** 20)


def _embed_mb(args, kwargs, result):
    return {"snapshots.embed_mb": (result.x1_aug.nbytes + result.x2_aug.nbytes) / MB}


def _csv_mb(args, kwargs, result):
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    if path.suffix == ".csv":
        path = path.with_suffix("")
    return {"snapshots.csv_mb": os.path.getsize(f"{path}.csv") / MB}


def _op_mb(kind):
    def count(args, kwargs, result):
        return {f"projections.op_mb.{kind}": result.matrix.nbytes / MB}
    return count


def _svd_gflop(args, kwargs, result):
    # Golub & Van Loan's R-SVD count for U1, sigma and V of an m-by-n matrix.
    m, n = (args[0] if args else kwargs["a"]).shape
    m, n = max(m, n), min(m, n)
    return {"numerics.thin_svd_gflop": (6.0 * m * n * n + 20.0 * n ** 3) / 1e9}


def _out_mb(args, kwargs, result):
    out = Path(args[0].out)
    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return {"cli.out_mb": size / MB}


@dataclass(frozen=True)
class Hook:
    """A function to wrap: span name, home module, function name, and an
    optional counter computed from the call's arguments and result."""

    span: str
    module: str
    func: str
    count: object = None


HOOKS = (
    Hook("problems.generate_double_gyre", "delaydmd.problems", "generate_double_gyre"),
    Hook("problems.generate_signal", "delaydmd.problems", "generate_signal"),
    Hook("snapshots.hankel_augment", "delaydmd.snapshots", "hankel_augment", _embed_mb),
    Hook("snapshots.save", "delaydmd.snapshots", "save", _csv_mb),
    Hook("snapshots.load", "delaydmd.snapshots", "load"),
    Hook("projections.sampling_operator", "delaydmd.projections", "sampling_operator",
         _op_mb("sampling")),
    Hook("projections.gaussian_operator", "delaydmd.projections", "gaussian_operator",
         _op_mb("gaussian")),
    Hook("projections.achlioptas_operator", "delaydmd.projections", "achlioptas_operator",
         _op_mb("achlioptas")),
    Hook("projections.krylov_operator", "delaydmd.projections", "krylov_operator",
         _op_mb("krylov")),
    Hook("projections.apply", "delaydmd.projections", "apply"),
    Hook("projections.gram_deviation", "delaydmd.projections", "gram_deviation"),
    Hook("numerics.thin_svd", "delaydmd.numerics", "thin_svd", _svd_gflop),
    Hook("numerics.eig_dense", "delaydmd.numerics", "eig_dense"),
    Hook("numerics.pseudoinverse_apply", "delaydmd.numerics", "pseudoinverse_apply"),
    Hook("dmd.dmd_tdc", "delaydmd.dmd", "dmd_tdc"),
    Hook("dmd.dmd_projected", "delaydmd.dmd", "dmd_projected"),
    Hook("dmd.predict", "delaydmd.dmd", "predict"),
    Hook("analysis.run_comparison", "delaydmd.analysis", "run_comparison"),
    Hook("analysis.relative_error_series", "delaydmd.analysis", "relative_error_series"),
    Hook("cli.cmd_run", "delaydmd.cli", "cmd_run", _out_mb),
)

# metric -> (unit, statistic, spans it needs). "total" sums span durations,
# "self" sums durations minus child spans, "calls" counts spans and
# "counter" sums what the hooks of those spans computed.
_BUILD = {kind: f"projections.{kind}_operator"
          for kind in ("sampling", "gaussian", "achlioptas", "krylov")}
METRICS = {
    "problems.generate_s": ("s", "total", ("problems.generate_double_gyre",
                                           "problems.generate_signal")),
    "snapshots.hankel_augment_s": ("s", "total", ("snapshots.hankel_augment",)),
    "snapshots.embed_mb": ("MB", "counter", ("snapshots.hankel_augment",)),
    "snapshots.save_s": ("s", "total", ("snapshots.save",)),
    "snapshots.load_s": ("s", "total", ("snapshots.load",)),
    "snapshots.csv_mb": ("MB", "counter", ("snapshots.save",)),
    **{f"projections.build_s.{k}": ("s", "total", (span,)) for k, span in _BUILD.items()},
    "projections.build_calls.krylov": ("count", "calls", (_BUILD["krylov"],)),
    **{f"projections.op_mb.{k}": ("MB", "counter", (span,)) for k, span in _BUILD.items()},
    "projections.apply_s": ("s", "total", ("projections.apply",)),
    "projections.apply_calls": ("count", "calls", ("projections.apply",)),
    "projections.gram_deviation_s": ("s", "total", ("projections.gram_deviation",)),
    "numerics.thin_svd_s": ("s", "total", ("numerics.thin_svd",)),
    "numerics.thin_svd_calls": ("count", "calls", ("numerics.thin_svd",)),
    "numerics.thin_svd_gflop": ("GFLOP", "counter", ("numerics.thin_svd",)),
    "numerics.eig_dense_s": ("s", "total", ("numerics.eig_dense",)),
    "numerics.pseudoinverse_apply_s": ("s", "total", ("numerics.pseudoinverse_apply",)),
    "dmd.dmd_tdc_s": ("s", "total", ("dmd.dmd_tdc",)),
    "dmd.dmd_projected_s": ("s", "self", ("dmd.dmd_projected",)),
    "dmd.predict_calls": ("count", "calls", ("dmd.predict",)),
    "analysis.run_comparison_s": ("s", "self", ("analysis.run_comparison",)),
    "analysis.relative_error_series_s": ("s", "total", ("analysis.relative_error_series",)),
    "cli.write_s": ("s", "self", ("cli.cmd_run",)),
    "cli.out_mb": ("MB", "counter", ("cli.cmd_run",)),
}
COMPUTED = tuple(name for name, (_, stat, _) in METRICS.items() if stat == "counter")


class Tracer:
    """Installs the hooks, records spans and counters, and restores the
    original functions on ``uninstall``."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counters = defaultdict(float)
        self.installed = set()
        self.missing = []
        self._stack = []
        self._originals = []

    def install(self) -> None:
        # Import every home module before patching, then wrap each function
        # wherever a loaded delaydmd module binds it, under whatever name.
        homes = {hook.module: importlib.import_module(hook.module) for hook in HOOKS}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "delaydmd" or name.startswith("delaydmd."))]
        for hook in HOOKS:
            func = getattr(homes[hook.module], hook.func, None)
            if func is None:
                self.missing.append(f"{hook.module}.{hook.func}")
                continue
            wrapper = self._wrap(hook, func)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self._originals.append((module, attr, func))
                        setattr(module, attr, wrapper)
            self.installed.add(hook.span)

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._originals):
            setattr(module, attr, func)
        self._originals.clear()

    def _wrap(self, hook: Hook, func):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [hook.span, time.perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook.count is not None:
                for key, value in hook.count(args, kwargs, result).items():
                    counters[key] += value
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics over every span recorded, as {name: (value, unit)}."""
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[self.spans[parent][0]] += end - start
        out = {}
        for metric, (unit, stat, needs) in METRICS.items():
            if not all(span in self.installed for span in needs):
                continue
            if stat == "total":
                value = sum(total[s] for s in needs)
            elif stat == "self":
                value = sum(total[s] - child[s] for s in needs)
            elif stat == "calls":
                value = sum(calls[s] for s in needs)
            else:
                value = self.counters[metric]
            out[metric] = (value, unit)
        return out
