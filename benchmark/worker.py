"""One workload in a fresh process; started by run.py, not meant to be run by hand.

Prints ``ready`` as soon as delaydmd, numpy and scipy are imported (run.py
times set-up up to that line), then, unless ``--setup-only``, runs the
workload and prints one JSON line with its samples, gate results and, with
``--trace 1``, the per-layer metrics of the traced iterations that follow.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import delaydmd
    if Path(delaydmd.__file__).resolve().parent != SRC / "delaydmd":
        raise ImportError(f"delaydmd imported from {delaydmd.__file__}, not {SRC}")
    return numpy, scipy


def _environment(numpy, scipy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var)
                         for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")},
    }


def _iterate(workload, seed, grid, work_dir, corrupt=False):
    """One timed iteration; returns (seconds, gate failure messages).

    The collector is emptied first so that garbage left by the previous
    iteration is not collected on this one's clock.
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    started = time.perf_counter()
    output = workload.run(seed, grid, work_dir)
    elapsed = time.perf_counter() - started
    return elapsed, workload.gate(output, work_dir, corrupt)


def _counted(workload, args, work_dir, result) -> float:
    """One measured iteration whose variants and gate failures go into ``result``."""
    elapsed, failures = _iterate(workload, args.seed, args.grid, work_dir, args.tamper)
    result["attempted"] += workload.attempted()
    result["failures"] += failures
    return elapsed


def _traced_pairs(workload, args, work_dir, result) -> dict:
    """Untraced and traced iterations in turn, until they sum to ``--seconds``
    (at least one pair). Both kinds run warm, after the untraced loop, so the
    difference of their medians is the cost of the hooks. Each per-layer
    metric is its median over the traced iterations."""
    from tracing import COMPUTED, Tracer
    untraced, traced, tracers = [], [], []
    while sum(untraced) + sum(traced) < args.seconds or not traced:
        untraced.append(_counted(workload, args, work_dir, result))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(_counted(workload, args, work_dir, result))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    layer = {name: (statistics.median(t.metrics()[name][0] for t in tracers), unit)
             for name, (_, unit) in tracers[0].metrics().items()}
    layer["trace.run_s"] = (statistics.median(traced), "s")
    layer["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    layer["trace.missing_hooks"] = (len(tracers[0].missing), "count")
    Path(args.spans_out).write_text(json.dumps([t.spans for t in tracers]))
    return {"layer_metrics": layer, "computed": list(COMPUTED),
            "missing_hooks": tracers[0].missing, "untraced_pair_s": untraced,
            "traced_s": traced}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--grid", type=int, help="nx = ny for every run (default: stock grid)")
    p.add_argument("--tamper", action="store_true",
                   help="corrupt each output before its gate is checked")
    p.add_argument("--work-dir")
    p.add_argument("--spans-out")
    args = p.parse_args(argv)

    numpy, scipy = _import_program()
    from workloads import WORKLOADS
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    result = {"environment": _environment(numpy, scipy), "samples_s": [],
              "attempted": 0, "failures": []}
    try:
        _iterate(workload, args.seed, args.grid or workload.warmup_grid, work_dir)
        samples = result["samples_s"]
        while not samples or sum(samples) < args.seconds:
            samples.append(_counted(workload, args, work_dir, result))
        if args.trace:
            result.update(_traced_pairs(workload, args, work_dir, result))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
