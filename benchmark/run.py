"""delaydmd benchmark: one workload per invocation, each in fresh processes.

    python3 benchmark/run.py --workload gyre-stock --seed 0 --seconds 12 --trace 0
    python3 benchmark/run.py --self-check

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Set-up is timed over several fresh processes; the
workload itself runs in one more, with BLAS threads capped at the number of
usable cores. With ``--trace 0`` the last stdout line holds the end-to-end
metrics (``run_s``, ``peak_rss_mb``, ``setup_s``), with ``--trace 1`` the
per-layer metrics of extra traced iterations. Variants that raise or miss
a correctness gate are counted in ``failed``; the exit code is 1 when any
did, 2 when nothing could be measured. NOTES.md beside this file says why
each workload exists and which metric each layer should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("gyre-stock", "gyre-deepq", "signal-file")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed in this many import-only processes before the workload
# process and as many after it, plus the workload's own, so that the median
# spans the whole run rather than a few seconds of it. One untimed spawn first
# brings the interpreter and the package files into the page cache.
SETUP_SPAWNS_EACH_SIDE = 10
DEADLINE_S = 170.0
# Percentiles reported beside the median once at least ten samples lie beyond.
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(_nproc())
    return env


class Worker:
    """A worker process; ``setup_s`` is the time from spawn to its ready line."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py")] + args,
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
        first = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if first.strip() != "ready":
            self.close()
            raise BenchError("worker failed before it was ready")

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the deadline") from None
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}")
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _time_setup(deadline, spawns=1) -> list:
    """Set-up times of ``spawns`` import-only worker processes, one after another."""
    times = []
    for _ in range(spawns):
        w = Worker(["--setup-only"], deadline)
        w.finish()
        times.append(w.setup_s)
    return times


def measure(workload, seed, seconds, trace, grid=None, tamper=False) -> dict:
    """Run one workload and return everything measured about it."""
    if not (ROOT / "src" / "delaydmd" / "__init__.py").is_file():
        raise BenchError(f"no delaydmd sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", str(work_dir),
            "--spans-out", str(OUT_DIR / f"spans-{tag}.json")]
    if grid is not None:
        args += ["--grid", str(grid)]
    if tamper:
        args.append("--tamper")

    setup = []
    if not trace:
        _time_setup(deadline)  # untimed: fills the page cache
        setup += _time_setup(deadline, SETUP_SPAWNS_EACH_SIDE)
    w = Worker(args, deadline)
    setup.append(w.setup_s)
    result = json.loads(w.finish().strip().splitlines()[-1])
    if not trace:
        setup += _time_setup(deadline, SETUP_SPAWNS_EACH_SIDE)

    samples = result.pop("samples_s")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result.pop("layer_metrics").items()}
        metrics["fail_ratio"] = {"value": len(result["failures"]) / result["attempted"],
                                 "unit": "ratio"}
    else:
        metrics = {
            "run_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result["environment"].update(nproc=_nproc(), seed=seed, git_commit=_git_commit(),
                                 workload=workload, grid=grid or "stock")
    result.update(metrics=metrics, run_s_samples=samples, setup_s_samples=setup,
                  run_s_percentiles=_percentiles(samples))
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    return result


def _percentiles(samples) -> dict:
    """The median and the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    for p in PERCENTILES:
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"p{p:g}"] = cuts[int(p * 10) - 1]
            break
    return out


def report(result) -> bool:
    """Print the human-readable summary; True when every gate passed."""
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print("run_s samples: " + json.dumps(result["run_s_percentiles"]))
    computed = set(result.get("computed", ()))
    for name, m in result["metrics"].items():
        label = " (computed)" if name in computed else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{label}")
    for hook in result.get("missing_hooks", ()):
        print(f"missing hook: {hook}")
    for failure in result["failures"]:
        print(f"gate failed: {failure}")
    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": result["metrics"]}))
    return correct


def self_check() -> bool:
    """Every workload on a 20x20 grid: each named metric is emitted with
    fail_ratio 0, and a tampered output drives fail_ratio above 0."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = measure(workload, 0, 0, trace, grid=20)
            missing = wanted[trace] - set(result["metrics"])
            fine = not missing and not result["failures"]
            print(f"{'ok' if fine else 'FAIL'}: {workload} trace {trace}"
                  f" missing={sorted(missing)} failures={result['failures']}")
            ok &= fine
        result = measure(workload, 0, 0, 1, grid=20, tamper=True)
        ratio = result["metrics"]["fail_ratio"]["value"]
        print(f"{'ok' if ratio > 0 else 'FAIL'}: {workload} tampered fail_ratio={ratio}")
        ok &= ratio > 0
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.self_check:
            return 0 if self_check() else 1
        if args.workload is None:
            p.error("--workload is required")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0 if report(result) else 1


if __name__ == "__main__":
    sys.exit(main())
