"""Command-line entry point: dataset generation, comparison runs, spectra.

Configuration precedence is flags over ``--config`` file over built-in
defaults; the defaults reproduce the two bundled benchmark setups. The
master seed (flag, config file, or ``DELAYDMD_SEED``) is split into
per-component sub-seeds by hashing the component name, so the random draws
of one variant never depend on which other variants run.

Exit codes: 0 success, 2 variant failure under ``--strict``, 64 usage
error, 74 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import analysis, snapshots
from .analysis import VariantSpec, default_variant_specs
from .dmd import RankPolicy, load_model, save_model, spectrum as model_spectrum
from .errors import DelayDmdError, InvalidParameterError
from .problems import (
    DoubleGyreParams,
    SignalParams,
    generate_double_gyre,
    generate_signal,
)
from .snapshots import GridMeta

EXIT_OK = 0
EXIT_VARIANT_FAILURE = 2
EXIT_USAGE = 64
EXIT_IO = 74

_PROBLEM_DEFAULTS = {
    "double-gyre": {"q": 2, "n_train": 174, "rank": "fixed:20"},
    "signal-2d": {"q": 2, "n_train": 64, "rank": "tol:1e-10"},
}

_GYRE_FIELDS = ("amp", "omega", "eps", "nt", "dt", "t0", "nx", "ny")
_SIGNAL_FIELDS = ("f1", "f2", "noise_amp", "nt", "dt", "t_final", "t0", "nx", "ny")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunConfig:
    """Fully resolved settings for one generate/run invocation."""

    problem: str
    q: int = 2
    n_train: int | None = None
    rank: RankPolicy = RankPolicy.relative_threshold(1e-10)
    variant_specs: list[VariantSpec] = dc_field(default_factory=list)
    seed: int = 0
    out_dir: Path = Path(".")
    strict: bool = False
    project_before_augment: bool = False
    emit_modes: list[int] = dc_field(default_factory=list)
    overrides: dict = dc_field(default_factory=dict)


def _parse_measurements(items) -> dict:
    counts = {}
    for item in items or []:
        for part in item.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            if not sep:
                raise InvalidParameterError(
                    f"--measurements entries look like variant=count, got {part!r}"
                )
            try:
                counts[name.strip()] = int(value)
            except ValueError:
                raise InvalidParameterError(
                    f"measurement count for {name!r} must be an integer, got {value!r}"
                ) from None
    return counts


def _parse_variant_names(text: str) -> list[str]:
    names = [v.strip() for v in text.split(",") if v.strip()]
    if not names:
        raise InvalidParameterError("variant list is empty")
    return names


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"{path}: invalid JSON ({exc})") from exc


def _env_seed() -> int | None:
    raw = os.environ.get("DELAYDMD_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidParameterError(
            f"DELAYDMD_SEED must be an integer, got {raw!r}"
        ) from None


def build_config(args) -> RunConfig:
    """Merge flags over config file over problem defaults."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}

    problem = args.problem or file_cfg.get("problem")
    if problem is None:
        raise InvalidParameterError("a problem is required (--problem or config file)")
    defaults = _PROBLEM_DEFAULTS.get(problem, {"q": 2, "n_train": None, "rank": "tol:1e-10"})

    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return fallback

    seed = args.seed
    if seed is None:
        seed = file_cfg.get("seed")
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = 0

    rank_text = pick(getattr(args, "rank", None), "rank", defaults["rank"])
    rank = rank_text if isinstance(rank_text, RankPolicy) else RankPolicy.parse(rank_text)

    variant_names = None
    if getattr(args, "variants", None) is not None:
        variant_names = _parse_variant_names(args.variants)
    elif "variants" in file_cfg:
        variant_names = list(file_cfg["variants"])
        if not variant_names:
            raise InvalidParameterError("variant list is empty")

    counts = dict(file_cfg.get("measurements", {}))
    counts.update(_parse_measurements(getattr(args, "measurements", None)))
    sparsity = pick(getattr(args, "sparsity", None), "sparsity", 3)

    overrides = dict(file_cfg.get("overrides", {}))
    flag_fields = set(_GYRE_FIELDS) | set(_SIGNAL_FIELDS)
    for key in flag_fields:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value

    emit = getattr(args, "emit_modes", None)
    if emit is None:
        emit = file_cfg.get("emit_modes", "")
        emit = ",".join(str(i) for i in emit) if isinstance(emit, list) else emit
    try:
        emit_modes = [int(s) for s in str(emit).split(",") if s.strip()]
    except ValueError:
        raise InvalidParameterError(f"--emit-modes takes integers, got {emit!r}") from None

    cfg = RunConfig(
        problem=problem,
        q=int(pick(args.q, "q", defaults["q"])),
        n_train=pick(getattr(args, "n_train", None), "n_train", defaults["n_train"]),
        rank=rank,
        seed=int(seed),
        out_dir=Path(pick(getattr(args, "out", None), "out", ".")),
        strict=bool(args.strict or file_cfg.get("strict", False)),
        project_before_augment=bool(args.project_before_augment
                                    or file_cfg.get("project_before_augment", False)),
        emit_modes=emit_modes,
        overrides=overrides,
    )
    cfg.variant_specs = _resolve_variants(cfg, variant_names, counts, int(sparsity))
    return cfg


def _resolve_variants(cfg: RunConfig, names, counts, sparsity) -> list[VariantSpec]:
    if names is None and cfg.problem in _PROBLEM_DEFAULTS and not counts:
        specs = default_variant_specs(cfg.problem)
        return [VariantSpec(s.name, s.measurements, sparsity) if s.name == "achlioptas"
                else s for s in specs]
    if names is None:
        names = list(analysis.VARIANT_NAMES)
    if cfg.problem in _PROBLEM_DEFAULTS:
        base = {s.name: s.measurements for s in default_variant_specs(cfg.problem)}
    else:
        base = {name: 100 for name in analysis.VARIANT_NAMES}
        base["classic"] = None
    specs = []
    for name in names:
        a = counts.get(name, base.get(name))
        specs.append(VariantSpec(name,
                                 measurements=None if name == "classic" else a,
                                 sparsity_s=sparsity))
    return specs


def make_problem(cfg: RunConfig):
    """Instantiate the benchmark parameters or load the snapshot file."""
    ov = dict(cfg.overrides)
    if cfg.problem.startswith("file:"):
        if ov:
            raise InvalidParameterError(
                f"parameter overrides {sorted(ov)} do not apply to file problems"
            )
        return snapshots.load(cfg.problem[len("file:"):])
    if cfg.problem == "double-gyre":
        allowed, extent = _GYRE_FIELDS, (0.0, 2.0, 0.0, 1.0)
    elif cfg.problem == "signal-2d":
        allowed, extent = _SIGNAL_FIELDS, (-2.0, 2.0, -2.0, 2.0)
    else:
        raise InvalidParameterError(
            f"unknown problem {cfg.problem!r}; use double-gyre, signal-2d or file:<path>"
        )
    for key in ov:
        if key not in allowed:
            raise InvalidParameterError(
                f"parameter {key!r} does not apply to problem {cfg.problem}"
            )
    nx = int(ov.pop("nx", 100))
    ny = int(ov.pop("ny", 100))
    grid = GridMeta(nx, ny, *extent)
    if cfg.problem == "double-gyre":
        return DoubleGyreParams(grid=grid, **ov)
    return SignalParams(grid=grid, **ov)


def cmd_generate(args) -> int:
    cfg = build_config(args)
    problem = make_problem(cfg)
    if isinstance(problem, snapshots.SnapshotMatrix):
        raise InvalidParameterError("generate needs a synthetic problem, not file:")
    if isinstance(problem, DoubleGyreParams):
        data = generate_double_gyre(problem)
    else:
        data = generate_signal(problem, rng_seed=analysis.derive_seed(cfg.seed, "data"))
    base = cfg.out_dir / cfg.problem
    snapshots.save(data, base)
    print(f"wrote {base}.csv and {base}.meta.json ({data.m}x{data.n})")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = build_config(args)
    problem = make_problem(cfg)
    n_train = cfg.n_train
    if n_train is None:
        n = problem.n if isinstance(problem, snapshots.SnapshotMatrix) else problem.nt
        n_train = max(2, min(n - 1, int(0.8 * n)))
    try:
        report = analysis.run_comparison(
            problem, cfg.variant_specs, cfg.seed,
            q=cfg.q, n_train=int(n_train), rank_policy=cfg.rank,
            project_before_augment=cfg.project_before_augment,
            strict=cfg.strict,
        )
    except InvalidParameterError:  # a DelayDmdError, yet a usage error: exit 64 in main
        raise
    except DelayDmdError as exc:
        print(f"variant failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VARIANT_FAILURE
    report.config["problem"] = cfg.problem
    report.config["seed"] = cfg.seed
    report.config["overrides"] = cfg.overrides

    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.json", "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    grid = getattr(problem, "grid", None)
    if cfg.emit_modes and grid is None:
        raise InvalidParameterError("--emit-modes needs a problem with a grid")
    for result in report.variants:
        if result.failed:
            print(f"{result.variant}: FAILED ({result.error_message})")
            continue
        analysis.write_spectrum_csv(result.spectrum, out / f"spectrum_{result.variant}.csv")
        analysis.write_error_csv(result.errors, out / f"errors_{result.variant}.csv")
        save_model(result.model, out / f"model_{result.variant}.json")
        for k in cfg.emit_modes:
            for part in ("real", "imag"):
                field = analysis.mode_field(result.model, k, grid, part)
                path = out / f"mode_{result.variant}_{k}_{part}.csv"
                np.savetxt(path, field, fmt="%.17g", delimiter=",")
        print(f"{result.variant}: a={result.measurements} rank={result.model.rank} "
              f"wall={result.wall_time:.2f}s")
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    model = load_model(args.model)
    entries = model_spectrum(model)
    print(f"variant={model.variant} rank={model.rank} q={model.q} dt={model.dt}")
    print(f"{'re(mu)':>14} {'im(mu)':>14} {'re(omega)':>14} {'im(omega)':>14} "
          f"{'|b|':>12} circle")
    for e in entries:
        print(f"{e.mu.real:>14.8f} {e.mu.imag:>14.8f} "
              f"{e.omega.real:>14.6f} {e.omega.imag:>14.6f} "
              f"{e.amp_abs:>12.5e} {e.circle}")
    return EXIT_OK


def _add_common(p):
    p.add_argument("--problem", help="double-gyre, signal-2d, or file:<path>")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, help="master seed (else DELAYDMD_SEED, else 0)")
    p.add_argument("--q", type=int, help="delay depth")
    p.add_argument("--out", help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="fail the whole run on any variant failure")
    p.add_argument("--project-before-augment", action="store_true",
                   help="sketch raw states before delay embedding")
    # Problem parameter overrides.
    p.add_argument("--nt", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--t0", type=float)
    p.add_argument("--amp", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--f1", type=float)
    p.add_argument("--f2", type=float)
    p.add_argument("--noise-amp", dest="noise_amp", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="delaydmd",
                     description="Time-delay DMD with measurement reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark dataset to disk")
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="fit the requested variants and write a report")
    _add_common(run)
    run.add_argument("--n-train", dest="n_train", type=int,
                     help="training columns; the rest are held out")
    run.add_argument("--rank", help="rank policy: fixed:R or tol:T")
    run.add_argument("--variants",
                     help="comma list from classic,sampling,gaussian,achlioptas,krylov")
    run.add_argument("--measurements", action="append",
                     help="per-variant counts, e.g. sampling=100 (repeatable)")
    run.add_argument("--sparsity", type=int, choices=(1, 3),
                     help="Achlioptas sparsity parameter s")
    run.add_argument("--emit-modes",
                     help="comma list of mode indices to write as grid CSVs")
    run.set_defaults(func=cmd_run)

    spec = sub.add_parser("spectrum", help="print the spectrum table of a model JSON")
    spec.add_argument("model", help="path to a model_<variant>.json file")
    spec.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DelayDmdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VARIANT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
