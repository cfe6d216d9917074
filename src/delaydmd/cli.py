"""Command-line entry point: dataset generation, comparison runs, spectra.

Settings come from one layered merge, lowest first: built-in defaults, the
stock run of a built-in benchmark (``analysis.STOCK_RUNS``),
``DELAYDMD_SEED`` (seed only, when neither the config file nor a flag sets
one), the ``--config`` file, flags. The ``overrides`` and ``measurements``
maps merge key by key. The master seed is split into per-component
sub-seeds by hashing the component name, so the random draws of one
variant never depend on which other variants run.

Exit codes: 0 success, 2 variant failure under ``--strict`` or a malformed
input file (``SnapshotParseError``, ``ModelParseError``), 64 usage error,
that is any ``InvalidParameterError`` (unknown or malformed settings, q
outside 1..N-1, a repeated variant, a measurement count for classic, a
Krylov count below 2, a sparsity other than 1 or 3), 74 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
from pathlib import Path
from typing import get_args, get_type_hints

from . import analysis, dmd, projections, snapshots
from .analysis import STOCK_RUNS, VARIANT_NAMES, VariantSpec
from .dmd import RankPolicy, load_model, save_model, spectrum as model_spectrum
from .errors import DelayDmdError, InvalidParameterError
from .problems import DoubleGyreParams, SignalParams

EXIT_OK = 0
EXIT_VARIANT_FAILURE = 2
EXIT_USAGE = 64
EXIT_IO = 74

_PARAMS = {"double-gyre": DoubleGyreParams, "signal-2d": SignalParams}


def _overridable(params) -> dict:
    """Parameters a run may override, with their types: the fields of
    ``params`` except the grid, plus the grid's ``nx`` and ``ny``."""
    hints = {**get_type_hints(params), "nx": int, "ny": int}
    del hints["grid"]
    return {name: int if int in (hint, *get_args(hint)) else float
            for name, hint in hints.items()}


# Every parameter any problem may override, with its type.
_OVERRIDE_TYPES = {name: kind for params in _PARAMS.values()
                   for name, kind in _overridable(params).items()}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameterError(message)


# Setting parsers take the setting's name and the value a flag or a config
# file gives; they raise InvalidParameterError naming the setting.

def _of(kinds, what, convert=None):
    """A parser for values of ``kinds``, passed through ``convert``. A bool
    passes only when ``kinds`` is bool (JSON ``true`` is no integer), and a
    ValueError from ``convert`` marks a malformed value."""
    def parse(name, value):
        if isinstance(value, kinds) and (kinds is bool or not isinstance(value, bool)):
            try:
                return value if convert is None else convert(value)
            except ValueError:
                pass
        raise InvalidParameterError(f"{name} must be {what}, got {value!r}")
    return parse


_text = _of(str, "a string")
_integer = _of((int, str), "an integer", int)
_boolean = _of(bool, "true or false")
_number = _of((int, float), "a number")


def _comma_list(item):
    """A parser for a comma list, as text or a JSON list, of ``item`` values."""
    def parse(name, value):
        if isinstance(value, str):
            value = [part.strip() for part in value.split(",") if part.strip()]
        return [item(name, v) for v in _of(list, "a comma list")(name, value)]
    return parse


def _measurements(name, value) -> dict:
    """Counts per reduced variant, as ``variant=count`` comma text or a JSON object."""
    if isinstance(value, str):
        value = {variant.strip(): count for variant, _, count
                 in (part.partition("=") for part in _comma_list(_text)(name, value))}
    counts = {}
    for variant, count in _of(dict, "variant counts")(name, value).items():
        if variant not in projections.KINDS:  # classic takes no count
            raise InvalidParameterError(f"{name}: no count for variant {variant!r}; "
                                        f"choose from {projections.KINDS}")
        counts[variant] = _integer(f"{name} of {variant}", count)
    return counts


def _overrides(name, value) -> dict:
    parsed = {}
    for key, number in _of(dict, "problem parameters")(name, value).items():
        # make_problem rejects names that do not apply to the problem.
        parsed[key] = (_integer if _OVERRIDE_TYPES.get(key) is int else _number)(key, number)
    return parsed


def _setting(parse, default=MISSING, factory=MISSING):
    """A RunConfig field with its parser; the default is the lowest layer."""
    return dc_field(default=default, default_factory=factory, metadata={"parse": parse})


# Budget of each reduced variant that neither a stock run nor the user sets.
_MEASUREMENTS = 100


@dataclass
class RunConfig:
    """Fully resolved settings for one generate/run invocation.

    Each field is one setting, and their names are the only keys a config
    file may hold; one given to ``generate`` holds only those it has flags for,
    and ``overrides``. Without ``n_train`` a run trains on 80% of the columns.
    """

    problem: str = _setting(_text)
    seed: int = _setting(_integer, 0)
    q: int = _setting(_integer, 2)
    n_train: int | None = _setting(_integer, None)
    rank: RankPolicy = _setting(_of(str, "fixed:R or tol:T", RankPolicy.parse),
                                dmd.DEFAULT_RANK_POLICY)
    variants: list[str] = _setting(_comma_list(_text), factory=lambda: list(VARIANT_NAMES))
    measurements: dict = _setting(_measurements, factory=dict)
    sparsity: int = _setting(_integer, VariantSpec.sparsity_s)
    out: Path = _setting(_of(str, "a path", Path), Path("."))
    strict: bool = _setting(_boolean, False)
    project_before_augment: bool = _setting(_boolean, False)
    emit_modes: list[int] = _setting(_comma_list(_integer), factory=list)
    overrides: dict = _setting(_overrides, factory=dict)


_SETTINGS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def _parse(source: str, raw, keys=_SETTINGS) -> dict:
    """Parse one layer of raw settings, each one of ``keys``; errors name the layer's source."""
    parsed = {}
    for key, value in _of(dict, "a JSON object")(source, raw).items():
        if key not in keys:
            raise InvalidParameterError(
                f"{source}: unknown setting {key!r}; use one of {', '.join(keys)}"
            )
        try:
            parsed[key] = _SETTINGS[key](key, value)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{source}: {exc}") from None
    return parsed


def _merge(*layers: dict) -> dict:
    """Merge parsed layers, lowest first; the two maps merge key by key."""
    merged = {}
    for layer in layers:
        for key, value in layer.items():
            if key in ("overrides", "measurements"):
                value = {**merged.get(key, {}), **value}
            merged[key] = value
    return merged


def build_config(args) -> RunConfig:
    """Resolve every setting by the layered merge of the module docstring."""
    path = getattr(args, "config", None)
    keys = [key for key in _SETTINGS if key in vars(args) or key == "overrides"]
    file_layer = (_parse(f"config file {path}", snapshots.read_json(path, InvalidParameterError),
                         keys) if path else {})
    flags = {key: value for key, value in vars(args).items() if value is not None}
    flag_layer = {key: value for key, value in flags.items() if key in _SETTINGS}
    flag_layer["overrides"] = {key: value for key, value in flags.items()
                               if key in _OVERRIDE_TYPES}
    if "measurements" in flag_layer:  # one entry per repeated --measurements
        flag_layer["measurements"] = ",".join(flag_layer["measurements"])
    given = _merge(file_layer, _parse("flags", flag_layer))
    if "problem" not in given:
        raise InvalidParameterError("a problem is required (--problem or config file)")
    stock = _parse("stock run", STOCK_RUNS.get(given["problem"], {}))
    env_seed = os.environ.get("DELAYDMD_SEED")
    env = {}
    if env_seed is not None and "seed" not in given:
        env = _parse("DELAYDMD_SEED", {"seed": env_seed})
    return RunConfig(**_merge(stock, env, given))


def make_problem(cfg: RunConfig):
    """Instantiate the benchmark parameters or load the snapshot file."""
    ov = dict(cfg.overrides)
    is_file = cfg.problem.startswith("file:")
    params = _PARAMS.get(cfg.problem)
    if params is None and not is_file:
        raise InvalidParameterError(
            f"unknown problem {cfg.problem!r}; use {', '.join(_PARAMS)} or file:<path>"
        )
    unknown = [key for key in ov if is_file or key not in _overridable(params)]
    if unknown:
        raise InvalidParameterError(f"parameters {unknown} do not apply to problem {cfg.problem}")
    if is_file:
        return snapshots.load(cfg.problem[len("file:"):])
    grid = params().grid
    grid = replace(grid, nx=ov.pop("nx", grid.nx), ny=ov.pop("ny", grid.ny))
    return params(grid=grid, **ov)


def cmd_generate(args) -> int:
    cfg = build_config(args)
    if cfg.problem.startswith("file:"):
        raise InvalidParameterError("generate needs a synthetic problem, not file:")
    _, data, _ = analysis.generate_problem(make_problem(cfg), cfg.seed)
    base = cfg.out / cfg.problem
    snapshots.save(data, base)
    print(f"wrote {base}.csv and {base}.meta.json ({data.m}x{data.n})")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = build_config(args)
    specs = [VariantSpec(name, None if name == "classic"
                         else cfg.measurements.get(name, _MEASUREMENTS), cfg.sparsity)
             for name in cfg.variants]
    problem = make_problem(cfg)
    grid = getattr(problem, "grid", None)
    if cfg.emit_modes and grid is None:
        raise InvalidParameterError("--emit-modes needs a problem with a grid")
    report = analysis.run_comparison(
        problem, specs, cfg.seed,
        q=cfg.q, n_train=cfg.n_train, rank_policy=cfg.rank,
        project_before_augment=cfg.project_before_augment,
        strict=cfg.strict,
    )
    report.config["problem"] = cfg.problem
    report.config["seed"] = cfg.seed
    report.config["overrides"] = cfg.overrides
    for result in report.variants:  # refused here, before anything is written
        for k in [] if result.failed else cfg.emit_modes:
            snapshots.check_count(f"--emit-modes of variant {result.variant}: mode index k",
                                  k, 0, result.model.rank - 1)

    out = cfg.out
    record = report.to_dict()
    snapshots.write_json(out / "report.json", record)
    for result, entry in zip(report.variants, record["variants"]):
        if result.failed:
            print(f"{result.variant}: FAILED ({result.error_message})")
            continue
        rows = entry["spectrum"]
        snapshots.write_csv(out / f"spectrum_{result.variant}.csv", rows[0],
                            [row.values() for row in rows])
        errors = entry["errors"]
        snapshots.write_csv(out / f"errors_{result.variant}.csv", ("time", "rel_error"),
                            zip(errors["times"], errors["rel_error"]))
        save_model(result.model, out / f"model_{result.variant}.json")
        model = result.model
        if cfg.emit_modes:  # the modes, formed once for all the fields
            model = replace(model, basis=model.modes, coefficients=None)
        for k in cfg.emit_modes:
            for part in ("real", "imag"):
                field = analysis.mode_field(model, k, grid, part)
                snapshots.write_csv(out / f"mode_{result.variant}_{k}_{part}.csv", None, field)
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
    p.add_argument("--out", help="output directory")
    # Problem parameter overrides, one flag per overridable parameter.
    for name, kind in _OVERRIDE_TYPES.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                       help="problem parameter override")


def build_parser() -> _Parser:
    parser = _Parser(prog="delaydmd",
                     description="Time-delay DMD with measurement reduction")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a benchmark dataset to disk")
    _add_common(gen)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="fit the requested variants and write a report")
    _add_common(run)
    run.add_argument("--q", type=int, help="delay depth")
    run.add_argument("--strict", action="store_true", default=None,
                     help="fail the whole run on any variant failure")
    run.add_argument("--project-before-augment", action="store_true", default=None,
                     help="size each operator for the raw state (M), not the embedded one")
    run.add_argument("--n-train", dest="n_train", type=int,
                     help="training columns; the rest are held out")
    run.add_argument("--rank", help="rank policy: fixed:R or tol:T")
    run.add_argument("--variants", help=f"comma list from {','.join(VARIANT_NAMES)}")
    run.add_argument("--measurements", action="append",
                     help="per-variant counts, e.g. sampling=100 (repeatable)")
    run.add_argument("--sparsity", type=int, help="Achlioptas sparsity parameter s: 1 or 3")
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
    except InvalidParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DelayDmdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VARIANT_FAILURE
