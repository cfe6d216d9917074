"""Error metrics, mode-field extraction and multi-variant comparison runs."""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import projections
from .dmd import (
    DEFAULT_RANK_POLICY,
    DmdModel,
    RankPolicy,
    SpectrumEntry,
    dmd_projected,
    dmd_tdc,
    predict,
    spectrum,
)
from .errors import DelayDmdError, InvalidParameterError, ShapeMismatchError
from .problems import DoubleGyreParams, SignalParams, generate_double_gyre, generate_signal
from .snapshots import (GridMeta, SnapshotMatrix, check_count, delay_embed, is_integer,
                        train_test_split)

# Norms below this floor count as zero when normalizing per-snapshot errors,
# so an identically-zero snapshot cannot divide by zero.
ERROR_NORM_FLOOR = 1e-12

# Columns predicted and scored together by relative_error_series, so scoring
# holds one M x 16 complex prediction, not M x N. A multiple of 16, so each
# block's complex product runs the BLAS kernels that one product over all
# columns would: with OpenBLAS 0.3.31 the errors then match it bit for bit,
# as with 32 columns, while 50-column blocks moved their last bits.
_SCORE_BLOCK = 16

# A truth window may start this many steps off a whole-step offset from the model's origin,
# plus a few eps * (|t0_truth| + |t0_model|) / dt for the roundoff the two origins carry
# (4.8e-7 steps at t0 = 1e9, dt = 0.1), before it counts as misaligned.
OFFSET_STEP_TOL = 1e-9

VARIANT_NAMES = ("classic", *projections.KINDS)


@dataclass(frozen=True)
class ErrorSeries:
    """Per-snapshot relative prediction error over a time window."""

    times: np.ndarray
    rel_error: np.ndarray
    n_train: int

    def mean_test_error(self) -> float:
        if self.n_train >= self.rel_error.size:
            raise InvalidParameterError("no test window beyond n_train")
        return float(np.mean(self.rel_error[self.n_train:]))

    def max_train_error(self) -> float:
        if self.n_train < 1:
            raise InvalidParameterError("no training window before n_train")
        return float(np.max(self.rel_error[: self.n_train]))


def relative_error_series(model: DmdModel, x_true: SnapshotMatrix,
                          n_train: int = 0) -> ErrorSeries:
    """Relative 2-norm error of the model against every column of x_true.

    Each entry is ||truth - prediction|| / max(||truth||, floor). The truth
    window may start later than the model's origin as long as the offset is
    a whole number of steps. The model's modes are formed once per call,
    and the columns predicted from them and compared in blocks of
    ``_SCORE_BLOCK``, each block's truth norms formed in its prediction's
    buffer, so no full-window array is ever held. The norms are numpy's bit
    for bit for a C-ordered truth; a Fortran-ordered one's may differ in a last bit.
    """
    check_count("n_train", n_train, 0, x_true.n)
    if model.base_m != x_true.m:
        raise ShapeMismatchError(
            f"model predicts {model.base_m}-dim states, truth has {x_true.m} rows"
        )
    if abs(model.dt - x_true.dt) > 1e-12 * max(model.dt, x_true.dt):
        raise ShapeMismatchError(f"time steps differ: {model.dt} vs {x_true.dt}")
    steps = (x_true.t0 - model.t0) / model.dt
    offset = round(steps)
    roundoff = 4 * np.finfo(float).eps * (abs(x_true.t0) + abs(model.t0)) / model.dt
    if abs(steps - offset) > OFFSET_STEP_TOL + roundoff:
        raise ShapeMismatchError(
            f"truth starts at t0 = {x_true.t0!r} and the model at t0 = {model.t0!r}, "
            f"{steps:.12g} steps apart; the offset must be a whole number of steps"
        )
    if offset < 0:
        raise ShapeMismatchError(
            f"truth starts at t0 = {x_true.t0!r}, {-offset} steps before the model's "
            f"origin t0 = {model.t0!r}; the model cannot predict backwards"
        )
    errors = np.empty(x_true.n)
    model = replace(model, basis=model.modes, coefficients=None)  # modes formed once
    # A lone last column would be summed pairwise; it joins the block before.
    for lo in range(0, max(x_true.n - 1, 1), _SCORE_BLOCK):
        hi = x_true.n if x_true.n - lo <= _SCORE_BLOCK + 1 else lo + _SCORE_BLOCK
        diff, truth = predict(model, offset + np.arange(lo, hi)), x_true.data[:, lo:hi]
        diff -= truth  # the prediction is owned, so squared in place, then the truth in it
        errors[lo:hi] = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=0))
        norms = np.sqrt(np.add.reduce(np.multiply(truth, truth, out=diff), axis=0))
        errors[lo:hi] /= np.maximum(norms, ERROR_NORM_FLOOR)
    return ErrorSeries(times=x_true.times(), rel_error=errors, n_train=n_train)


def _training_errors(model: DmdModel, r: np.ndarray, start: int) -> np.ndarray:
    """:func:`relative_error_series` for the first ``start`` columns of a delay fit's snapshots
    Q R, in the coordinates ``r`` = R: its basis is columns s..s+n-1 (s = 1 if sketched), so
    column j's error is ||R[:, j] - R[:, s:s+n] Re(C mu^j b)|| / ||R[:, j]|| for orthonormal Q."""
    n, s, steps = model.coefficients.shape[0], int(model.variant != "tdc"), np.arange(start)
    coeff = np.exp(np.outer(model.exponents, steps * model.dt)) * model.amplitudes[:, None]
    diff = r[:, s:s + n] @ (model.coefficients @ coeff).real - r[:, :start]
    errors = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=0))
    norms = np.sqrt(np.add.reduce(np.multiply(r[:, :start], r[:, :start], out=diff), axis=0))
    return errors / np.maximum(norms, ERROR_NORM_FLOOR)


def mode_field(model: DmdModel, k: int, grid: GridMeta, part: str) -> np.ndarray:
    """Reshape mode column k to the grid as a (ny, nx) array of the chosen
    part. The modes are formed on each call, as in :func:`predict`."""
    if model.basis is None:
        raise InvalidParameterError("model carries no modes")
    check_count("mode index k", k, 0, model.rank - 1)
    if grid.size != model.base_m:
        raise ShapeMismatchError(
            f"grid has nx*ny = {grid.size} but modes have {model.base_m} raw rows"
        )
    column = model.modes[:, k]
    if part == "real":
        flat = column.real
    elif part == "imag":
        flat = column.imag
    elif part == "abs":
        flat = np.abs(column)
    else:
        raise InvalidParameterError(f"part must be real, imag or abs, got {part!r}")
    return flat.reshape(grid.ny, grid.nx)


@dataclass(frozen=True)
class VariantSpec:
    """One fit: a variant name, its integer measurement count (none for classic) and sparsity."""

    name: str
    measurements: int | None = None
    sparsity_s: int = 3

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name in VARIANT_NAMES):
            raise InvalidParameterError(
                f"unknown variant {self.name!r}; choose from {VARIANT_NAMES}"
            )
        if self.name == "classic" and self.measurements is not None:
            raise InvalidParameterError("no count for variant 'classic'; it measures every row")
        if self.name != "classic":  # Krylov: the ones row and a random one
            check_count(f"{self.name} measurements", self.measurements,
                        2 if self.name == "krylov" else 1)
        projections.check_sparsity(self.sparsity_s)


# The stock run of each built-in benchmark, in config-file form: what a
# plain ``delaydmd run --problem <name>`` does, and the variant budgets of
# :func:`default_variant_specs`.
STOCK_RUNS = {
    "double-gyre": {"q": 2, "n_train": 174, "rank": "fixed:20", "measurements": {
        "sampling": 100, "gaussian": 200, "achlioptas": 100, "krylov": 100}},
    "signal-2d": {"q": 2, "n_train": 64, "rank": "tol:1e-10", "measurements": {
        "sampling": 100, "gaussian": 50, "achlioptas": 50, "krylov": 50}},
}


def default_variant_specs(problem_name: str) -> list[VariantSpec]:
    """The stock five-variant configurations for the built-in benchmarks."""
    if problem_name not in STOCK_RUNS:
        raise InvalidParameterError(f"no default variants for problem {problem_name!r}")
    counts = STOCK_RUNS[problem_name]["measurements"]
    specs = [VariantSpec("classic")]
    specs += [VariantSpec(name, measurements=a) for name, a in counts.items()]
    return specs


@dataclass
class VariantResult:
    """Outcome of one variant fit inside a comparison run."""

    variant: str
    measurements: int | None
    spectrum: list[SpectrumEntry] = field(default_factory=list)
    errors: ErrorSeries | None = None
    wall_time: float = 0.0
    error_message: str | None = None
    model: DmdModel | None = None

    @property
    def failed(self) -> bool:
        return self.error_message is not None


@dataclass
class ExperimentReport:
    """Everything one comparison run produced. :meth:`to_dict` is its one
    serialization: report.json and the spectrum and error CSVs hold it."""

    problem: str
    variants: list[VariantResult]
    config: dict
    seeds: dict

    def variant(self, name: str) -> VariantResult:
        for v in self.variants:
            if v.variant == name:
                return v
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "config": self.config,
            "seeds": self.seeds,
            "variants": [{
                "variant": v.variant,
                "measurements": v.measurements,
                "wall_time": v.wall_time,
                "error_message": v.error_message,
                "spectrum": [
                    {
                        "re_mu": e.mu.real, "im_mu": e.mu.imag,
                        "re_omega": e.omega.real, "im_omega": e.omega.imag,
                        "amp": e.amp_abs, "circle": e.circle,
                    }
                    for e in v.spectrum
                ],
                "errors": None if v.errors is None else {
                    "times": v.errors.times.tolist(),
                    "rel_error": v.errors.rel_error.tolist(),
                    "n_train": v.errors.n_train,
                },
            } for v in self.variants],
        }


def derive_seed(master_seed: int, component: str) -> int:
    """Stable 64-bit sub-seed from (master seed, component name).

    Hash-based so each component's stream depends only on its own name;
    adding or dropping a variant never shifts the randomness of the others.
    """
    digest = hashlib.blake2b(f"{master_seed}:{component}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def generate_problem(problem, master_seed: int):
    """The problem's name, its snapshots and the sub-seeds they were drawn
    with: ``{"data": ...}`` for the signal's noise, none for the others."""
    if not is_integer(master_seed):  # negative too, as the CLI's --seed -3
        raise InvalidParameterError(f"master_seed must be an integer, got {master_seed!r}")
    if isinstance(problem, DoubleGyreParams):
        return "double-gyre", generate_double_gyre(problem), {}
    if isinstance(problem, SignalParams):
        seed = derive_seed(master_seed, "data")
        return "signal-2d", generate_signal(problem, rng_seed=seed), {"data": seed}
    if isinstance(problem, SnapshotMatrix):
        return "file", problem, {}
    raise InvalidParameterError(f"unsupported problem object {type(problem).__name__}")


def _build_operator(spec: VariantSpec, state_dim: int, seed: int):
    if spec.name == "sampling":
        return projections.sampling_operator(state_dim, spec.measurements, seed)
    if spec.name == "gaussian":
        return projections.gaussian_operator(state_dim, spec.measurements, seed)
    if spec.name == "achlioptas":
        return projections.achlioptas_operator(state_dim, spec.measurements,
                                               spec.sparsity_s, seed)
    # Krylov: the operator row count is the start vector plus one row per step.
    return projections.krylov_operator(state_dim, spec.measurements - 1, seed)


def run_comparison(problem, variant_specs, master_seed: int = 0, *,
                   q: int = 2, n_train: int | None = None,
                   rank_policy: RankPolicy = DEFAULT_RANK_POLICY,
                   project_before_augment: bool = False,
                   strict: bool = False) -> ExperimentReport:
    """Refuse a repeated variant or a non-integer ``master_seed``, generate the data once,
    fit every variant on the training window, and score each model against the full window.

    Without ``n_train`` the first max(2, min(N - 1, int(0.8 * N))) of the N
    columns train. The delay embedding is built once, before any fit, so an
    invalid ``q`` raises even without ``strict``; ``wall_time`` excludes it.
    ``project_before_augment`` only sizes each operator: M columns instead of
    q*M. Per-variant failures are captured in the report unless ``strict``,
    in which case the first failure propagates. Scores are :func:`relative_error_series`'s:
    bit for bit from the training window's last 16-column block edge; before it, to roundoff,
    with errors and truth norms alike formed in R.
    """
    if not variant_specs:
        raise InvalidParameterError("at least one variant is required")
    if not is_integer(master_seed):  # negative too, as the CLI's --seed -3
        raise InvalidParameterError(f"master_seed must be an integer, got {master_seed!r}")
    if not (isinstance(project_before_augment, bool) and isinstance(strict, bool)):
        raise InvalidParameterError("project_before_augment and strict must be True or False")
    names = [s.name for s in variant_specs]
    for i, name in enumerate(names):  # each variant has one report entry
        if name in names[:i]:
            raise InvalidParameterError(f"variants: {name} is listed twice")
    problem_name, data, data_seeds = generate_problem(problem, master_seed)
    if n_train is None:
        n_train = max(2, min(data.n - 1, int(0.8 * data.n)))
    train, _ = train_test_split(data, n_train)
    embedding = delay_embed(train, q)
    # R (embedding.r) is formed per variant, so it is not alive during a fit, where a deep run
    # peaks.
    start = min(n_train, data.n - 2) // _SCORE_BLOCK * _SCORE_BLOCK
    tail = SnapshotMatrix(data.data[:, start:], data.dt, t0=data.t0 + start * data.dt)
    state_dim = data.m if project_before_augment else q * data.m
    seeds = {"master": master_seed, **{name: derive_seed(master_seed, name)
                                       for name in names if name != "classic"}, **data_seeds}

    results = []
    for spec in variant_specs:
        result = VariantResult(variant=spec.name, measurements=spec.measurements)
        started = time.perf_counter()
        try:
            if spec.name == "classic":
                model = dmd_tdc(embedding, q, rank_policy)
                result.measurements = data.m
            else:
                # The operator is a temporary, so at most one is alive at a time.
                model = dmd_projected(
                    embedding, q,
                    _build_operator(spec, state_dim, seeds[spec.name]),
                    rank_policy)
            result.wall_time = time.perf_counter() - started
            result.model = model
            result.spectrum = spectrum(model)
            errors = [_training_errors(model, embedding.r, start),
                      relative_error_series(model, tail).rel_error]
            result.errors = ErrorSeries(data.times(), np.concatenate(errors), n_train)
        except DelayDmdError as exc:
            if strict:
                raise
            result.wall_time = time.perf_counter() - started
            result.error_message = f"{type(exc).__name__}: {exc}"
        results.append(result)

    config = {
        "q": q,
        "n_train": n_train,
        "rank": rank_policy.describe(),
        "project_before_augment": project_before_augment,
        "variants": [asdict(s) for s in variant_specs],
    }
    return ExperimentReport(problem=problem_name, variants=results,
                            config=config, seeds=seeds)
