"""Hostile values at every public constructor, operator factory, run keyword and numeric
CLI setting: each call gives a DelayDmdError or a valid object, never a bare Python or
NumPy exception."""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delaydmd.analysis import VariantSpec, mode_field, run_comparison
from delaydmd.cli import EXIT_USAGE, EXIT_VARIANT_FAILURE, main
from delaydmd.dmd import DmdModel, RankPolicy, dmd_classic, load_model, predict, save_model
from delaydmd.errors import (DelayDmdError, InvalidDelayError, InvalidParameterError,
                             InvalidSplitError)
from delaydmd.numerics import eig_dense, pseudoinverse_apply, thin_svd
from delaydmd.problems import DoubleGyreParams, SignalParams
from delaydmd.projections import (ProjectionOperator, achlioptas_operator, apply, arnoldi,
                                  gaussian_operator, krylov_operator, sampling_operator)
from delaydmd.snapshots import (GridMeta, SnapshotMatrix, delay_embed, hankel_block, load, save,
                                train_test_split)

HUGE = 10**400  # past the float range

HOSTILE = [
    math.nan, math.inf, -math.inf, HUGE, -HUGE, -0.0, 0, -1, 2.5, True, False, "1", "x", None,
    1j, np.complex128(1 + 1j), np.array([1j, 2.0]), [[1.0, 2.0], [3.0]], [["a", "b"]],
    np.array(0.5), np.ones(3), np.ones((2, 2, 2)), np.empty((0, 0)), np.empty(0), [],
    np.float64(math.nan), np.int64(-3),
]

# Counts past what NumPy holds: 2**63 is past np.intp, and 2**62 fits it, but as
# a grid's nx not times the default ny = 3.
COUNT_HOSTILE = [2**62, 2**63, *HOSTILE]

ONE = np.ones(1, dtype=complex)
RUN_DATA = SnapshotMatrix(np.random.default_rng(0).standard_normal((6, 30)), dt=0.1)
# Sampling a single row cannot carry rank 2, so the failure path and ``strict`` run too.
RUN_SPECS = [VariantSpec("classic"), VariantSpec("gaussian", 4), VariantSpec("sampling", 1)]


# name -> (call taking keyword overrides, {parameter: hostile values}). Typed objects
# (a grid, a rank policy, a problem) are out of scope; every other number, label and
# array is driven.
TARGETS = {
    "SnapshotMatrix": (
        lambda **kw: SnapshotMatrix(**{"data": np.ones((2, 3)), "dt": 0.1, **kw}),
        dict.fromkeys(["data", "dt", "t0"], HOSTILE)),
    "GridMeta": (
        lambda **kw: GridMeta(**{"nx": 3, "ny": 3, "x_min": 0.0, "x_max": 2.0,
                                 "y_min": 0.0, "y_max": 1.0, **kw}),
        {**dict.fromkeys(["x_min", "x_max", "y_min", "y_max"], HOSTILE),
         "nx": COUNT_HOSTILE, "ny": COUNT_HOSTILE}),
    "DoubleGyreParams": (
        DoubleGyreParams,
        {**dict.fromkeys(["amp", "omega", "eps", "dt", "t0"], HOSTILE), "nt": COUNT_HOSTILE}),
    "SignalParams": (
        SignalParams,
        {**dict.fromkeys(["f1", "f2", "noise_amp", "dt", "t_final", "t0"], HOSTILE),
         "nt": COUNT_HOSTILE}),
    "RankPolicy fixed": (
        lambda **kw: RankPolicy(**{"mode": "fixed", "r": 2, **kw}),
        dict.fromkeys(["mode", "r"], HOSTILE)),
    "RankPolicy tol": (
        lambda **kw: RankPolicy(**{"mode": "tol", "tol": 0.1, **kw}),
        dict.fromkeys(["mode", "tol"], HOSTILE)),
    "DmdModel": (
        lambda **kw: DmdModel(**{"basis": np.ones((1, 1)), "eigenvalues_discrete": ONE,
                                 "exponents": ONE, "amplitudes": ONE, "rank": 1, "q": 1,
                                 "base_m": 1, "dt": 0.1, **kw}),
        dict.fromkeys(["basis", "eigenvalues_discrete", "exponents", "amplitudes", "rank",
                       "q", "base_m", "dt", "t0", "variant", "measurements", "coefficients"],
                      HOSTILE)),
    "sampling_operator": (
        lambda **kw: sampling_operator(**{"d": 10, "a": 3, "seed": 0, **kw}),
        {"d": COUNT_HOSTILE, "a": HOSTILE, "seed": HOSTILE}),
    "gaussian_operator": (
        lambda **kw: gaussian_operator(**{"d": 10, "a": 3, "seed": 0, **kw}),
        {"d": COUNT_HOSTILE, "a": HOSTILE, "seed": HOSTILE}),
    "achlioptas_operator": (
        lambda **kw: achlioptas_operator(**{"d": 10, "a": 3, "s": 3, "seed": 0, **kw}),
        {"d": COUNT_HOSTILE, "a": HOSTILE, "s": HOSTILE, "seed": HOSTILE}),
    "krylov_operator": (
        lambda **kw: krylov_operator(**{"d": 10, "a": 3, "seed": 0, **kw}),
        {"d": COUNT_HOSTILE, "a": HOSTILE, "seed": HOSTILE}),
    "VariantSpec": (
        lambda **kw: VariantSpec(**{"name": "gaussian", "measurements": 3, **kw}),
        dict.fromkeys(["name", "measurements", "sparsity_s"], HOSTILE)),
    "run_comparison": (
        lambda **kw: run_comparison(RUN_DATA, RUN_SPECS, **{
            "q": 2, "n_train": 20, "rank_policy": RankPolicy.fixed(2), **kw}),
        dict.fromkeys(["master_seed", "q", "n_train", "project_before_augment", "strict"],
                      HOSTILE)),
}


@st.composite
def hostile_overrides(draw, target, extra=()):
    """One to three of the target's parameters, each set to one of its hostile values
    or of ``extra``."""
    domains = TARGETS[target][1]
    names = draw(st.lists(st.sampled_from(sorted(domains)), min_size=1, max_size=3,
                          unique=True))
    return {name: draw(st.sampled_from([*domains[name], *extra])) for name in names}


@pytest.mark.parametrize("target", TARGETS)
@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.differing_executors])
@given(data=st.data())
def test_hostile_values_give_a_typed_error_or_an_object(target, data):
    overrides = data.draw(hostile_overrides(target))
    try:
        TARGETS[target][0](**overrides)
    except DelayDmdError:
        pass


def _same_model(back, model):
    return np.array_equal(back.modes, model.modes) and all(
        np.array_equal(getattr(back, f.name), getattr(model, f.name))
        for f in fields(DmdModel) if f.name not in ("basis", "coefficients"))


def _same_snapshots(back, x):
    return (np.array_equal(back.data, x.data) and back.dt == x.dt and back.t0 == x.t0
            and back.grid == x.grid)


# Numbers a constructor may accept where a Python number is valid: NumPy scalars, and a
# long double and an int that no double holds, which a file would reload changed.
OTHER_NUMBERS = [np.float32(0.5), np.int64(2), np.longdouble(1) / 3, 2**60 + 1]

# target -> (save to a path, load from it, whether two objects are equal)
ROUND_TRIPS = {
    "DmdModel": (lambda m, path: save_model(m, path, include_modes=m.basis is not None),
                 load_model, _same_model),
    "SnapshotMatrix": (save, load, _same_snapshots),
}


# More examples than above: most draws refuse the object, so few reach the files.
@pytest.mark.parametrize("target", ROUND_TRIPS)
@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.differing_executors])
@given(data=st.data())
def test_every_built_object_saves_and_reloads_equal(target, data):
    try:
        built = TARGETS[target][0](**data.draw(hostile_overrides(target, OTHER_NUMBERS)))
    except DelayDmdError:
        return
    write, read, same = ROUND_TRIPS[target]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "saved"
        write(built, path)
        assert same(read(path), built)


RAGGED = [[1.0, 2.0], [3.0]]


@pytest.mark.parametrize("call,match", [
    (lambda: dmd_classic(RAGGED, RAGGED, dt=1.0), "x1 must be a finite real .*got a ragged"),
    (lambda: apply(gaussian_operator(2, 1, 0), RAGGED), "x must be a finite real .*got a ragged"),
    (lambda: thin_svd([["a", "b"]]), "a must be a finite real .*got a ragged"),
    (lambda: arnoldi(np.eye(2), [[1.0], [2.0, 3.0]], 1), "b must be a finite real .*got a ragged"),
    (lambda: eig_dense([["a"]]), "a must be a finite numeric array.*got a ragged, non-numeric"),
    (lambda: eig_dense([[1.0], [2.0, 3.0]]),
     "a must be a finite numeric array.*got a ragged, non-numeric"),
    (lambda: pseudoinverse_apply([[1.0], [2.0, 3.0]], [1.0, 2.0]),
     "phi must be a finite numeric array.*got a ragged, non-numeric"),
    (lambda: pseudoinverse_apply([["a"]], ["b"]),
     "phi must be a finite numeric array.*got a ragged, non-numeric"),
    (lambda: pseudoinverse_apply(np.eye(2), ["a", "b"]),
     r"x must be a finite numeric array of shape \(2,\), got a ragged, non-numeric"),
], ids=["dmd_classic", "apply", "thin_svd", "arnoldi", "eig_dense-text", "eig_dense-ragged",
        "pseudoinverse_apply-ragged", "pseudoinverse_apply-text", "pseudoinverse_apply-x"])
def test_ragged_or_non_numeric_array_is_refused(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


def _ones(shape, bad=None):
    """Ones of ``shape``, with the middle entry ``bad`` if given: a NaN, an infinity or a
    complex number with an infinite imaginary part."""
    a = np.ones(shape, dtype=complex if isinstance(bad, complex) else float)
    if bad is not None:
        a.flat[a.size // 2] = bad
    return a


NAN, INF, IMAG_INF = math.nan, -math.inf, complex(0.0, math.inf)
NAN_MODES = DmdModel(basis=_ones((2, 1), NAN), eigenvalues_discrete=ONE, exponents=0 * ONE,
                     amplitudes=ONE, rank=1, q=1, base_m=2, dt=0.1)


# One row per place an array argument is checked: the call, the argument its refusal names
# and the fault it reports. Each is an InvalidParameterError whose message starts with the
# argument's name; a NaN passed arnoldi, apply and dmd_classic's x1 unnamed before.
@pytest.mark.parametrize("call,name,fault", [
    (lambda: SnapshotMatrix(RAGGED, dt=1.0), "data", "a ragged"),
    (lambda: SnapshotMatrix(np.ones(3), dt=1.0), "data", "shape (3,)"),
    (lambda: SnapshotMatrix(np.ones((2, 0)), dt=1.0), "data", "shape (2, 0)"),
    (lambda: SnapshotMatrix(_ones((2, 3), NAN), dt=1.0), "data", "a NaN"),
    (lambda: ProjectionOperator("gaussian", RAGGED, 2, None), "matrix", "a ragged"),
    (lambda: ProjectionOperator("krylov", np.ones((3, 4)), 2, None), "matrix", "shape (3, 4)"),
    (lambda: ProjectionOperator("krylov", _ones((2, 3), INF), 2, None), "matrix", "a NaN"),
    (lambda: arnoldi(np.eye(3) + 1j, np.ones(3), 2), "a_matrix", "a ragged"),
    (lambda: arnoldi(np.ones((3, 4)), np.ones(3), 2), "a_matrix", "shape (3, 4)"),
    (lambda: arnoldi(_ones((3, 3), NAN), np.ones(3), 2), "a_matrix", "a NaN"),
    (lambda: arnoldi(_ones((3, 3), INF), np.ones(3), 2), "a_matrix", "a NaN"),
    (lambda: arnoldi(np.eye(3), np.ones(3) + 1j, 2), "b", "a ragged"),
    (lambda: arnoldi(np.eye(3), np.ones((3, 1)), 2), "b", "shape (3, 1)"),
    (lambda: arnoldi(np.eye(3), _ones(3, NAN), 2), "b", "a NaN"),
    (lambda: arnoldi(np.eye(3), _ones(3, INF), 2), "b", "a NaN"),
    (lambda: apply(gaussian_operator(4, 2, 0), RAGGED), "x", "a ragged"),
    (lambda: apply(gaussian_operator(4, 2, 0), np.ones(4)), "x", "shape (4,)"),
    (lambda: apply(sampling_operator(4, 2, 0), _ones((4, 3), NAN)), "x", "a NaN"),
    (lambda: apply(gaussian_operator(4, 2, 0), _ones((4, 3), NAN)), "x", "a NaN"),
    (lambda: apply(krylov_operator(4, 2, 0), _ones((4, 3), NAN)), "x", "a NaN"),
    (lambda: thin_svd(np.eye(2) + 1j), "a", "a ragged"),
    (lambda: thin_svd(np.ones(3)), "a", "shape (3,)"),
    (lambda: thin_svd(_ones((2, 2), NAN)), "a", "a NaN"),
    (lambda: eig_dense([["a"]]), "a", "a ragged"),
    (lambda: eig_dense(np.ones(3)), "a", "shape (3,)"),
    (lambda: eig_dense(_ones((2, 2), INF)), "a", "a NaN"),
    (lambda: eig_dense(_ones((2, 2), IMAG_INF)), "a", "a NaN"),
    (lambda: pseudoinverse_apply(RAGGED, np.ones(2)), "phi", "a ragged"),
    (lambda: pseudoinverse_apply(np.ones(3), np.ones(3)), "phi", "shape (3,)"),
    (lambda: pseudoinverse_apply(_ones((3, 2), IMAG_INF), np.ones(3)), "phi", "a NaN"),
    (lambda: pseudoinverse_apply(np.ones((3, 2)), ["a", "b", "c"]), "x", "a ragged"),
    (lambda: pseudoinverse_apply(np.ones((3, 2)), np.ones(4)), "x", "shape (4,)"),
    (lambda: pseudoinverse_apply(np.ones((3, 2)), _ones(3, NAN)), "x", "a NaN"),
    (lambda: dmd_classic(np.eye(3, 4) + 1j, np.eye(3, 4), dt=1.0), "x1", "a ragged"),
    (lambda: dmd_classic(np.ones(4), np.ones(4), dt=1.0), "x1", "shape (4,)"),
    (lambda: dmd_classic(_ones((3, 4), NAN), np.eye(3, 4), dt=1.0), "x1", "a NaN"),
    (lambda: dmd_classic(np.eye(3, 4), np.eye(3, 4) + 1j, dt=1.0), "x2", "a ragged"),
    (lambda: dmd_classic(np.eye(3, 4), _ones((3, 4), NAN), dt=1.0), "x2", "a NaN"),
    (lambda: save_model(NAN_MODES, "model.json", include_modes=True), "modes", "a NaN"),
], ids=["data-ragged", "data-1-d", "data-empty", "data-nan", "matrix-ragged", "matrix-rows",
        "matrix-inf", "a_matrix-complex", "a_matrix-not-square", "a_matrix-nan", "a_matrix-inf",
        "b-complex", "b-2-d", "b-nan", "b-inf", "apply-ragged", "apply-1-d", "apply-nan-sampling",
        "apply-nan-gaussian", "apply-nan-krylov", "thin_svd-complex", "thin_svd-1-d",
        "thin_svd-nan", "eig_dense-text", "eig_dense-1-d", "eig_dense-inf",
        "eig_dense-imaginary-inf", "pinv-phi-ragged", "pinv-phi-1-d", "pinv-phi-imaginary-inf",
        "pinv-x-text", "pinv-x-length", "pinv-x-nan", "dmd_classic-x1-complex",
        "dmd_classic-x1-1-d", "dmd_classic-x1-nan", "dmd_classic-x2-complex",
        "dmd_classic-x2-nan", "save_model-modes-nan"])
def test_array_refusal_names_the_argument(monkeypatch, tmp_path, call, name, fault):
    monkeypatch.chdir(tmp_path)  # where save_model's row would write, were it not refused
    with pytest.raises(InvalidParameterError) as refused:
        call()
    assert type(refused.value) is InvalidParameterError
    message = str(refused.value)
    assert message.startswith(f"{name} must be a finite ") and f", got {fault}" in message
    assert not any(tmp_path.iterdir())


def test_a_real_matrix_stays_real_for_the_eigensolver(monkeypatch):
    """A real matrix reaches LAPACK's real path, whose bits every stock run keeps."""
    dtypes, eig = [], np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: dtypes.append(a.dtype) or eig(a))
    eig_dense([[2.0, 1.0], [-1.0, 3.0]])
    eig_dense(np.array([[2.0, 1.0], [-1.0, 3.0]]))
    assert dtypes == [np.float64, np.float64]


def _model():
    one = np.ones(2, dtype=complex)
    return DmdModel(basis=np.ones((4, 2)), eigenvalues_discrete=one, exponents=0 * one,
                    amplitudes=one, rank=2, q=1, base_m=4, dt=0.1)


@pytest.mark.parametrize("call,match", [
    (lambda: arnoldi(np.eye(3), np.ones(3), 2.5), "an integer with 1 <= m <= 3, got 2.5"),
    (lambda: arnoldi(np.eye(3), np.ones(3), "2"), "steps m must be an integer .*, got '2'"),
    (lambda: mode_field(_model(), 1.5, GridMeta(2, 2, 0, 1, 0, 1), "real"),
     "mode index k must be an integer with 0 <= k <= 1, got 1.5"),
    (lambda: mode_field(_model(), True, GridMeta(2, 2, 0, 1, 0, 1), "real"),
     "mode index k must be an integer with 0 <= k <= 1, got True"),
    (lambda: predict(_model(), "1"), "step index must be nonnegative, got 1"),
    (lambda: predict(_model(), math.nan), "step index must be nonnegative, got nan"),
    (lambda: predict(_model(), [0, math.nan]), "step index must be nonnegative"),
], ids=["arnoldi-m-2.5", "arnoldi-m-text", "mode_field-k-1.5", "mode_field-k-bool",
        "predict-text", "predict-nan", "predict-nan-in-steps"])
def test_integer_and_step_arguments_are_refused(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


INTP = np.iinfo(np.intp).max
FIVE = SnapshotMatrix(np.ones((2, 5)), dt=0.1)


# One row per place a count is checked: the call, the error it raises, and its message,
# which names the count, its range and the refused value. Unless an array bounds a count,
# its ceiling is np.intp's largest value, so no count reaches NumPy that it cannot hold.
@pytest.mark.parametrize("call,error,message", [
    (lambda: GridMeta(0, 3, 0, 1, 0, 1), InvalidParameterError,
     f"grid nx must be an integer with 1 <= nx <= {INTP}, got 0"),
    (lambda: GridMeta(3, 2.0, 0, 1, 0, 1), InvalidParameterError,
     f"grid ny must be an integer with 1 <= ny <= {INTP}, got 2.0"),
    (lambda: GridMeta(10**10, 10**10, 0., 1., 0., 1.), InvalidParameterError,
     f"grid size nx*ny must be an integer with 1 <= nx*ny <= {INTP}, got {10**20}"),
    (lambda: DoubleGyreParams(nt=1), InvalidParameterError,
     f"nt must be an integer with 2 <= nt <= {INTP}, got 1"),
    (lambda: SignalParams(nt=10**30), InvalidParameterError,
     f"nt must be an integer with 2 <= nt <= {INTP}, got {10**30}"),
    (lambda: hankel_block(FIVE.data, 5), InvalidDelayError,
     "q must be an integer with 1 <= q <= 4, got 5"),
    (lambda: delay_embed(FIVE, 0), InvalidDelayError,
     "q must be an integer with 1 <= q <= 4, got 0"),
    (lambda: apply(gaussian_operator(2, 1, 0), FIVE.data, True), InvalidDelayError,
     "q must be an integer with 1 <= q <= 4, got True"),
    (lambda: train_test_split(FIVE, 5), InvalidSplitError,
     "n_train must be an integer with 2 <= n_train <= 4, got 5"),
    (lambda: RankPolicy.fixed(0), InvalidParameterError,
     f"fixed rank r must be an integer with 1 <= r <= {INTP}, got 0"),
    (lambda: VariantSpec("krylov", 1), InvalidParameterError,
     f"krylov measurements must be an integer with 2 <= measurements <= {INTP}, got 1"),
    (lambda: ProjectionOperator("gaussian", None, 1, 0, d=2**63), InvalidParameterError,
     f"state dimension d must be an integer with 1 <= d <= {INTP}, got {2**63}"),
    (lambda: ProjectionOperator("gaussian", None, 3, 0, d=2), InvalidParameterError,
     "measurement count a must be an integer with 1 <= a <= 2, got 3"),
    (lambda: ProjectionOperator("achlioptas", None, 1, -1, 3, d=2), InvalidParameterError,
     "seed must be an integer with seed >= 0, got -1"),
    (lambda: sampling_operator(10**400, 1, 0), InvalidParameterError,
     f"state dimension d must be an integer with 1 <= d <= {INTP}, got {10**400}"),
    (lambda: sampling_operator(3, 4, 0), InvalidParameterError,
     "measurement count a must be an integer with 1 <= a <= 3, got 4"),
    (lambda: sampling_operator(3, 1, 0.5), InvalidParameterError,
     "seed must be an integer with seed >= 0, got 0.5"),
    (lambda: krylov_operator(10**30, 3, 0), InvalidParameterError,
     f"state dimension d must be an integer with 1 <= d <= {INTP}, got {10**30}"),
    (lambda: krylov_operator(3, 3, 0), InvalidParameterError,
     "subspace dimension a must be an integer with 1 <= a <= 2, got 3"),
    (lambda: arnoldi(np.eye(3), np.ones(3), 4), InvalidParameterError,
     "steps m must be an integer with 1 <= m <= 3, got 4"),
    (lambda: mode_field(_model(), 2, GridMeta(2, 2, 0, 1, 0, 1), "real"), InvalidParameterError,
     "mode index k must be an integer with 0 <= k <= 1, got 2"),
], ids=["grid-nx", "grid-ny", "grid-size", "gyre-nt", "signal-nt-past-intp", "hankel_block-q",
        "delay_embed-q", "apply-q", "train_test_split-n_train", "rank-r", "variant-budget",
        "operator-d-past-intp", "operator-a", "operator-seed", "sampling-d-past-float",
        "sampling-a", "sampling-seed", "krylov-d-past-intp", "krylov-a", "arnoldi-m",
        "mode_field-k"])
def test_count_is_refused_naming_it_its_range_and_the_value(call, error, message):
    with pytest.raises(InvalidParameterError) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message


# (target, count) -> the largest value the count may take with the target's other arguments
# as in TARGETS: np.intp's largest, or for a grid's nx or ny a third of it, as ny = nx = 3.
COUNT_CEILINGS = {**{(f"{kind}_operator", "d"): INTP
                     for kind in ("sampling", "gaussian", "achlioptas", "krylov")},
                  ("GridMeta", "nx"): INTP // 3, ("GridMeta", "ny"): INTP // 3,
                  ("DoubleGyreParams", "nt"): INTP, ("SignalParams", "nt"): INTP}


@pytest.mark.parametrize("target,name", COUNT_CEILINGS)
@settings(derandomize=True, max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.differing_executors])
@given(value=st.integers(2**60, 2**66))
def test_a_count_is_accepted_exactly_up_to_what_numpy_holds(target, name, value):
    call = TARGETS[target][0]
    if value <= COUNT_CEILINGS[target, name]:
        call(**{name: value})
    else:
        with pytest.raises(InvalidParameterError, match=name):
            call(**{name: value})


@pytest.mark.parametrize("build", [
    lambda seed: sampling_operator(5, 2, seed),
    lambda seed: gaussian_operator(5, 2, seed),
    lambda seed: achlioptas_operator(5, 2, 3, seed),
    lambda seed: krylov_operator(5, 1, seed),
], ids=["sampling", "gaussian", "achlioptas", "krylov"])
def test_a_seed_has_no_ceiling(build):
    # derive_seed gives seeds up to 2**64 - 1, past np.intp; NumPy's seeding takes any.
    assert build(2**64 - 1).matrix.shape == (2, 5)


@pytest.mark.parametrize("call,match", [
    (lambda: DoubleGyreParams(amp="x"), "amp must be positive and finite, got 'x'"),
    (lambda: DoubleGyreParams(eps=None), r"eps must lie in \[0, 0.5\), got None"),
    (lambda: DoubleGyreParams(amp=HUGE), "amp must be positive and finite, got a number beyond"),
    (lambda: SignalParams(f1="1"), "f1 must be positive and finite, got '1'"),
    (lambda: SignalParams(f2=HUGE), "f2 must be positive and finite, got a number beyond"),
    (lambda: SignalParams(noise_amp=None), "noise_amp must be nonnegative and finite, got None"),
    (lambda: SignalParams(t_final="4"), "t_final must be positive and finite, got '4'"),
    (lambda: SignalParams(t_final=1e308), r"t_final / dt must be finite, got inf"),
    (lambda: RankPolicy.relative_threshold("0.1"), r"tol must lie in \(0, 1\), got '0.1'"),
    (lambda: GridMeta(3, 3, 0, "2", 0, 1), "x_max must be finite, got '2'"),
    (lambda: GridMeta(3, 3, 0, math.inf, 0, 1), "x_max must be finite, got inf"),
], ids=["amp-text", "eps-none", "amp-huge", "f1-text", "f2-huge", "noise-none", "t_final-text",
        "t_final-steps", "tol-text", "grid-text", "grid-inf"])
def test_real_parameter_is_refused_naming_it(call, match):
    with pytest.raises(InvalidParameterError, match=match):
        call()


# Every value here is invalid for every setting it is given to.
FLOAT_TEXT = ["nan", "inf", "-inf", "1e400", "x", "1j", ""]
INT_TEXT = ["nan", "2.5", "x", "1e400", "True"]
NOT_NUMBERS = [math.nan, math.inf, -math.inf, True, "x", None, [1], {"re": 1}]
JSON_NON_REALS = [*NOT_NUMBERS, HUGE]
# A seed past the float range is still an integer, and seeds have no upper limit.
JSON_NON_INTEGERS = [*NOT_NUMBERS, 2.5]
FLOAT_PARAMS = {"double-gyre": ["amp", "omega", "eps", "dt", "t0"],
                "signal-2d": ["f1", "f2", "noise_amp", "dt", "t_final", "t0"]}
INT_PARAMS = ["nt", "nx", "ny"]


def _flag(name):
    return "--" + name.replace("_", "-")


def _flag_rows():
    for problem, names in FLOAT_PARAMS.items():
        yield from (("generate", problem, [_flag(n), v]) for n in names for v in FLOAT_TEXT)
        yield from (("generate", problem, [_flag(n), v]) for n in INT_PARAMS for v in INT_TEXT)
    for value in INT_TEXT:
        for name in ("seed", "q", "n_train", "sparsity", "emit_modes"):
            yield "run", "signal-2d", [_flag(name), value]
        yield "run", "signal-2d", ["--measurements", f"gaussian={value}"]
    for value in FLOAT_TEXT:
        yield "run", "signal-2d", ["--rank", f"tol:{value}"]
    # A finite duration whose step count is not: t_final / dt overflows to inf.
    yield "generate", "signal-2d", ["--t-final", "1e308"]


def _config_rows():
    for problem, names in FLOAT_PARAMS.items():
        for name, values in [*((n, JSON_NON_REALS) for n in names),
                             *((n, JSON_NON_INTEGERS) for n in INT_PARAMS)]:
            for value in values:
                yield "generate", {"problem": problem, "overrides": {name: value}}
    for value in [*JSON_NON_INTEGERS, HUGE]:  # no depth, split, sparsity or mode index fits
        for name in ("q", "n_train", "sparsity"):
            yield "run", {"problem": "signal-2d", name: value}
        yield "run", {"problem": "signal-2d", "emit_modes": [value]}
    for value in JSON_NON_INTEGERS:
        yield "run", {"problem": "signal-2d", "seed": value}
        yield "run", {"problem": "signal-2d", "measurements": {"gaussian": value}}
    for value in FLOAT_TEXT:
        yield "run", {"problem": "signal-2d", "rank": f"tol:{value}"}


def _refused(argv, out, capsys):
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code in (EXIT_USAGE, EXIT_VARIANT_FAILURE), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,problem,flag", list(_flag_rows()),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_numeric_flag_is_refused_before_anything_is_written(command, problem, flag,
                                                             tmp_path, capsys):
    _refused([command, "--problem", problem, "--nx", "12", "--ny", "12", *flag],
             tmp_path / "out", capsys)


@pytest.mark.parametrize("command,config", list(_config_rows()),
                         ids=lambda v: repr(v).replace(str(HUGE), "10**400"))
def test_numeric_config_value_is_refused_before_anything_is_written(command, config,
                                                                   tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    _refused([command, "--config", str(path), "--nx", "12", "--ny", "12"],
             tmp_path / "out", capsys)
