"""Time-delay-coordinate DMD with sampling, Gaussian, sparse and Krylov
measurement reduction, plus the two bundled analytic benchmarks."""

from .analysis import (
    ErrorSeries,
    ExperimentReport,
    VariantSpec,
    default_variant_specs,
    derive_seed,
    mode_field,
    relative_error_series,
    run_comparison,
)
from .dmd import (
    DmdModel,
    RankPolicy,
    SpectrumEntry,
    dmd_classic,
    dmd_projected,
    dmd_tdc,
    load_model,
    predict,
    save_model,
    spectrum,
)
from .errors import DelayDmdError
from .numerics import EigResult, SvdResult, eig_dense, pseudoinverse_apply, thin_svd
from .problems import (
    DoubleGyreParams,
    SignalParams,
    generate_double_gyre,
    generate_signal,
    stream_function,
    velocity,
    vorticity_field,
)
from .projections import (
    ArnoldiResult,
    ProjectionOperator,
    achlioptas_operator,
    apply,
    arnoldi,
    gaussian_operator,
    gram_deviation,
    identity_operator,
    krylov_operator,
    sampling_operator,
)
from .snapshots import (
    DelayEmbedding,
    GridMeta,
    SnapshotMatrix,
    delay_embed,
    hankel_augment,
    load,
    save,
    split,
    train_test_split,
)

__version__ = "0.1.0"
