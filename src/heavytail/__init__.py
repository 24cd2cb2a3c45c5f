"""heavytail: exact samplers and Monte Carlo verification harnesses for
heavy-tailed time series in finite-dimensional normed spaces."""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    ChainOp,
    ContractionCertificate,
    DenseOp,
    DiagonalOp,
    DimensionError,
    DomainError,
    EmbeddingOp,
    NormSpec,
    OperatorNormBound,
    ScalarOp,
    ShiftPowerOp,
    identity_op,
    lp_norm,
    max_norm,
    op_norm_bound,
    op_power,
    restricted_norm_bound,
    weighted_l1_norm,
)
from .rv import Atomic, Rademacher, RegVarDist, SphereUniform, pareto_sample  # noqa: F401
from .windows import TailBatch, WindowBatch  # noqa: F401
from .spectral import (  # noqa: F401
    AR1Spectral,
    LinearProcessSpectral,
    OperatorFamily,
    PushforwardAngle,
    SamplingError,
    SeriesConstants,
    TransformedSpectral,
    cluster_windows,
    family_from_coeffs,
    limit_measure_mass,
    pushforward_constant,
    sequence_space_family,
    series_constants,
    tail_windows,
    time_change_rhs,
    window_mean,
)
from .summaries import (  # noqa: F401
    Event,
    LimitFunctionalResult,
    LinearFunctional,
    extremal_index,
    extremogram_limit,
    isometry_family_extremal_index,
    joint_survival_limit,
    ma_real_specials,
    seq_identity_check,
    tail_dependence,
)
from .simulate import (  # noqa: F401
    Path,
    PathConfig,
    simulate_ar1,
    simulate_linear,
    simulate_sequence_space,
)
from .estimate import (  # noqa: F401
    BigJumpResult,
    EstimateResult,
    ExceedanceSet,
    big_jump_check,
    big_jump_paired,
    blocks_extremal_index,
    collect_exceedances,
    empirical_spectral_stat,
    empirical_tail_dependence,
    hill_alpha,
)
from .config import ConfigError, ModelConfig, list_presets, load_config  # noqa: F401
