"""Spectral-efficiency toolkit for spatial path index modulation over mmWave beams."""

from .beamforming import (
    PatternAlphabet,
    build_abf,
    effective_channel,
    pattern_alphabet,
)
from .capacity import (
    CovarianceSet,
    asymptotic_covariances,
    conditional_symbol_rate,
    covariances,
    dirichlet_gain,
    mmwave_rate,
    spim_rate,
    total_rate_approx,
)
from .channel import (
    ChannelRealization,
    build_channel,
    min_angle_separation,
    sample_channel,
    steering_vector,
)
from .conditions import (
    ThresholdResult,
    gamma_crossover,
    geometric_mean_threshold,
    spim_margin,
    two_path_margin,
)
from .errors import (
    DimensionError,
    NoRootError,
    NotPositiveDefiniteError,
    ParameterError,
    SpecValidationError,
    SpimmwaveError,
)
from .montecarlo import McEstimate, MonteCarloSpec, mc_mutual_information
from .numerics import hermitian_logdet, make_rng

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "CovarianceSet",
    "DimensionError",
    "McEstimate",
    "MonteCarloSpec",
    "NoRootError",
    "NotPositiveDefiniteError",
    "ParameterError",
    "PatternAlphabet",
    "SpecValidationError",
    "SpimmwaveError",
    "ThresholdResult",
    "asymptotic_covariances",
    "build_abf",
    "build_channel",
    "conditional_symbol_rate",
    "covariances",
    "dirichlet_gain",
    "effective_channel",
    "gamma_crossover",
    "geometric_mean_threshold",
    "hermitian_logdet",
    "make_rng",
    "mc_mutual_information",
    "min_angle_separation",
    "mmwave_rate",
    "pattern_alphabet",
    "sample_channel",
    "spim_margin",
    "spim_rate",
    "steering_vector",
    "total_rate_approx",
    "two_path_margin",
]
