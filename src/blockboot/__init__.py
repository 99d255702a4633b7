"""Block bootstrap distribution estimation for sample quantiles of dependent data.

The package simulates stationary weakly dependent test processes, resamples
them with a block bootstrap whose number of blocks ranges from a single block
(subsampling) to ``floor(n / block_length)`` (the moving block bootstrap),
estimates the sampling distribution of centered, scaled sample quantiles,
selects the number and length of blocks from the data, and reproduces the
associated Monte Carlo experiments at configurable scale.
"""

__version__ = "0.1.0"

from .empirical import (
    block_averaged_cdf,
    block_averaged_quantile,
    block_weights,
    empirical_cdf,
    order_stat_index,
    sample_quantile,
)
from .estimators import cdf_deviation_probs, lower_bounds_cover, lower_confidence_bounds, quantile_deviation_probs
from .models import (
    MODEL_NAMES,
    ModelSpec,
    arma11_model,
    constant_model,
    model_from_name,
    poly_mixing_model,
    simulate,
    simulate_batch,
    squared_arma23_model,
)
from .resample import (
    BlockPlan,
    EmpiricalDistribution,
    ResourceLimitError,
    bootstrap_quantile_distribution,
    cdf_statistic,
    draw_block_starts,
    exact_quantile_distribution,
    paste_blocks,
    quantile_statistic,
)
from .seeding import subseed, substream
from .tuning import (
    NoFeasiblePlanError,
    SelectionResult,
    TuneConfig,
    plan_from_constants,
    select_plan,
    subsample_starts,
)

__all__ = [
    "__version__",
    "BlockPlan",
    "EmpiricalDistribution",
    "MODEL_NAMES",
    "ModelSpec",
    "NoFeasiblePlanError",
    "ResourceLimitError",
    "SelectionResult",
    "TuneConfig",
    "arma11_model",
    "block_averaged_cdf",
    "block_averaged_quantile",
    "block_weights",
    "bootstrap_quantile_distribution",
    "cdf_deviation_probs",
    "cdf_statistic",
    "constant_model",
    "draw_block_starts",
    "empirical_cdf",
    "exact_quantile_distribution",
    "lower_bounds_cover",
    "lower_confidence_bounds",
    "model_from_name",
    "order_stat_index",
    "paste_blocks",
    "plan_from_constants",
    "poly_mixing_model",
    "quantile_deviation_probs",
    "quantile_statistic",
    "sample_quantile",
    "select_plan",
    "simulate",
    "simulate_batch",
    "squared_arma23_model",
    "subseed",
    "subsample_starts",
    "substream",
]
