"""Moment diagnostics for first descent epochs of heavy-tailed random walks.

The package splits into five layers:

* :mod:`ladderlab.growth` - growth functions (the exponent scale of
  intermediate moments) and their numerical certification,
* :mod:`ladderlab.tails` / :mod:`ladderlab.construct` /
  :mod:`ladderlab.diagnostics` - tail-function distributions, the
  dominating-increment construction (majorant, splice, truncation) and the
  heavy-tail class diagnostics, every integral on the one batched
  Gauss-Kronrod kernel of :mod:`ladderlab.numerics`,
* :mod:`ladderlab.walk` - reproducible walk simulation: descent epochs and
  running maxima,
* :mod:`ladderlab.estimate` - moment estimates and the check suites,
* :mod:`ladderlab.cli` - the batch pipeline front end.
"""

from .config import ConfigError, ExperimentConfig, load_config
from .construct import (
    ConstructionChain,
    ConstructionError,
    UndeterminedError,
    build_chain,
    fit_majorant_coefficient,
    splice,
    splice_at,
    truncate_below,
)
from .diagnostics import check_log_tail_increment, long_tailed_profile, sstar_ratio
from .estimate import (
    MomentEstimate,
    dominance_suite,
    estimate_exp_moment,
    estimate_growth_moment,
    estimate_power_moment,
    finiteness_diagnostic,
    running_max_ratio_check,
    wald_check,
)
from .growth import (
    ConditionReport,
    GrowthFunction,
    certify,
    check_increment_slack,
    check_shape,
    check_slope_decay,
    check_tail_integral,
    default_condition_grid,
    make_growth,
)
from .tails import (
    BernoulliPM1,
    Constant,
    Exponential,
    LognormalShifted,
    MajorantIncrement,
    Pareto,
    QueuePair,
    ShiftedTail,
    SplicedTail,
    TailError,
    TailSpec,
    TruncatedBelow,
    WeibullShifted,
    make_builtin_dist,
)
from .walk import SampleBatch, WalkError, replay_path, simulate_batch

__version__ = "0.1.0"
