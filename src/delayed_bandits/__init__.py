"""Linear bandits with censored, stochastically delayed Bernoulli conversions.

Building blocks: delay distributions (:mod:`~delayed_bandits.delays`), the
interaction environment (:mod:`~delayed_bandits.environment`), the windowed
delayed least-squares estimator (:mod:`~delayed_bandits.estimator`), one
policy class running OTFLinUCB, OTFLinTS and a uniform-random baseline on
plain arrays (:mod:`~delayed_bandits.policies`), bound evaluators
(:mod:`~delayed_bandits.bounds`), and the experiment harness plus CLI
(:mod:`~delayed_bandits.harness`, :mod:`~delayed_bandits.cli`). The harness
hands the policy the environment's action arrays and revealed round indices.
The undelayed LinUCB oracle is OTFLinUCB under the config values
``harness.ORACLE``.
"""

from .bounds import (
    bernoulli_kl,
    elliptical_potential_bound,
    minimax_lower_bound,
    regret_upper_bound,
    tuned_minimax_lower_bound,
)
from .delays import (
    DelayDistribution,
    EmpiricalDelay,
    FixedDelay,
    GeometricDelay,
    LognormalDelay,
    load_empirical,
    recommended_window,
)
from .environment import (
    ActionSet,
    ConversionEvent,
    DelayedBanditEnv,
    generate_action_set,
)
from .estimator import WindowedEstimator
from .harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    RegretTrace,
    SummaryStats,
    build_config,
    concentration_coverage,
    run_batch,
    run_episode,
    summarize,
)
from .io import emit_csv, read_config_file, read_traces_csv
from .policies import Policy

__version__ = "0.1.0"

__all__ = [
    "ActionSet",
    "ConfigError",
    "ConversionEvent",
    "DelayDistribution",
    "DelayedBanditEnv",
    "EmpiricalDelay",
    "ExperimentConfig",
    "FixedDelay",
    "GeometricDelay",
    "LognormalDelay",
    "PRESETS",
    "Policy",
    "RegretTrace",
    "SummaryStats",
    "WindowedEstimator",
    "bernoulli_kl",
    "build_config",
    "concentration_coverage",
    "elliptical_potential_bound",
    "emit_csv",
    "generate_action_set",
    "load_empirical",
    "minimax_lower_bound",
    "read_config_file",
    "read_traces_csv",
    "recommended_window",
    "regret_upper_bound",
    "run_batch",
    "run_episode",
    "summarize",
    "tuned_minimax_lower_bound",
]
