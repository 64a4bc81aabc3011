"""Linear bandits with censored, stochastically delayed Bernoulli conversions.

Building blocks: delay distributions (:mod:`~delayed_bandits.delays`), the
interaction environment (:mod:`~delayed_bandits.environment`), the windowed
delayed least-squares estimator (:mod:`~delayed_bandits.estimator`), one
linear policy class running OTFLinUCB, OTFLinTS and the undelayed LinUCB
oracle, plus a uniform-random baseline (:mod:`~delayed_bandits.policies`),
bound evaluators (:mod:`~delayed_bandits.bounds`), and the experiment harness
plus CLI (:mod:`~delayed_bandits.harness`, :mod:`~delayed_bandits.cli`).
"""

from .bounds import (
    bernoulli_kl,
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
    make_hard_instance_pair,
)
from .estimator import WindowedEstimator
from .harness import (
    PRESETS,
    ConfigError,
    ExperimentConfig,
    RegretTrace,
    SummaryStats,
    apply_preset,
    build_config,
    concentration_coverage,
    elliptical_potential_bound,
    run_batch,
    run_episode,
    summarize,
)
from .io import emit_csv, read_config_file, read_traces_csv
from .policies import (
    LinearPolicy,
    Policy,
    PolicyConfig,
    RandomPolicy,
    covariance_inflation,
    make_policy,
)

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
    "LinearPolicy",
    "LognormalDelay",
    "PRESETS",
    "Policy",
    "PolicyConfig",
    "RandomPolicy",
    "RegretTrace",
    "SummaryStats",
    "WindowedEstimator",
    "apply_preset",
    "bernoulli_kl",
    "build_config",
    "concentration_coverage",
    "covariance_inflation",
    "elliptical_potential_bound",
    "emit_csv",
    "generate_action_set",
    "load_empirical",
    "make_hard_instance_pair",
    "make_policy",
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
