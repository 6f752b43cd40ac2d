"""Randomization inference for cluster-randomized test-negative designs.

Estimation and exact testing of an intervention's relative risk from
passively collected test-positive / test-negative counts, for
parallel-arm and stepped-wedge cluster randomizations, with covariate
adjustment and an instrumental-variable dose-response extension, plus
simulation harnesses for bias, SE, power, and coverage studies.
"""

__version__ = "0.1.0"

from .core import (
    AssignmentScheme,
    Panel,
    ParallelScheme,
    PeriodPotentialTable,
    PotentialTable,
    SteppedWedgeScheme,
    Trial,
    derive_rng,
    enumerate_assignments,
    log_contrasts,
    realize,
    sample_assignment,
    sample_assignments,
)
from .estimators import (
    CovariateFit,
    EstimateReport,
    covariate_adjusted_estimate,
    log_contrast_estimate,
    odds_ratio_estimate,
    tpf_estimate,
    tpf_expected,
    tpf_solve,
    tpf_statistic,
)
from .inference import (
    NullSpec,
    PermutationResult,
    dose_response_estimate,
    impute_null_outcomes,
    invert_ci,
    normal_test,
    permutation_test,
)
from .simulation import (
    MetricsRow,
    SimScenario,
    evaluate,
    replicate_ascertainment_sweep,
    simulate_parallel,
    simulate_stepped_wedge,
)
from .stepped_wedge import (
    SWCovariance,
    SWWeights,
    optimal_weights,
    sw_covariance_estimate,
    sw_invert_ci,
    sw_log_contrast,
    sw_null_covariance,
    sw_oracle_covariance,
    sw_permutation_test,
)
from .scenarios import default_parallel_scenario, default_sw_scenario
from . import dataio

__all__ = [
    "__version__",
    "dataio",
    "AssignmentScheme",
    "CovariateFit",
    "EstimateReport",
    "MetricsRow",
    "NullSpec",
    "Panel",
    "ParallelScheme",
    "PeriodPotentialTable",
    "PermutationResult",
    "PotentialTable",
    "SWCovariance",
    "SWWeights",
    "SimScenario",
    "SteppedWedgeScheme",
    "Trial",
    "covariate_adjusted_estimate",
    "default_parallel_scenario",
    "default_sw_scenario",
    "derive_rng",
    "dose_response_estimate",
    "enumerate_assignments",
    "evaluate",
    "impute_null_outcomes",
    "invert_ci",
    "log_contrast_estimate",
    "log_contrasts",
    "normal_test",
    "odds_ratio_estimate",
    "optimal_weights",
    "permutation_test",
    "realize",
    "replicate_ascertainment_sweep",
    "sample_assignment",
    "sample_assignments",
    "simulate_parallel",
    "simulate_stepped_wedge",
    "sw_covariance_estimate",
    "sw_invert_ci",
    "sw_log_contrast",
    "sw_null_covariance",
    "sw_oracle_covariance",
    "sw_permutation_test",
    "tpf_estimate",
    "tpf_expected",
    "tpf_solve",
    "tpf_statistic",
]
