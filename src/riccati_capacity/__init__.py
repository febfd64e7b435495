"""Rates of additive Gaussian channels whose noise has state-space structure.

The library propagates generalized Riccati and Lyapunov recursions for
noise and noise-plus-input filters, checks the system-theoretic
conditions under which their steady states exist, and turns the
resulting innovations covariances into finite-block and asymptotic
achievable rates. A Monte Carlo module replays the same filters on
sampled trajectories so every analytic covariance can be compared with
an empirical one.
"""

from .capacity import (
    CapacityResult,
    Case2Trace,
    CoefficientSchedule,
    OptimizerConfig,
    SweepPoint,
    asymptotic_power,
    asymptotic_rate,
    case2_rate,
    constant_schedule,
    finite_n_rate,
    optimize_input,
    sweep_kappa,
    waterfilling_oracle,
)
from .lyapunov import LyapunovSolution, lyap_solve, lyap_step
from .models import (
    Channel,
    InputModel,
    JointSystem,
    NoiseModel,
    SystemQuadruple,
    ValidationReport,
    build_augmented,
    iid_input,
    memoryless_noise,
    to_quadruple,
    validate,
)
from .riccati import RiccatiSolution, are_solve, dre_run, dre_step, gain_and_closed_loop
from .simulate import (
    CheckRow,
    ComparisonReport,
    KalmanRun,
    TrajectoryBatch,
    empirical_report,
    kalman_run,
    sample_paths,
)
from .systests import (
    FeasibilityReport,
    StarredSystem,
    feasibility_report,
    pbh_test,
    psd_sqrt,
    starred_system,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "Case2Trace",
    "Channel",
    "CheckRow",
    "CoefficientSchedule",
    "ComparisonReport",
    "FeasibilityReport",
    "InputModel",
    "JointSystem",
    "KalmanRun",
    "LyapunovSolution",
    "NoiseModel",
    "OptimizerConfig",
    "RiccatiSolution",
    "StarredSystem",
    "SweepPoint",
    "SystemQuadruple",
    "TrajectoryBatch",
    "ValidationReport",
    "are_solve",
    "asymptotic_power",
    "asymptotic_rate",
    "build_augmented",
    "case2_rate",
    "constant_schedule",
    "dre_run",
    "dre_step",
    "empirical_report",
    "feasibility_report",
    "finite_n_rate",
    "gain_and_closed_loop",
    "iid_input",
    "kalman_run",
    "lyap_solve",
    "lyap_step",
    "memoryless_noise",
    "optimize_input",
    "pbh_test",
    "psd_sqrt",
    "sample_paths",
    "starred_system",
    "sweep_kappa",
    "to_quadruple",
    "validate",
    "waterfilling_oracle",
]
