"""Simulator and analysis toolkit for a photonic Leggett-Garg test with a
variable-strength polarization measurement.

The package layers are:

- :mod:`lgi_weaksim.qcore` - polarization states, the meter qubit, and the
  controlled-sign coupling.
- :mod:`lgi_weaksim.optics` - the paper's fixed PPBS network realizing the
  gate, with a photon-distinguishability model, as a quantum channel.
- :mod:`lgi_weaksim.experiment` - the protocol: outcome probabilities,
  correlator and weak-value estimators, sweeps and extrema.
- :mod:`lgi_weaksim.stats` - multinomial count sampling, propagated errors
  and Monte Carlo trial ensembles.
- :mod:`lgi_weaksim.cli` - CSV-emitting command-line harness.
"""

from .errors import (
    DegenerateConditioningError,
    InsufficientPostselectionError,
    UndefinedSignificanceError,
    UnreachableTargetError,
    ZeroStrengthError,
)
from .experiment import (
    ExperimentConfig,
    GateModel,
    IDEAL_GATE,
    LGRecord,
    ProbabilityTable,
    ThetaGrid,
    WeakValueRecord,
    b_max,
    lg_b,
    run,
    s1_mean,
    s1s2_correlator,
    s2_mean,
    theta_sweep,
    violation_interval,
    weak_value,
)
from .optics import (
    EffectiveMap,
    build_network,
    choi_matrix,
    effective_map,
    fit_visibility,
    process_fidelity_to_cz,
)
from .qcore import (
    BasisOutcome,
    DensityOperator,
    JointState,
    MeterSetting,
    PureState,
    apply_cz,
    from_knowledge,
    ket_signal,
    measure_joint,
    meter_ket,
    tensor,
)
from .stats import (
    CountTable,
    EstimateWithError,
    TrialPlan,
    TrialSummary,
    estimate_lg,
    estimate_weak_value,
    run_trials,
    sample_counts,
    significance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DegenerateConditioningError",
    "InsufficientPostselectionError",
    "UndefinedSignificanceError",
    "UnreachableTargetError",
    "ZeroStrengthError",
    # qcore
    "BasisOutcome",
    "DensityOperator",
    "JointState",
    "MeterSetting",
    "PureState",
    "apply_cz",
    "from_knowledge",
    "ket_signal",
    "measure_joint",
    "meter_ket",
    "tensor",
    # optics
    "EffectiveMap",
    "build_network",
    "choi_matrix",
    "effective_map",
    "fit_visibility",
    "process_fidelity_to_cz",
    # experiment
    "ExperimentConfig",
    "GateModel",
    "IDEAL_GATE",
    "LGRecord",
    "ProbabilityTable",
    "ThetaGrid",
    "WeakValueRecord",
    "b_max",
    "lg_b",
    "run",
    "s1_mean",
    "s1s2_correlator",
    "s2_mean",
    "theta_sweep",
    "violation_interval",
    "weak_value",
    # stats
    "CountTable",
    "EstimateWithError",
    "TrialPlan",
    "TrialSummary",
    "estimate_lg",
    "estimate_weak_value",
    "run_trials",
    "sample_counts",
    "significance",
]
