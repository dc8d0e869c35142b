"""weaklab: sequential weak quantum measurements with Gaussian pointers.

Exact and weak-regime joint pointer moments, weak values and their
bounds, Monte-Carlo outcome sampling, anomaly searches, and a causal
witness, for finite-dimensional systems.
"""

from .optimize import (
    OptimizationResult,
    SearchSpacePoint,
    minimize_pointer_product,
    minimize_weak_value_real,
)
from .pointer import GaussianPointer, PointerOperatorKind
from .qm import (
    KET_0,
    SIGMA_X,
    SIGMA_Y,
    projector_from_ket,
    qubit_ket,
)
from .scenario_io import load_scenario, scenario_from_dict
from .scenarios import (
    CausalStructure,
    build_common_cause,
    build_illustrative,
    build_pauli_xy,
    build_projector_chain,
    causal_witness,
    chain_weak_value,
)
from .simulator import (
    MeasurementStep,
    MomentPattern,
    MomentResult,
    SampleStatistics,
    Scenario,
    exact_moment,
    position_moments,
    recover_weak_value,
    sample_outcomes,
    steps_outside_weak_regime,
    weak_prediction,
)
from .weak_values import seq_weak_value

__version__ = "0.1.0"

__all__ = [
    "CausalStructure",
    "GaussianPointer",
    "KET_0",
    "SIGMA_X",
    "SIGMA_Y",
    "MeasurementStep",
    "MomentPattern",
    "MomentResult",
    "OptimizationResult",
    "PointerOperatorKind",
    "SampleStatistics",
    "Scenario",
    "SearchSpacePoint",
    "build_common_cause",
    "build_illustrative",
    "build_pauli_xy",
    "build_projector_chain",
    "causal_witness",
    "chain_weak_value",
    "exact_moment",
    "load_scenario",
    "minimize_pointer_product",
    "minimize_weak_value_real",
    "position_moments",
    "projector_from_ket",
    "qubit_ket",
    "recover_weak_value",
    "sample_outcomes",
    "scenario_from_dict",
    "seq_weak_value",
    "steps_outside_weak_regime",
    "weak_prediction",
]
