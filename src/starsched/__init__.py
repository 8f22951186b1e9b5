"""Clock-accurate lattice-surgery scheduling and resource estimation for
second-order Trotter simulation of the 2D Hubbard model on an architecture
combining error-corrected Clifford operations with repeat-until-success
analog rotations."""

from .estimator import (
    EstimateReport,
    EstimatorConfig,
    InfeasibleModel,
    QcelsParams,
    build_report,
    calibrate_w_norm,
    choose_distance,
    parse_config,
)
from .fabric import Conflict, PatchGrid, SurgeryOp, Timeline, build_grid, validate
from .hubbard import (
    HubbardSpec,
    OrderingError,
    OrderingPair,
    build_hamiltonian,
    default_orderings,
    one_norm,
    route_orderings,
    validate_ordering_pair,
)
from .injection import (
    ANGLE_CAP,
    SHIPPED_CONFIGS,
    AngleCapError,
    InjectionConfig,
    pec_sampling_factor,
    rus_error_rate,
)
from .qcels import (
    SignalSeries,
    SyntheticSpectrum,
    multilevel_qcels,
    qcels_fit,
    synth_signal,
    wrap_phase,
)
from .rus import RusStats, calibrate_p_pass, expected_trials, simulate_parallel_rus
from .trotter import (
    TrotterSchedule,
    compile_step,
    controlled_circuit_clocks,
    rough_t_rus,
    serial_clocks,
    trotter_clocks,
)

__all__ = [
    "ANGLE_CAP",
    "SHIPPED_CONFIGS",
    "AngleCapError",
    "Conflict",
    "EstimateReport",
    "EstimatorConfig",
    "HubbardSpec",
    "InfeasibleModel",
    "InjectionConfig",
    "OrderingError",
    "OrderingPair",
    "PatchGrid",
    "QcelsParams",
    "RusStats",
    "SignalSeries",
    "SurgeryOp",
    "SyntheticSpectrum",
    "Timeline",
    "TrotterSchedule",
    "build_grid",
    "build_hamiltonian",
    "build_report",
    "calibrate_p_pass",
    "calibrate_w_norm",
    "choose_distance",
    "compile_step",
    "controlled_circuit_clocks",
    "default_orderings",
    "expected_trials",
    "multilevel_qcels",
    "one_norm",
    "parse_config",
    "pec_sampling_factor",
    "qcels_fit",
    "rough_t_rus",
    "route_orderings",
    "rus_error_rate",
    "serial_clocks",
    "simulate_parallel_rus",
    "synth_signal",
    "trotter_clocks",
    "validate",
    "validate_ordering_pair",
    "wrap_phase",
]

__version__ = "0.1.0"
