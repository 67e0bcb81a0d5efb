"""heatleak: exact density-operator simulation plus passivity-based
heat-leak detection for small qubit registers."""

from .register import (
    DensityOperator,
    RegisterError,
    UnitaryOperator,
    apply_unitary,
    beta_from_ground_pop,
    expectation,
    measure_distribution,
    mixture_channel,
    partial_trace,
    tensor,
    thermal_qubit,
)
from .circuits import (
    Circuit,
    GateSpec,
    ProtocolConfig,
    build_protocol,
    phase_gate,
    run_circuit,
    ry_gate,
    swap_gate,
)
from .passivity import (
    DeformationBounds,
    GlobalPassivityOperator,
    PassivityError,
    SweepResult,
    alpha_observable,
    alpha_sweep,
    b_alpha_values,
    build_B,
    check_ordering_inherited,
    deformation_bounds,
    deformation_sweep,
    delta_B_alpha,
    energy_basis_values,
    generic_F_delta,
    observable_table,
    second_law_delta,
    sweep_crossings,
    xi_observable,
)
from .shots import (
    BootstrapConfig,
    EstimateWithCI,
    ShotRecord,
    ShotsError,
    SpamModel,
    ThresholdResult,
    apply_spam,
    bootstrap_change,
    estimate_expectation,
    sample_shots,
    threshold_bootstrap,
)
from .config import ExperimentConfig, load_config, reference_protocol
from .pipeline import Verdict, run_analyze, run_bounds, run_exact, run_simulate

__version__ = "0.1.0"
