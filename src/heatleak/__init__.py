"""heatleak: exact stage statistics plus passivity-based heat-leak
detection for small qubit registers."""

from .register import (
    DensityOperator,
    HeatleakError,
    UnitaryOperator,
    apply_unitary,
    measure_distribution,
    mixture_channel,
    partial_trace,
    tensor,
    thermal_qubit,
)
from .circuits import (
    ProtocolConfig,
    phase_gate,
    ry_gate,
    stage_unitaries,
    swap_gate,
)
from .passivity import (
    DeformationBounds,
    GlobalPassivityOperator,
    alpha_observable,
    build_B,
    deformation_bounds,
    energy_basis_values,
    observable_table,
    sweep_crossings,
    xi_observable,
)
from .shots import (
    BootstrapConfig,
    EstimateWithCI,
    ShotRecord,
    SpamModel,
    apply_spam,
    bootstrap_change,
    resample,
    sample_shots,
)
from .config import ExperimentConfig, load_config, reference_protocol
from .pipeline import Verdict, run_analyze, run_bounds, run_exact, run_simulate

__version__ = "0.1.0"
