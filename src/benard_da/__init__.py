"""2D Benard convection with continuous data assimilation by velocity nudging.

The pieces compose in layers: spectral fields and transforms, the
Boussinesq model terms, IMEX time stepping, coarse observation operators,
twin-experiment orchestration, rigorous sufficiency thresholds, and a
config/checkpoint/CLI harness on top.
"""

from .assimilation import (
    ErrorSeries,
    FitResult,
    ObservationRecord,
    TwinConfig,
    TwinResult,
    fit_decay_rate,
    nudging_force,
    run_from_record,
    run_temperature_slaving,
    run_twin,
    slaving_contract_margin,
    spin_up,
)
from .bounds import (
    BoundsReport,
    estimate_ladyzhenskaya_constant,
    max_observation_spacing,
    mu_threshold_type1,
    mu_threshold_type2,
    uniform_bounds,
    with_thresholds,
)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .model import PhysicalParams, State
from .observations import (
    InterpolantSpec,
    estimate_approximation_constant,
    observe,
)
from .spectral import Grid, SpectralField, VectorField, norm_h, norm_v
from .stepping import (
    BlowUpError,
    History,
    StepperConfig,
    integrate,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "SpectralField",
    "VectorField",
    "norm_h",
    "norm_v",
    "PhysicalParams",
    "State",
    "StepperConfig",
    "History",
    "BlowUpError",
    "step",
    "integrate",
    "InterpolantSpec",
    "observe",
    "estimate_approximation_constant",
    "TwinConfig",
    "TwinResult",
    "ErrorSeries",
    "FitResult",
    "ObservationRecord",
    "spin_up",
    "run_twin",
    "run_from_record",
    "run_temperature_slaving",
    "slaving_contract_margin",
    "nudging_force",
    "fit_decay_rate",
    "BoundsReport",
    "uniform_bounds",
    "mu_threshold_type1",
    "mu_threshold_type2",
    "max_observation_spacing",
    "with_thresholds",
    "estimate_ladyzhenskaya_constant",
    "RunConfig",
    "ConfigError",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
