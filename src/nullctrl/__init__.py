"""Null-control toolkit for coupled parabolic and Stokes systems.

The package decides controllability of mode-coupled systems through a
finite Kalman rank certificate, builds the invisible adjoint solutions
that witness failure, synthesizes minimal-norm low-frequency controls
through the observability Gramian, and drives full states to zero with
the dyadic active/passive controller whose cost law it measures.
"""

from .config import ExperimentConfig, load_config, parse_config
from .dynamics import (DissipationReport, ModeState, dissipation_check,
                       full_state, mode_propagators, project_high, project_low,
                       propagate, reconstruct, single_mode_state)
from .errors import (AdaptationError, CoercivityError, ConfigError,
                     ControllabilityError, InvalidKernelError, NullCtrlError,
                     ObservabilityError, PropagationStepError,
                     ScheduleError, ValidationError)
from .hum import (ControlTrajectory, Gramian, assemble_gramian,
                  control_from_datum, control_inner_product, gauss_rule,
                  simulate_forward, synthesize_control)
from .kalman import (InvisibleSolution, KalmanVerdict, bad_set, build_Kp,
                     invisible_adjoint_solution, kalman_certificate,
                     kernel_vector, minor_polynomials, rank_at)
from .lebeau_robbiano import (LRResult, LRSchedule, SweepResult, Window,
                              WindowRecord, build_schedule, cost_sweep, run_lr)
from .spectral import (SpectralModel, SubdomainMask, dirichlet_interval_model,
                       dirichlet_square_model, full_domain_mask,
                       mask_from_boxes, mass_matrix, torus_stokes_model)
from .system import CoupledSystem, build_system

__version__ = "0.1.0"

__all__ = [
    "AdaptationError",
    "CoercivityError",
    "ConfigError",
    "ControlTrajectory",
    "ControllabilityError",
    "CoupledSystem",
    "DissipationReport",
    "ExperimentConfig",
    "Gramian",
    "InvalidKernelError",
    "InvisibleSolution",
    "KalmanVerdict",
    "LRResult",
    "LRSchedule",
    "ModeState",
    "NullCtrlError",
    "ObservabilityError",
    "PropagationStepError",
    "ScheduleError",
    "SpectralModel",
    "SubdomainMask",
    "SweepResult",
    "ValidationError",
    "Window",
    "WindowRecord",
    "assemble_gramian",
    "bad_set",
    "build_Kp",
    "build_schedule",
    "build_system",
    "control_from_datum",
    "control_inner_product",
    "cost_sweep",
    "dirichlet_interval_model",
    "dirichlet_square_model",
    "dissipation_check",
    "full_domain_mask",
    "full_state",
    "gauss_rule",
    "invisible_adjoint_solution",
    "kalman_certificate",
    "kernel_vector",
    "load_config",
    "mask_from_boxes",
    "mass_matrix",
    "minor_polynomials",
    "mode_propagators",
    "parse_config",
    "project_high",
    "project_low",
    "propagate",
    "rank_at",
    "reconstruct",
    "run_lr",
    "simulate_forward",
    "single_mode_state",
    "synthesize_control",
    "torus_stokes_model",
]
