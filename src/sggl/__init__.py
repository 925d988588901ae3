"""Spectral simulator and large-deviation workbench for the stochastic
generalized Ginzburg-Landau equation with multiplicative jump noise."""

from .params import Parameters, ParameterError
from .spectral import (SpectralBasis, StateField, NormReport, make_basis,
                       zero_field, mode_field, apply_A, apply_B, apply_F,
                       compute_norms, make_nonlin)
from .jumps import (JumpModel, JumpSample, Control, NoiseScale, validate_model,
                    sample_prm, drift_coefficient,
                    constant_control, empty_sample, trajectory_seed)
from .timestep import BlowUpError
from .skeleton import (TimeGrid, Trajectory, solve_skeleton, galerkin_refine,
                       embed_modes)
from .spde import solve_spde
from .rate import ell, cost, in_level_set, estimate_rate, EndpointSpec, OptConfig, RateResult
from .harness import (convergence_sweep, tail_probability, energy_audit,
                      SweepReport, TailReport, AuditReport)

__version__ = "0.1.0"
