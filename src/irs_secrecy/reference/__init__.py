"""The paper's SCA and fixed-beamformer routes and the desk-scale oracles.
Each module certifies, and imports from, the production module of its name;
production modules import from here only in `ao`'s two unused bindings."""

from .beamforming import ScaIterate, sca_solve, sca_subproblem
from .onoff import (brute_force_onoff, quadratic_expansion, quadratic_value,
                    ratio_value)
from .phases import mo_ascend, phase_grid_oracle, phase_objective_gradient

__all__ = ["ScaIterate", "sca_subproblem", "sca_solve", "phase_objective_gradient",
           "mo_ascend", "phase_grid_oracle", "quadratic_expansion",
           "quadratic_value", "ratio_value", "brute_force_onoff"]
