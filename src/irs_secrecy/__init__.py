"""Secrecy-rate maximization for a multi-IRS mmWave downlink.

Library + CLI simulator that jointly optimizes transmit beamforming
(successive convex approximation over a semidefinite lift), per-surface
on/off switching (exact enumeration of the rate ratio over all subset sums of
the per-surface amplitudes) and unit-modulus phase shifts (Riemannian
gradient ascent), cycled by a safeguarded alternating-optimization driver.
Every solver ships with an independent desk-scale oracle; for the on/off
block that is a scan of the expanded quadratic form.
"""

from .ao import ao_solve, user_aligned_state
from .beamforming import (SdrIterate, gaussian_randomization, gevd_oracle,
                          sca_solve, sca_subproblem)
from .channel_gen import (PathParams, gen_channels, linear_path_gain,
                          pathloss_db, steering_vector)
from .harness import (ExperimentRecord, consolidate_single_irs, load_config,
                      mrt_baseline, random_baseline, run_experiment,
                      single_irs_baseline)
from .model import (ChannelSet, EffectivePair, SolutionState, SystemConfig,
                    achievable_rate, dbm_to_watt, effective_channels,
                    rate_gap, secrecy_rate)
from .onoff import (RatioCoefficients, brute_force_onoff, dinkelbach_solve,
                    ratio_coefficients, ratio_value)
from .phases import (PhaseGradient, mo_ascend, phase_grid_oracle,
                     phase_objective, phase_objective_gradient)

__version__ = "0.1.0"
