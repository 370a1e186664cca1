"""Secrecy-rate maximization for a multi-IRS mmWave downlink.

Library + CLI simulator that jointly optimizes per-surface on/off switching
(exact enumeration of the rate ratio over all subset sums of the two arrays
of per-surface amplitudes, to the user and to the eavesdropper) and
unit-modulus phase shifts with the transmit beamformer
(Riemannian L-BFGS ascent, in angle coordinates, on the envelope over the
closed-form beamformer), cycled by a safeguarded alternating-optimization
driver. The paper's beamformer solver (successive convex approximation) and
phase solver (fixed-beamformer manifold ascent), and an independent
desk-scale oracle for every solver, are kept public in `reference`, off the
production path.
"""

from .ao import ao_solve, matched_filter, user_aligned_state
from .beamforming import gevd_oracle
from .channel_gen import (gen_channels, linear_path_gain, pathloss_db,
                          steering_vector)
from .harness import (ExperimentRecord, consolidate_single_irs, load_config,
                      mrt_baseline, random_baseline, run_experiment)
from .model import (ChannelSet, SolutionState, SystemConfig, dbm_to_watt,
                    effective_channels, gain_gap, rate_gap, secrecy_rate)
from .onoff import dinkelbach_solve, ratio_coefficients
from .reference import (ScaIterate, brute_force_onoff, mo_ascend,
                        phase_grid_oracle, phase_objective_gradient,
                        ratio_value, sca_solve, sca_subproblem)

__version__ = "0.1.0"
