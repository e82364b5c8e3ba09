"""weylrg: numerical toolkit for the two-regime multiscale renormalization
analysis of an interacting 3D lattice Weyl semimetal."""

__version__ = "0.1.0"

from .lattice import (HoppingParams, ParameterError, PhaseLabel, WeylPointData,
                      bloch_matrix, build_params, classify_phase, dispersion,
                      weyl_points)
from .propagator import (GridSpec, PropagatorGrid, SingularMomentumError,
                         counterterm_nu_C, equal_time_jump, free_propagator,
                         inverse_propagator, regularized_propagator_sum,
                         schwinger_time_domain)
from .cutoff import smooth_cutoff
from .multiscale import (BandGrid, ConfigurationError, CutoffSpec,
                         InsufficientGridError, RunningCouplings, band_grid,
                         crossover_scale, decay_audit, default_cutoff,
                         disconnection_check, initial_couplings,
                         quasiparticle_split, relativistic_split_r2,
                         scale_support)
from .rgflow import (FlowBlowupError, FlowTrajectory, InteractionSpec,
                     LocalizedKernel, QuadratureError, asymptotic_constants,
                     dressed_two_point, exponential_interaction, flow_step,
                     localize_kernel, run_flow, self_energy_first_order,
                     solve_nu, update_couplings)
from .trees import (GNTree, SizeLimitError, enumerate_trees, scale_sum_audit,
                    scaling_dimension, structural_identities_check, tree_bound)
from .grassmann import (AnchoredTree, bbf_evaluate, enumerate_anchored_trees,
                        gram_hadamard_audit, truncated_expectation_oracle,
                        wick_expectation)
