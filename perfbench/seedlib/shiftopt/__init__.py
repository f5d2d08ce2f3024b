"""Exact ergodic optimization and ergodic transport on the full shift.

Everything runs on locally constant potentials: orbits and cylinders
become a finite edge-weighted graph, so maximizing measures, calibrated
subactions, involution kernels, dual potentials, twist certificates,
turning cuts, and optimal transport plans between maximizing orbits are
all computed in exact rational arithmetic.  Finite-temperature
(thermodynamic) approximations are the one float-based layer, with
their convergence to the exact objects checked against closed forms.
"""

from .errors import (InvalidInputError, InvariantViolation, PotentialParseError,
                     PreconditionError, ShiftOptError, UnsupportedInputError)
from .words import (Cut, EventuallyPeriodicPoint, all_words, apply_shift,
                    cut_between_nodes, distance, first_disagreement,
                    lex_compare, periodic_point, prepend, prepend_word,
                    word_at_index, word_from_string, word_index,
                    word_to_string)
from .potentials import (HolderFamilySpec, LocallyConstantPotential, coboundary,
                         constant, canonical_a2, dumps_potential, from_dict,
                         holder_seminorm, leplaideur_member, lift,
                         load_potential, loads_potential, oscillation,
                         project_distance_family, projection_error_bound,
                         save_potential)
from .graph import DeBruijnGraph, build_de_bruijn
from .maxplus import (CoboundaryReport, CriticalStructure, ErrorFunction,
                      PairTable, Subaction, analyze, aubry_set,
                      calibrated_subaction, cycle_word, deviation_at_point,
                      deviation_witness, error_function, is_coboundary,
                      mane_potential, max_mean_cycle, min_cost_to_critical,
                      peierls_barrier)
from .duality import (DualityReport, FRCheckResult, GoodnessReport, KernelTable,
                      b_table_csv, backward_invariance_check,
                      build_duality_report, default_base_point,
                      dual_potential, dual_roundtrip_check,
                      fundamental_relation_check, goodness_check,
                      goodness_on_graph, involution_kernel, kernel_csv)
from .thermo import (ConvergenceReport, EigenTriple, KernelIdentityReport,
                     LdpReport, RuelleMatrix, beta_scan, build_ruelle_matrix,
                     gibbs_cylinder_log_mass, kernel_normalization,
                     ldp_rate_check, leading_eigs, verify_kernel_identity)
from .twist import (IntervalDecomposition, IntervalRun, OptimalPairMap,
                    OptimalW, TwistCertificate, certify_twist,
                    change_characterization_check, decomposition_text,
                    finiteness_report, interval_decomposition,
                    optimal_pair_map, turning_cut, twist_monotone)
from .transport import (OrbitMeasure, SlacknessReport, TransportPlan,
                        dual_value, graph_property_check,
                        maximizing_orbit_measures, plan_csv, slackness_check,
                        solve_transport)
from .genericity import (GenericSampleRow, GenericSuiteReport,
                         lipschitz_mean_gap, perturb_to_unique,
                         sample_generic_suite, subaction_regularity_gap)

__version__ = "0.1.0"
