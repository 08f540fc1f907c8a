"""puredeck: are pure quantum states pinned down by their marginals?

The package decides, constructs, and numerically certifies whether a
multipartite pure state is uniquely determined among pure states by a given
family of its reduced density matrices.  It bundles

* dense N-qudit pure states with explicit party structure (`states`),
* partial traces and decks of marginals (`marginals`),
* Schmidt decompositions and phase twists (`schmidt`),
* the cross-cut phase-system certifier (`certify`),
* hypergraph connectivity tests and marginal-count bounds (`hypergraph`),
* orthogonal/packing arrays and their non-unique states (`arrays`),
* batch experiments and equation-counting tables (`experiments`).
"""

from .states import (DIM_CAP, Marginal, PartyStructure, PureState,
                     fidelity_up_to_phase, ghz_state, inner_product,
                     load_state, sample_haar_state, save_state,
                     state_from_json_dict, state_to_json_dict)
from .marginals import (Deck, MarginalFamily, compute_deck, deck_distance,
                        decks_equal, partial_trace)
from .schmidt import (GenericityReport, SchmidtDecomposition,
                      classify_genericity, phase_twist, schmidt_decompose)
from .certify import (CrossCutSpec, OverlapDependenceReport, Tolerances,
                      UdpStatus, UdpVerdict, WitnessCheck,
                      assemble_gamma_system, build_cross_matrices, certify_udp,
                      decide_null_space, verify_overlap_dependences,
                      verify_twin)
from .hypergraph import (components, counterexample_from_disconnection,
                         is_connected, marginal_number_lower_bound)
from .arrays import (OA_9_4_3_2, GeneralizedQoaState, OaCheck, OrthogonalArray,
                     PackingArray, format_array_text,
                     greedy_packing_array, non_udp_witness, parse_array_text,
                     qoa_state, verify_oa, verify_pa)
from .experiments import (CountingTable, ExperimentConfig, ExperimentReport,
                          check_counting_table, equations_for_split,
                          run_experiment, worst_case_surplus_closed_form)

__version__ = "0.1.0"
