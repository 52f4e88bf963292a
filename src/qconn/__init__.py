"""qconn: certified k-connectivity from the signless Laplacian spectral radius.

Library layout:

- ``graphs``: bit-row graphs, graph6 codec, constructors, labeled enumeration
  (n <= 7)
- ``spectral``: certified Q-index brackets, exact threshold deciders,
  eigvalsh dense oracle
- ``connectivity``: exact kappa (max-flow and brute force), degree and
  density sufficient conditions
- ``extremal``: the exceptional families A(n,k,delta) - E' and membership
  classification
- ``certifier``: the theorem verdict pipeline and per-lemma checkers
- ``harness``: deterministic verification campaigns, the one graph6 corpus
  reader, and JSON reports
"""

from .graphs import (
    DegreeProfile,
    Graph,
    Graph6Error,
    complete,
    components,
    cycle,
    degree_profile,
    disjoint_union,
    empty,
    is_connected,
    iter_labeled_graphs,
    join,
    parse_graph6,
    path,
    write_graph6,
)
from .spectral import (
    SpectralEstimate,
    decide_q_ge,
    decide_q_gt,
    q_index,
    q_index_dense_oracle,
    q_upper_bound_edges,
    rayleigh_q_exact,
    verify_eigen_identity,
)
from .connectivity import (
    ConnectivityResult,
    DensityCheck,
    brute_force_connectivity,
    density_condition,
    dirac_condition,
    is_k_connected,
    is_k_connected_small,
    local_connectivity,
    vertex_connectivity,
)
from .extremal import (
    ExtremalParams,
    FamilyMember,
    VertexPartition,
    build_A,
    build_L,
    build_M,
    classify_membership,
    enumerate_Eprime_orbits,
    family_members,
    make_member,
    orbit_census,
    q_threshold,
    threshold_F,
)
from .certifier import (
    CONDITION_NOT_MET,
    EXCEPTIONAL_FAMILY,
    HYPOTHESIS_FAILED,
    K_CONNECTED_CERTIFIED,
    THEOREM_VIOLATION,
    UNDECIDED_NUMERIC,
    LemmaReport,
    Verdict,
    certify,
    check_lemma_2_3,
    check_lemma_3_1,
    check_lemma_3_2,
    check_lemma_3_3,
    check_lemma_3_7,
    check_lemma_3_8,
    check_orderings,
    select_max_member,
    verify_theorem_proof_chain,
)
from .harness import (
    CampaignConfig,
    Report,
    random_graph,
    run_campaign,
    stream_corpus,
)

__version__ = "0.1.0"
