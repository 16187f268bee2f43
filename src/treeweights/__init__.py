"""treeweights: decide, reconstruct and neighbor-join edge-weighted trees
from their double (pairwise) and triple (subtree) leaf weights.

Everything works in two arithmetic modes: exact Fractions, where the
accept/reject decisions are exact at tol=0, and floats with explicit
tolerances for noisy data.
"""

from .errors import (
    InstanceTooSmallError,
    LabelError,
    ParseError,
    ReconstructionError,
    TreeWeightsError,
)
from .nj import (
    CherryScanResult,
    ScanRecord,
    SMatrix,
    cherry_scan,
    group_bells,
    nj_classic,
    nj_from_triples,
    nj_pruning,
    nj_pruning_detailed,
    s_matrix,
    s_matrix_triples,
)
from .oracle import Topology, enumerate_topologies, fit_weights, realizable_brute
from .reconstruct import (
    Pseudobell,
    ReconstructionTrace,
    ReductionLevel,
    base_case_doubles,
    base_case_triples_5,
    complete_pseudobells,
    prune_doubles,
    prune_triples,
    reconstruct_from_doubles,
    reconstruct_from_triples,
    twig_length_doubles,
)
from .tree import (
    Bell,
    WeightedTree,
    all_pairwise_weights,
    canonicalize,
    cherries,
    cherry_pair_set,
    contract_zero_internal_edges,
    from_json,
    k_weight,
    parse_newick,
    random_tree,
    to_json,
    to_newick,
    tree_equal,
)
from .weights import (
    BunemanVerdict,
    DoubleWeights,
    StarResult,
    TripleWeights,
    buneman_check,
    derived_pairwise,
    derived_pairwise_consistent,
    doubles_of_tree,
    emit_doubles,
    emit_triples,
    metric_warnings,
    neighbor_pairs,
    parse_doubles,
    parse_triples,
    star_condition_doubles,
    star_condition_triples,
    star_table,
    triples_from_doubles,
    triples_of_tree,
)

__version__ = "0.1.0"
