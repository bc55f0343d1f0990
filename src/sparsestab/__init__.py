"""Stability of sparse matrix patterns: decision, certification, atlases.

A sparsity pattern -- a set of free entries of an n-by-n matrix, equally a
digraph -- is *stable* when the matrix space it carves out contains a
Hurwitz matrix.  This package decides the graph-side necessary and
sufficient conditions, synthesizes explicit Hurwitz witnesses with
machine-checkable certificates, and exhaustively classifies all small
patterns up to symmetry.  What only reproduces the paper (the minor
products p_sigma and their identities, among others) lives in
sparsestab.paper, which no engine module imports; it is re-exported here.
"""

from .atlas import (
    TOOL_VERSION,
    AtlasRecord,
    StructureReport,
    classify_atlas,
    enumerate_patterns,
    load_atlas,
    query_atlas,
    validate_structure_theorem,
    verify_records,
)
from .errors import (
    CapabilityError,
    NumericalError,
    PatternFormatError,
    SingularMatrixError,
    SparsestabError,
    StabilizationError,
    SynthesisError,
    ValidationError,
)
from .graphs import (
    ChainCertificate,
    SccReport,
    block_without_cover,
    check_necessary,
    check_scc_sink,
    extract_cycle_decomposition,
    find_nested_chain,
    hamiltonian_k_exists,
    has_principal_matching,
    strongly_connected_components,
    verify_chain,
)
from .numerics import char_poly, determinant, leading_principal_minors, spectral_abscissa
from .paper import (
    char_poly_via_minors,
    corollary_stabilize,
    diagonal_stabilize,
    inverse,
    jacobi_residual,
    nonsingular_assignment,
    p_sigma,
    run_identity_suites,
    variety_escape,
)
from .patterns import (
    PatternOrbitInfo,
    Permutation,
    SparsityPattern,
    all_permutations,
    apply_permutation,
    canonical_form,
    parse_pattern,
    serialize_pattern,
    transpose_pattern,
)
from .verdict import (
    EngineConfig,
    OracleResult,
    StabilityVerdict,
    certificate_failures,
    classify,
    oracle_search,
    verify_certificate,
)
from .witness import WitnessCertificate, chain_generic_matrix, synthesize_stable_witness

__version__ = TOOL_VERSION
