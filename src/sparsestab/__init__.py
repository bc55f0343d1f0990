"""Stability of sparse matrix patterns: decision, certification, atlases.

A sparsity pattern -- a set of free entries of an n-by-n matrix, equally a
digraph -- is *stable* when the matrix space it carves out contains a
Hurwitz matrix.  This package decides the graph-side necessary and
sufficient conditions, synthesizes explicit Hurwitz witnesses with
machine-checkable certificates, runs exact-arithmetic identity suites on
the minor-product machinery behind the proofs, and exhaustively classifies
all small patterns up to symmetry.
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
from .identities import run_identity_suites
from .numerics import (
    VarietySample,
    char_poly,
    char_poly_via_minors,
    determinant,
    inverse,
    jacobi_residual,
    leading_principal_minors,
    p_sigma,
    spectral_abscissa,
    variety_membership_sample,
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
from .witness import (
    WitnessCertificate,
    chain_generic_matrix,
    corollary_stabilize,
    diagonal_stabilize,
    nonsingular_assignment,
    synthesize_stable_witness,
)

__version__ = TOOL_VERSION
