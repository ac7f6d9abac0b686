"""Exact-arithmetic Lie algebra cohomology, nilshadows and torus-kill
brackets, and almost abelian solvmanifold lattice analysis."""

__version__ = "0.1.0"

from .almost_abelian import (
    AlmostAbelianReport,
    CoverType,
    HolonomyInput,
    MostowStatus,
    Scale,
    almost_abelian_algebra,
    analyze,
    b1_lattice,
    invariant_betti,
    mostow_status,
    torus_cover,
)
from .catalog import CatalogEntry, catalog_get, catalog_names
from .cohomology import (
    CohomologyResult,
    StructuralReport,
    build_complex,
    cohomology,
    format_cocycle,
    multi_indices,
    representatives,
    structural_checks,
)
from .decompositions import (
    JordanDecomposition,
    char_poly,
    compact_part,
    exp_nilpotent,
    jordan_chevalley,
    log_unipotent,
    minimal_polynomial,
)
from .errors import (
    CheckFailed,
    DecompositionInvalid,
    DimensionTooLarge,
    JacobiViolation,
    NonCommutingTorus,
    NotNilpotent,
    NotQuasiUnipotent,
    NotRationallySplittable,
    NotSolvable,
    NotUnipotent,
    ParseError,
    SolvcoError,
    UnknownName,
)
from .files import parse_matrix, parse_structure_file, structure_equations
from .lie import (
    FlagCertificate,
    LieAlgebra,
    Subspace,
    ad_matrix,
    completely_solvable_flag,
    conjugate,
    derived_series,
    derived_subalgebra,
    is_nilpotent,
    is_solvable,
    is_unimodular,
    lower_central_series,
    validate,
    verify_nilpotent_complement,
)
from .matrices import Matrix
from .polynomials import Polynomial, cyclotomic, cyclotomic_factors
from .splitting import (
    KillMap,
    KillMode,
    SplittingInput,
    kill_map,
    modified_bracket,
    nilshadow,
)
