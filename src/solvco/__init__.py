"""Exact-arithmetic Lie algebra cohomology, nilshadows and torus-kill
brackets, and almost abelian solvmanifold lattice analysis.

Each public name is imported from its module on first access (PEP 562), so
`import solvco` and a command that runs a few modules compile only those."""

__version__ = "0.1.0"

import sys
from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "almost_abelian": (
        "AlmostAbelianReport", "CoverType", "HolonomyInput", "MostowStatus", "Scale",
        "almost_abelian_algebra", "analyze", "b1_lattice", "invariant_betti",
        "mostow_status", "torus_cover"),
    "catalog": ("CatalogEntry", "catalog_get", "catalog_names"),
    "cohomology": (
        "CohomologyResult", "StructuralReport", "build_complex", "cohomology",
        "format_cocycle", "multi_indices", "representatives", "structural_checks"),
    "decompositions": (
        "JordanDecomposition", "char_poly", "compact_part", "exp_nilpotent",
        "jordan_chevalley", "log_unipotent", "minimal_polynomial"),
    "errors": (
        "CheckFailed", "DecompositionInvalid", "DimensionTooLarge", "JacobiViolation",
        "NonCommutingTorus", "NotNilpotent", "NotQuasiUnipotent",
        "NotRationallySplittable", "NotSolvable", "NotUnipotent", "ParseError",
        "SolvcoError", "UnknownName"),
    "files": ("parse_matrix", "parse_structure_file", "structure_equations"),
    "lie": (
        "FlagCertificate", "LieAlgebra", "Subspace", "ad_matrix",
        "completely_solvable_flag", "conjugate", "derived_series", "derived_subalgebra",
        "is_nilpotent", "is_solvable", "is_unimodular", "lower_central_series",
        "validate", "verify_nilpotent_complement"),
    "matrices": ("Matrix",),
    "polynomials": ("Polynomial", "cyclotomic", "cyclotomic_factors"),
    "splitting": (
        "KillMap", "KillMode", "SplittingInput", "kill_map", "modified_bracket",
        "nilshadow"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    # loading a submodule binds it here; `solvco.cohomology` stays the function
    def __setattr__(self, name, value):
        if not (name in _OWNER and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
