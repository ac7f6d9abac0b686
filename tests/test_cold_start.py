"""A cold command loads only the modules its subcommand runs, and none of
them loads `dataclasses` or `inspect`; the lazy package exports keep the
public API: each name resolves to the object its module defines, and
`from solvco import *` binds exactly the public names.

Each module set is read in a fresh interpreter, which imports solvco.cli,
runs one command through `run_command` and prints the solvco modules then
in `sys.modules`, and which of `dataclasses` and `inspect` are there.
"""

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import solvco
from solvco import cli
from solvco.almost_abelian import Scale
from solvco.splitting import KillMode

SRC = str(Path(solvco.__file__).resolve().parents[1])

HEISENBERG_FILE = "dim 3\nd e3 = -1 e1^e2\n"
ROTATION_FILE = "2 2\n0 -1\n1 0\n"

# Every subcommand loads these: its input is read through files.
CORE = {"solvco", "solvco.cli", "solvco.errors", "solvco.files", "solvco.lie",
        "solvco.matrices"}
SPECTRAL = {"solvco.decompositions", "solvco.polynomials"}

# argv ("H" stands for the Heisenberg file, "R" for the rotation matrix),
# and the modules beyond CORE that the command loads
MODULE_SETS = [
    (["validate", "H"], set()),
    (["cohomology", "H"], {"solvco.cohomology"}),
    (["info", "H"], SPECTRAL),
    (["split", "H", "--kill", "full"], SPECTRAL | {"solvco.splitting"}),
    (["catalog"], SPECTRAL | {"solvco.catalog"}),
    (["catalog", "sol3"], SPECTRAL | {"solvco.catalog"}),
    (["cohomology", "nakamura"], SPECTRAL | {"solvco.catalog", "solvco.cohomology"}),
    (["almost-abelian", "--holonomy", "R"],
     SPECTRAL | {"solvco.almost_abelian", "solvco.cohomology"}),
]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import solvco.cli
code, _ = solvco.cli.run_command(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "solvco"),
                  [m for m in ("dataclasses", "inspect") if m in sys.modules]]))
"""


@pytest.mark.parametrize("argv, extra", MODULE_SETS,
                         ids=[" ".join(argv) for argv, _ in MODULE_SETS])
def test_a_cold_command_loads_only_its_modules(tmp_path, argv, extra):
    (tmp_path / "H").write_text(HEISENBERG_FILE)
    (tmp_path / "R").write_text(ROTATION_FILE)
    args = [str(tmp_path / a) if a in ("H", "R") else a for a in argv]
    out = subprocess.run([sys.executable, "-c", CHILD, SRC, *args],
                         capture_output=True, text=True, check=True).stdout
    code, modules, slow_stdlib = json.loads(out)
    assert code == 0
    assert set(modules) == CORE | extra
    assert slow_stdlib == []


# The public names of the package, each defined in the module named.
PUBLIC = {
    "almost_abelian": "AlmostAbelianReport CoverType HolonomyInput MostowStatus Scale "
                      "almost_abelian_algebra analyze b1_lattice invariant_betti "
                      "mostow_status torus_cover",
    "catalog": "CatalogEntry catalog_get catalog_names",
    "cohomology": "CohomologyResult StructuralReport build_complex cohomology "
                  "format_cocycle multi_indices representatives structural_checks",
    "decompositions": "JordanDecomposition char_poly compact_part exp_nilpotent "
                      "jordan_chevalley log_unipotent minimal_polynomial",
    "errors": "CheckFailed DecompositionInvalid DimensionTooLarge JacobiViolation "
              "NonCommutingTorus NotNilpotent NotQuasiUnipotent NotRationallySplittable "
              "NotSolvable NotUnipotent ParseError SolvcoError UnknownName",
    "files": "parse_matrix parse_structure_file structure_equations",
    "lie": "FlagCertificate LieAlgebra Subspace ad_matrix completely_solvable_flag "
           "conjugate derived_series derived_subalgebra is_nilpotent is_solvable "
           "is_unimodular lower_central_series validate verify_nilpotent_complement",
    "matrices": "Matrix",
    "polynomials": "Polynomial cyclotomic cyclotomic_factors",
    "splitting": "KillMap KillMode SplittingInput kill_map modified_bracket nilshadow",
}
NAMES = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_every_public_name_resolves_to_its_definition():
    assert len(NAMES) == 69
    for name, module in NAMES.items():
        # `cohomology` names the function, though its module is loaded
        assert getattr(solvco, name) is getattr(
            importlib.import_module(f"solvco.{module}"), name), name
    assert sorted(solvco.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(solvco))
    with pytest.raises(AttributeError):
        solvco.no_such_name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from solvco import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


def _option(parser, command, dest):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def test_literal_choices_are_the_enum_values_in_order():
    assert list(_option(cli._PARSER, "split", "kill").choices) == [m.value for m in KillMode]
    assert list(_option(cli._PARSER, "almost-abelian", "scale").choices) == [
        s.value for s in Scale]


@pytest.mark.parametrize("argv, message", [
    (["split", "nakamura", "--kill", "bogus"],
     "argument --kill: invalid choice: 'bogus' (choose from 'full', 'compact')"),
    (["almost-abelian", "--holonomy", "R", "--scale", "e"],
     "argument --scale: invalid choice: 'e' (choose from '1', 'pi')"),
])
def test_a_bad_choice_is_a_usage_error(argv, message):
    proc = subprocess.run([sys.executable, "-m", "solvco.cli", *argv],
                          capture_output=True, text=True, cwd=SRC)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.rstrip("\n").endswith(f"solvco {argv[0]}: error: {message}")
