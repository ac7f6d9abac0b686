"""Structure/matrix file parsing, catalog dump round trips, CLI behavior."""

import sys
import time

import pytest

from solvco.catalog import catalog_get, catalog_names
from solvco.cli import run_command
from solvco.errors import CheckFailed, DimensionTooLarge, ParseError, UnknownName
from solvco.files import (
    MAX_FILE_DIM,
    parse_matrix,
    parse_structure_file,
    structure_equations,
)
from solvco.lie import LieAlgebra
from solvco.matrices import Matrix
from support import full_bracket_passes

HEISENBERG_FILE = """
dim 3
d e3 = -1 e1^e2
"""

NAKAMURA_FILE = """
# split diagonal action
dim 6
d e3 = - e1^e3 + e2^e4
d e4 = - e1^e4 - e2^e3
d e5 = e1^e5 - e2^e6
d e6 = e1^e6 + e2^e5
"""


def test_parse_heisenberg():
    g = parse_structure_file(HEISENBERG_FILE)
    assert g == LieAlgebra(3, {(1, 2): {3: 1}})


def test_parse_nakamura():
    g = parse_structure_file(NAKAMURA_FILE)
    assert g == catalog_get("nakamura").algebra


def test_parse_rejects_decreasing_indices():
    with pytest.raises(ParseError) as err:
        parse_structure_file("dim 3\nd e1 = 1 e2^e1\n")
    assert "i < j" in str(err.value)


def test_parse_rejects_duplicate_terms_and_bad_lines():
    with pytest.raises(ParseError):
        parse_structure_file("dim 2\nd e1 = e1^e2 + 2 e1^e2\n")
    with pytest.raises(ParseError):
        parse_structure_file("d e1 = e1^e2\n")  # dim must come first
    with pytest.raises(ParseError):
        parse_structure_file("dim 2\nnonsense\n")
    with pytest.raises(ParseError):
        parse_structure_file("dim 2\nd e3 = e1^e2\n")  # generator out of range


def test_parse_jacobi_violation():
    from solvco.errors import JacobiViolation

    text = "dim 3\nd e3 = -1 e1^e2\nd e1 = -1 e1^e3\n"
    with pytest.raises(JacobiViolation):
        parse_structure_file(text)


def test_fractional_coefficients():
    g = parse_structure_file("dim 3\nd e3 = -3/2 e1^e2\n")
    assert g.structure_constant(3, 1, 2) == 1.5


def test_dump_round_trip_catalog():
    for name in catalog_names():
        g = catalog_get(name).algebra
        assert parse_structure_file(structure_equations(g)) == g if g.dim >= 1 else True


def test_catalog_texts_round_trip():
    # each entry is stored as the structure file `solvco catalog NAME` prints
    from solvco.catalog import _ENTRIES

    for name, (text, *_) in _ENTRIES.items():
        assert structure_equations(parse_structure_file(text)) == text, name


def test_matrix_round_trip():
    m = Matrix.from_rows([[1, -2], [1, 1]])
    assert parse_matrix("2 2\n1 -2\n1 1\n") == m
    m2 = parse_matrix("2 2\n1/2 -3\n0 7\n")
    assert m2[0, 0] == 0.5


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        parse_matrix("2 2\n1 2\n")  # missing row
    with pytest.raises(ParseError):
        parse_matrix("2\n1 2\n")
    with pytest.raises(ParseError):
        parse_matrix("1 2\n1 2.5\n")  # decimals are not rationals


def test_catalog_unknown_name():
    with pytest.raises(UnknownName):
        catalog_get("bogus")


def test_catalog_spec_examples():
    hyper = catalog_get("hyperelliptic4").algebra
    assert hyper.bracket_basis(2, 4) == (-1, 0, 0, 0)
    assert hyper.bracket_basis(1, 4) == (0, 1, 0, 0)
    rot = catalog_get("rot3")
    assert rot.algebra.bracket_basis(1, 2) == (0, 0, 1)
    assert "2*pi" in rot.notes


def test_cli_validate():
    code, text = run_command(["validate", "heisenberg3"])
    assert (code, text) == (0, "ok")


def test_cli_validate_jacobi_violation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim 3\nd e3 = -1 e1^e2\nd e1 = -1 e1^e3\n")
    code, text = run_command(["validate", str(bad)])
    assert code == 1
    assert "Jacobi" in text and "(1,2,3)" in text


def test_cli_failed_self_check_exits_1(monkeypatch):
    # force the exact spectrum check after a compact kill to fail
    monkeypatch.setattr("solvco.splitting.real_root_counter",
                        lambda p: (p, lambda lower=None, upper=None: 0))
    code, text = run_command(["split", "nakamura", "--complement", "1,2", "--kill", "compact"])
    assert code == 1
    assert text == "error: compact kill left a non-real V-adjoint spectrum"


def _misfiled_specs(monkeypatch):
    # heisenberg3 declared completely solvable, which it is not (it is nilpotent)
    from solvco import catalog

    text = catalog._ENTRIES["heisenberg3"][0]
    monkeypatch.setitem(catalog._ENTRIES, "misfiled",
                        (text, catalog.COMPLETELY_SOLVABLE, (), (1, 2, 3), ""))


def test_catalog_failed_verification_raises_check_failed(monkeypatch):
    _misfiled_specs(monkeypatch)
    with pytest.raises(CheckFailed, match="misfiled fails its declared classification"):
        catalog_get("misfiled")


def test_cli_catalog_failed_verification_exits_1(monkeypatch):
    _misfiled_specs(monkeypatch)
    code, text = run_command(["catalog", "misfiled"])
    assert (code, text) == (1, "error: catalog entry misfiled fails its declared classification")


def test_cli_unexpected_exception_exits_1(monkeypatch):
    def broken(g):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr("solvco.lie.is_unimodular", broken)  # info imports it per call
    code, text = run_command(["info", "heisenberg3"])
    assert (code, text) == (1, "error: internal ZeroDivisionError: boom")


def test_cli_usage_errors():
    code, _ = run_command(["cohomology"])  # missing file
    assert code == 3
    code, text = run_command(["cohomology", "no_such_file_or_entry"])
    assert code == 3
    code, _ = run_command(["nonsense-command"])
    assert code == 3


UNREADABLE = {
    "directory": "Is a directory",
    "missing": "No such file or directory",
    "latin-1": "'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte",
}


# a missing structure file is looked up in the catalog (test_cli_usage_errors)
@pytest.mark.parametrize("command, kind", [
    (["validate"], "directory"), (["validate"], "latin-1"),
    (["almost-abelian", "--holonomy"], "directory"),
    (["almost-abelian", "--holonomy"], "missing"),
    (["almost-abelian", "--holonomy"], "latin-1"),
])
def test_cli_unreadable_input_is_a_usage_error(tmp_path, command, kind):
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes("# caf\u00e9\ndim 1\n".encode("latin-1"))
    code, text = run_command(command + [str(path)])
    assert (code, text) == (3, f"error: line 0: cannot read {str(path)!r}: {UNREADABLE[kind]}")


def test_cli_malformed_numbers_are_usage_errors(tmp_path):
    # '²'.isdigit() holds but int('²') fails; a negative degree cut is a
    # bad argument, not a mathematical failure
    dim = tmp_path / "dim.txt"
    dim.write_text("dim \u00b2\n", encoding="utf-8")
    code, text = run_command(["validate", str(dim)])
    assert (code, text) == (3, "error: line 1: expected `dim N` with positive N")
    header = tmp_path / "header.mat"
    header.write_text("\u00b2 2\n1 0\n0 1\n", encoding="utf-8")
    code, text = run_command(["almost-abelian", "--holonomy", str(header)])
    assert (code, text) == (3, "error: line 1: expected `ROWS COLS` header")
    code, text = run_command(["cohomology", "heisenberg3", "--max-degree", "-1"])
    assert (code, text) == (3, "error: line 0: --max-degree must be non-negative, got -1")


BIG = "7" * 5000  # longer than Python's limit for int conversion


@pytest.mark.parametrize("command, text, line", [
    ("info", f"dim 3\nd e3 = 1/{BIG} e1^e2\n", 2),
    ("info", f"dim {BIG}\n", 1),
    ("info", f"dim 3\nd e{BIG} = e1^e2\n", 2),
    ("info", f"dim 3\nd e3 = e1^e{BIG}\n", 2),
    ("almost-abelian", f"2 2\n-{BIG} 0\n0 1\n", 2),
    ("almost-abelian", f"{BIG} 2\n1 0\n0 1\n", 1),
], ids=["coefficient", "dim", "generator", "wedge-index", "matrix-entry", "matrix-header"])
def test_cli_over_long_numbers_are_parse_errors(tmp_path, command, text, line):
    # the int conversion limit stays in place, so the work stays bounded
    path = tmp_path / "input.txt"
    path.write_text(text)
    argv = [command, str(path)] if command == "info" else [command, "--holonomy", str(path)]
    assert run_command(argv) == (3, f"error: line {line}: number of 5000 digits exceeds "
                                    f"the limit of {sys.get_int_max_str_digits()}")


@pytest.mark.parametrize("command", ["catalog", "info"])
def test_cli_over_long_abelian_names_are_unknown(command):
    # the digits are counted before the int conversion, whose limit they exceed
    for name in ("abelian13", f"abelian{'9' * 5000}"):
        code, text = run_command([command, name])
        assert code == 3 and "Exceeds the limit" not in text
    with pytest.raises(UnknownName, match="stop at dimension 12"):
        catalog_get(f"abelian{'9' * 5000}")


def test_cli_degree_cut_keeps_the_dimension_bound(tmp_path):
    # the filiform algebra of dimension 14: [e1, e_(k-1)] = e_k
    fil14 = tmp_path / "fil14.txt"
    fil14.write_text("dim 14\n" + "".join(f"d e{k} = e1^e{k - 1}\n" for k in range(3, 15)))
    assert run_command(["cohomology", str(fil14)]) == (
        1, "error: dimension 14 exceeds bound 12; use a degree cut-off")
    # a cut at the dimension cuts nothing, so it is no cut
    assert run_command(["cohomology", str(fil14), "--max-degree", "14"]) == (
        1, "error: dimension 14 exceeds bound 12; use a degree cut-off")
    code, text = run_command(["cohomology", str(fil14), "--max-degree", "13"])
    assert (code, text) == (1, "error: degree cut-off 13 at dimension 14 builds 16384 forms,"
                               " more than 2^12 = 4096")
    code, text = run_command(["cohomology", str(fil14), "--max-degree", "1"])
    assert (code, text) == (0, "dim 14\nbetti 0 1\nbetti 1 2")


def test_cli_bounds_the_declared_dimension(tmp_path):
    # one bracket in dimension 1000: rejected at the dim line, before any
    # row is allocated or the Jacobi check runs
    big = tmp_path / "big.txt"
    big.write_text("dim 1000\nd e1 = e2^e3\n")
    for command in ("validate", "info"):
        start = time.perf_counter()
        code, text = run_command([command, str(big)])
        assert time.perf_counter() - start < 1
        assert (code, text) == (1, f"error: line 1: dimension 1000 exceeds bound {MAX_FILE_DIM}")
    with pytest.raises(DimensionTooLarge):
        parse_structure_file(f"dim {MAX_FILE_DIM + 1}\n")
    at_bound = tmp_path / "at_bound.txt"
    at_bound.write_text(f"dim {MAX_FILE_DIM}\nd e1 = e2^e3\n")
    assert run_command(["validate", str(at_bound)]) == (0, "ok")


def test_cli_cohomology_tsv_hyperelliptic():
    code, text = run_command(
        ["cohomology", "hyperelliptic4", "--reps", "--format", "tsv"])
    assert code == 0
    lines = text.splitlines()
    assert "betti.1\t2" in lines
    assert "rep.1.0\t1*e3" in lines
    assert "rep.1.1\t1*e4" in lines
    assert "duality.holds\ttrue" in lines


def test_cli_cohomology_plain():
    code, text = run_command(["cohomology", "sol3"])
    assert code == 0
    assert "betti 0 1" in text.splitlines()
    assert "betti 1 1" in text.splitlines()


def test_cli_tsv_stable_across_runs():
    first = run_command(["cohomology", "nakamura", "--reps", "--format", "tsv"])
    second = run_command(["cohomology", "nakamura", "--reps", "--format", "tsv"])
    assert first == second


def test_cli_split_pipeline(tmp_path):
    code, text = run_command(["split", "nakamura", "--complement", "1,2",
                              "--kill", "compact"])
    assert code == 0
    assert "# K_1 zero" in text and "# K_2 nonzero" in text
    out_file = tmp_path / "tilde.txt"
    out_file.write_text(text)
    code, text = run_command(["cohomology", str(out_file), "--format", "tsv"])
    assert code == 0
    lines = text.splitlines()
    assert "betti.2\t5" in lines and "betti.3\t8" in lines
    # the dumped constants are exactly the frozen catalog entry
    assert parse_structure_file(out_file.read_text()) == \
        catalog_get("nakamura_tilde").algebra


def test_cli_split_full_heisenberg():
    code, text = run_command(["split", "heisenberg3", "--kill", "full"])
    assert code == 0
    assert parse_structure_file(text) == catalog_get("heisenberg3").algebra


def test_cli_split_bad_complement():
    code, text = run_command(["split", "sol3", "--complement", "2",
                              "--kill", "full"])
    assert code == 1
    assert "decomposition invalid" in text


def test_cli_almost_abelian(tmp_path):
    holo = tmp_path / "b.txt"
    holo.write_text("3 3\n0 -1 0\n1 -1 0\n0 0 1\n")
    code, text = run_command(["almost-abelian", "--holonomy", str(holo)])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "b1 2"
    assert lines[1].startswith("mostow fails")
    assert "order 3" in lines
    assert "betti 1 2" in lines and "betti 2 2" in lines

    code, text = run_command(["almost-abelian", "--holonomy", str(holo),
                              "--format", "tsv"])
    assert "mostow.status\tfails" in text.splitlines()
    assert "betti.1\t2" in text.splitlines()


def test_cli_almost_abelian_with_derivation(tmp_path):
    holo = tmp_path / "b.txt"
    holo.write_text("2 2\n1 0\n0 1\n")
    deriv = tmp_path / "z.txt"
    deriv.write_text("2 2\n0 2\n-2 0\n")
    code, text = run_command(["almost-abelian", "--holonomy", str(holo),
                              "--derivation", str(deriv), "--scale", "pi"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "b1 3"
    assert lines[1].startswith("mostow fails")
    assert "betti 1 3" in lines  # torus cover Betti
    assert "ce-derham-valid false" in lines


def test_cli_almost_abelian_undetermined_exit_code(tmp_path):
    holo = tmp_path / "b.txt"
    holo.write_text("4 4\n0 0 0 -1\n1 0 0 1\n0 1 0 0\n0 0 1 0\n")
    code, text = run_command(["almost-abelian", "--holonomy", str(holo)])
    assert code == 2
    assert "mostow undetermined" in text


def test_cli_info_exit_codes(tmp_path):
    code, text = run_command(["info", "sol3"])
    assert code == 0
    assert "completely-solvable yes" in text
    code, text = run_command(["info", "rot3"])
    assert code == 0
    assert "completely-solvable no" in text
    # irrational real weights: ad(e1) has eigenvalues +-sqrt(2)
    surd = tmp_path / "surd.txt"
    surd.write_text("dim 3\nd e2 = -2 e1^e3\nd e3 = -1 e1^e2\n")
    code, text = run_command(["info", str(surd)])
    assert code == 2
    assert "completely-solvable undetermined" in text


def test_cli_info_reads_the_derived_series_once(tmp_path, monkeypatch):
    # both series, solvability and the flag's [g, g] come from one [g, g]
    # pass (three when each reader computed its own)
    passes = full_bracket_passes(monkeypatch)
    src = tmp_path / "weights.txt"
    src.write_text("dim 3\nd e2 = -1 e1^e2\nd e3 = 1 e1^e3\n")
    code, text = run_command(["info", str(src)])
    assert code == 0
    assert "completely-solvable yes" in text
    assert len(passes) == 1
    # weights +-sqrt(2): the flag is undetermined, and its solvability guard
    # reads Cartan's criterion off the operators it has, not a second series
    passes.clear()
    src.write_text("dim 3\nd e2 = 1 e1^e3\nd e3 = 2 e1^e2\n")
    code, text = run_command(["info", str(src)])
    assert code == 2
    assert "completely-solvable undetermined" in text
    assert len(passes) == 1


def test_catalog_first_load_computes_the_derived_algebra_once(monkeypatch):
    # the classification, the flag and every clause of the decomposition
    # check read [g, g] from the entry's memo; with a pass per reader there
    # were four or five: both series, the flag's [g, g] for an entry that
    # is not nilpotent, the algebra built on n and the commutator clause
    from solvco import catalog

    passes = full_bracket_passes(monkeypatch)
    monkeypatch.setattr(catalog, "_cache", {})
    for name in catalog_names():
        passes.clear()
        entry = catalog_get(name)
        assert passes == [entry.algebra], name


def test_cli_catalog():
    code, text = run_command(["catalog"])
    assert code == 0
    assert any(line.startswith("nakamura ") for line in text.splitlines())
    code, text = run_command(["catalog", "rot3"])
    assert code == 0
    assert text.splitlines()[0].startswith("#")
    code, _ = run_command(["catalog", "bogus"])
    assert code == 3


def test_cli_stdin(tmp_path, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(HEISENBERG_FILE))
    code, text = run_command(["cohomology", "-"])
    assert code == 0
    assert "betti 1 2" in text.splitlines()
