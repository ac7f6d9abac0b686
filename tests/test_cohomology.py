"""Exterior-form complex: differentials, Betti numbers, structural checks."""

import importlib
import random
import time
from fractions import Fraction
from math import comb

import pytest

from solvco.catalog import catalog_get, catalog_names
from solvco.cohomology import (
    CohomologyResult,
    _rank,
    build_complex,
    check_square_zero,
    cohomology,
    format_cocycle,
    multi_indices,
    representatives,
    sparse_differentials,
    structural_checks,
)
from solvco.almost_abelian import almost_abelian_algebra
from solvco.cli import run_command
from solvco.errors import CheckFailed, DimensionTooLarge, JacobiViolation
from solvco.files import structure_equations
from solvco.decompositions import jordan_chevalley
from solvco.lie import (
    LieAlgebra,
    ad_matrix,
    conjugate,
    is_nilpotent,
    is_unimodular,
    jacobi_violation,
)
from solvco.matrices import Matrix, basis_vector, inverse, wedge_positions
from support import (
    apply_columns,
    complex_builds,
    dense14,
    filiform,
    full_bracket_passes,
    oracle_betti,
    oracle_differential,
    perturb_tensor,
    rand_invertible_rational,
    rand_large_rational,
    rand_semisimple,
    rand_unimodular,
    rand_valid_algebra,
    spectral_semidirect,
    sympy_columns,
    weight_zero_calls,
    zero_sum_betti,
)

HEISENBERG = LieAlgebra(3, {(1, 2): {3: 1}})


def test_build_complex_abelian_all_zero():
    cx = build_complex(LieAlgebra.abelian(4))
    assert not any(col for columns in cx for col in columns)


def test_build_complex_heisenberg_generator():
    cx = build_complex(HEISENBERG)
    # d e3 = -e12: column of e3 in degree 1 has a single entry -1 at e12
    d1 = cx[1]
    pairs = multi_indices(3, 2)
    assert d1[2] == {pairs.index((1, 2)): -1}
    assert d1[0] == {}


def test_build_complex_nakamura_two_terms():
    g = catalog_get("nakamura").algebra
    cx = build_complex(g)
    pairs = multi_indices(6, 2)
    col = cx[1][2]  # d e3
    nonzero = {pairs[r]: x for r, x in col.items()}
    assert nonzero == {(1, 3): Fraction(-1), (2, 4): Fraction(1)}


def _catalog_algebras(max_dim=8):
    for name in catalog_names():
        g = catalog_get(name).algebra
        if g.dim <= max_dim:
            yield name, g


def test_differential_squares_to_zero_on_catalog():
    for _, g in _catalog_algebras():
        cx = build_complex(g)
        for k in range(len(cx) - 1):
            for col in cx[k]:
                assert not apply_columns(cx[k + 1], col)


def test_betti_spec_examples():
    assert cohomology(LieAlgebra.abelian(3)).betti == (1, 3, 3, 1)
    assert cohomology(HEISENBERG).betti == (1, 2, 2, 1)
    res = representatives(catalog_get("hyperelliptic4").algebra)
    assert res.betti[1] == 2
    assert [format_cocycle(v, 4, 1) for v in res.representatives[1]] == ["1*e3", "1*e4"]


def test_betti_against_independent_oracle():
    for name in ("abelian3", "heisenberg3", "sol3", "rot3", "hyperelliptic4"):
        g = catalog_get(name).algebra
        assert cohomology(g).betti == oracle_betti(g)


def test_differential_matrices_match_oracle():
    for name in ("heisenberg3", "sol3", "hyperelliptic4"):
        g = catalog_get(name).algebra
        columns = sparse_differentials(g)
        for k in range(g.dim + 1):
            ours = sympy_columns(columns[k], comb(g.dim, k + 1)) / g.denominator
            assert ours == oracle_differential(g, k)


def test_structural_checks_spec_examples():
    # each theorem the report checks holds, so it returns without raising
    rep = structural_checks(cohomology(HEISENBERG), HEISENBERG)
    assert rep.duality_holds and rep.unimodular
    assert rep.b1 == 2 and rep.b1_bound == 2 and rep.nilpotent

    sol3 = catalog_get("sol3").algebra
    rep = structural_checks(cohomology(sol3), sol3)
    assert rep.duality_holds
    assert cohomology(sol3).betti == (1, 1, 1, 1)

    two_dim = LieAlgebra(2, {(1, 2): {2: 1}})
    res = cohomology(two_dim)
    rep = structural_checks(res, two_dim)
    assert res.betti == (1, 1, 0)
    assert not rep.unimodular
    assert not rep.duality_holds  # exactly what non-unimodularity predicts
    assert rep.euler_characteristic == 0 and rep.b1 == rep.b1_expected == 1
    assert rep.solvable and rep.b1_bound == 1
    assert "duality violated" in rep.lines()


@pytest.mark.parametrize("g, betti, theorem", [
    # Heisenberg is unimodular: duality must hold
    (HEISENBERG, (1, 2, 1, 1), "Poincare duality fails but g is unimodular"),
    # the 2-dimensional non-abelian algebra is not: duality must fail
    (LieAlgebra(2, {(1, 2): {2: 1}}), (1, 1, 1), "Poincare duality holds but g is not"),
    (LieAlgebra.abelian(4), (1, 4, 5, 4, 1), "Euler characteristic -1 != 0"),
    (catalog_get("sol3").algebra, (1, 0, 0, 1), "b1 = 0 below the bound 1"),
    (HEISENBERG, (1, 3, 3, 1), r"b1 = 3 but dim g - dim \[g, g\] = 2"),
])
def test_structural_checks_raise_on_a_broken_theorem(g, betti, theorem):
    with pytest.raises(CheckFailed, match=theorem):
        structural_checks(CohomologyResult(betti), g)


def test_b1_bound_starts_at_two_from_dimension_two():
    # g = R is nilpotent with b1 = 1: the nilpotent bound b1 >= 2 needs
    # dim g/[g, g] >= 2, so it applies from dimension 2 on
    rep = structural_checks(cohomology(LieAlgebra.abelian(1)), LieAlgebra.abelian(1))
    assert rep.nilpotent and rep.b1 == 1
    assert rep.b1_bound == 1
    assert "b1-bound >= 1 ok" in rep.lines()
    rep = structural_checks(cohomology(LieAlgebra.abelian(2)), LieAlgebra.abelian(2))
    assert rep.b1_bound == 2 and "b1-bound >= 2 ok" in rep.lines()


def test_b1_equals_dim_minus_commutator_on_catalog():
    from solvco.lie import derived_subalgebra

    for _, g in _catalog_algebras():
        res = cohomology(g)
        if g.dim >= 1:
            assert res.betti[1] == g.dim - derived_subalgebra(g).dim


def test_duality_on_unimodular_catalog_entries():
    for _, g in _catalog_algebras():
        betti = cohomology(g).betti
        assert is_unimodular(g)
        assert all(betti[k] == betti[g.dim - k] for k in range(g.dim + 1))


def test_jacobi_iff_d_squared_zero():
    rng = random.Random(37)
    for _ in range(40):
        g = rand_valid_algebra(rng)
        if rng.random() < 0.5:
            g = perturb_tensor(rng, g)
        try:
            check_square_zero(sparse_differentials(g))
            d2_zero = True
        except JacobiViolation:
            d2_zero = False
        assert d2_zero == (jacobi_violation(g) is None)


def test_betti_invariant_under_basis_change():
    from support import rand_invertible_rational

    rng = random.Random(43)
    for name in ("heisenberg3", "sol3", "hyperelliptic4", "rot3"):
        g = catalog_get(name).algebra
        reference = cohomology(g).betti
        for _ in range(5):
            p = rand_invertible_rational(rng, g.dim)
            assert cohomology(conjugate(g, p)).betti == reference


def test_euler_characteristic_zero():
    rng = random.Random(47)
    for _ in range(20):
        g = rand_valid_algebra(rng)
        betti = representatives(g).betti
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0
        # the space-level alternating sum vanishes as well
        cx = build_complex(g)
        assert sum((-1) ** k * len(columns) for k, columns in enumerate(cx)) == 0


def test_max_degree_prefix():
    g = catalog_get("nakamura").algebra
    full = cohomology(g).betti
    partial = cohomology(g, max_degree=2).betti
    assert partial == full[:3]
    assert [len(columns) for columns in build_complex(g, max_degree=2)] == [1, 6, 15]
    assert cohomology(g, max_degree=9).betti == full
    with pytest.raises(ValueError):
        cohomology(g, max_degree=-2)
    with pytest.raises(ValueError):
        sparse_differentials(g, max_degree=-2)


def test_dimension_bound():
    with pytest.raises(DimensionTooLarge,
                       match=r"^dimension 13 exceeds bound 12; use a degree cut-off$"):
        build_complex(LieAlgebra.abelian(13))
    assert len(build_complex(LieAlgebra.abelian(12))) == 13  # 2^12 forms
    # a degree cut-off passes while the forms it builds number at most 2^12:
    # degrees <= 6 of dimension 13 are 4096 forms, degrees <= 7 are 5812
    res = cohomology(LieAlgebra.abelian(13), max_degree=1)
    assert res.betti == (1, 13)
    assert len(build_complex(LieAlgebra.abelian(13), max_degree=5)) == 6
    with pytest.raises(DimensionTooLarge,
                       match=r"^degree cut-off 6 at dimension 13 builds 5812 forms, "
                             r"more than 2\^12 = 4096$"):
        build_complex(LieAlgebra.abelian(13), max_degree=6)
    # a cut at or above the dimension builds the whole complex
    with pytest.raises(DimensionTooLarge, match="builds 16384 forms"):
        build_complex(LieAlgebra.abelian(14), max_degree=14)


def test_build_complex_validates():
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    with pytest.raises(JacobiViolation):
        build_complex(bad)


def test_nonzero_d_squared_names_the_jacobi_triple():
    g = LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {1: 1}})
    assert jacobi_violation(g)[0] == (1, 2, 3)
    for compute in (cohomology, representatives, build_complex):
        with pytest.raises(JacobiViolation) as info:
            compute(g)
        assert info.value.triple == (1, 2, 3)


def test_a_builder_fault_on_a_valid_algebra_fails_the_check(monkeypatch):
    g = catalog_get("nakamura").algebra
    original = sparse_differentials

    def flipped(g, max_degree=None):
        # negate one entry of d[3] e_s at a target e_t with d[4] e_t != 0:
        # d[4] d[3] e_s picks up -2 x d[4] e_t
        columns = original(g, max_degree)
        s, t = next((s, t) for s, col in enumerate(columns[3]) for t in col if columns[4][t])
        col = dict(columns[3][s])
        col[t] = -col[t]
        columns[3] = columns[3][:s] + (col,) + columns[3][s + 1:]
        return columns

    monkeypatch.setattr(importlib.import_module("solvco.cohomology"), "sparse_differentials",
                        flipped)
    with pytest.raises(CheckFailed, match="although the Jacobi identity holds"):
        cohomology(g)
    assert run_command(["cohomology", "nakamura"])[0] == 1


def test_representatives_are_cocycles_and_deterministic():
    g = catalog_get("nakamura").algebra
    cx = build_complex(g)
    res1 = representatives(g)
    res2 = representatives(g)
    assert res1 == res2
    for k, reps in enumerate(res1.representatives):
        assert len(reps) == res1.betti[k]
        for vec in reps:
            assert not apply_columns(cx[k], vec)


def test_format_cocycle():
    assert format_cocycle({0: Fraction(1)}, 3, 0) == "1*1"
    pairs = multi_indices(4, 2)
    vec = {pairs.index((1, 4)): Fraction(1), pairs.index((1, 2)): Fraction(-1, 2)}
    assert format_cocycle(vec, 4, 2) == "-1/2*e12 + 1*e14"


def _semidirect(seed, n):
    """R x| R^n for a rational semisimple D, in a rational basis."""
    rng = random.Random(seed)
    g = almost_abelian_algebra(rand_semisimple(rng, n))
    return conjugate(g, rand_invertible_rational(rng, g.dim))


def _diagonal(n):
    """R x| R^n for a diagonal D in its eigenbasis: n bracket terms."""
    return LieAlgebra(n + 1, {(1, j): {j: Fraction((-1) ** j * (j // 2))} for j in range(2, n + 2)})


def _full_betti(g):
    """Betti numbers of the full complex in the given basis."""
    return _rank(g.dim, build_complex(g))[0]


def test_adapted_complex_keeps_betti_and_representatives(monkeypatch):
    calls = weight_zero_calls(monkeypatch)
    for seed, n in ((1, 7), (2, 8)):
        g = _semidirect(seed, n)
        res = cohomology(g)
        assert calls == [g] and res.representatives is None
        # the representatives come from the full complex in the given basis
        given = representatives(g)
        assert calls == [g]
        assert res.betti == given.betti == _full_betti(g)
        # the report reads the series of the algebra it is handed
        assert structural_checks(res, g) == structural_checks(given, g)
        other = filiform(g.dim)
        assert is_nilpotent(other)
        with pytest.raises(CheckFailed):
            structural_checks(res, other)
        calls.clear()


def test_cli_takes_the_weight_zero_path_only_for_a_full_betti_command(tmp_path, monkeypatch):
    calls = weight_zero_calls(monkeypatch)
    adapted, nilpotent = tmp_path / "adapted.txt", tmp_path / "nilpotent.txt"
    adapted.write_text(structure_equations(_semidirect(1, 7)))
    nilpotent.write_text(structure_equations(
        conjugate(filiform(8), rand_invertible_rational(random.Random(5), 8))))
    small, sparse = tmp_path / "small.txt", tmp_path / "sparse.txt"
    small.write_text(structure_equations(_semidirect(1, 6)))
    sparse.write_text(structure_equations(_diagonal(8)))
    never = ([str(nilpotent)], [str(nilpotent), "--format", "tsv"], [str(small)],
             [str(adapted), "--reps"], [str(adapted), "--reps", "--format", "tsv"],
             [str(sparse), "--reps"],
             [str(adapted), "--max-degree", "3"], [str(adapted), "--max-degree", "7"])
    for args in never:
        code, _ = run_command(["cohomology"] + args)
        assert code == 0 and calls == []
    for path in (adapted, sparse):
        for tail in ([], ["--format", "tsv"]):
            assert run_command(["cohomology", str(path)] + tail)[0] == 0
    # a cut at dim g cuts nothing
    assert run_command(["cohomology", str(adapted), "--max-degree", "8"])[0] == 0
    assert len(calls) == 5


def test_golden_dense_file_takes_the_weight_zero_path(tmp_path, monkeypatch):
    from test_golden_cli import FILES

    calls = weight_zero_calls(monkeypatch)
    path = tmp_path / "rational8.txt"
    path.write_text(FILES["rational8.txt"])
    for tail in ([], ["--format", "tsv"]):
        assert run_command(["cohomology", str(path)] + tail)[0] == 0
    assert len(calls) == 2
    assert run_command(["cohomology", str(path), "--reps"])[0] == 0
    assert len(calls) == 2


def test_weight_zero_path_returns_on_a_large_rational_basis():
    # x is a large multiple of the R generator plus a nilpotent part, so the
    # minimal polynomial of ad x has coefficients of thousands of bits: the
    # capped factor searches leave what they miss in the unfactored block
    g, eigenvalues = spectral_semidirect(random.Random(1), ("one", "i", "2i", "sqrt3"))
    h = conjugate(g, rand_large_rational(random.Random(0), 8))
    assert h.denominator.bit_length() > 200
    start = time.perf_counter()
    betti = cohomology(h).betti
    assert time.perf_counter() - start < 2
    assert betti == zero_sum_betti(eigenvalues) == _full_betti(h)


def test_dense14_returns_its_closed_form_through_the_cli(tmp_path):
    # 2^14 forms: more than the full complex admits, 160 of weight 0
    g, betti = dense14()
    path = tmp_path / "dense14.txt"
    path.write_text(structure_equations(g))
    start = time.perf_counter()
    code, text = run_command(["cohomology", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert tuple(int(line.split()[2]) for line in text.splitlines()
                 if line.startswith("betti ")) == betti


def test_a_degree_cut_at_the_dimension_cuts_nothing(tmp_path, monkeypatch):
    # a cut at or above dim g takes the path of no cut: dense14 returns its
    # closed form from the weight-zero subcomplex, with no full complex of
    # 2^14 forms built
    g, betti = dense14()
    path = tmp_path / "dense14.txt"
    path.write_text(structure_equations(g))
    builds = complex_builds(monkeypatch)
    start = time.perf_counter()
    code, text = run_command(["cohomology", str(path), "--max-degree", "14"])
    assert time.perf_counter() - start < 1
    assert code == 0 and builds == []
    assert tuple(int(line.split()[2]) for line in text.splitlines()
                 if line.startswith("betti ")) == betti
    assert cohomology(g, max_degree=20).betti == betti


@pytest.mark.parametrize("names", [
    # a quadratic block of multiplicity 2: its top power has the weight
    # tr(s|V) = 4, twice the root sum of its factor, which -4 cancels
    ("1+i", "1+i", "minus4", "i"),
    # real and complex quadratics whose weights cancel across blocks only
    ("sqrt3", "sqrt3", "i", "2i", "one"),
    # a rational root of multiplicity 2: its first power has the weight 1
    ("one", "one", "minus1", "i", "sqrt3"),
    # a cubic no search factors: the unfactored block
    ("cubic", "one", "minus1", "i"),
])
def test_weight_zero_betti_match_the_closed_form(names):
    g, eigenvalues = spectral_semidirect(random.Random(7), names)
    assert cohomology(g).betti == _full_betti(g)
    if "cubic" not in names:
        assert cohomology(g).betti == zero_sum_betti(eigenvalues)


def test_weight_zero_subcomplex_reads_the_semisimple_part():
    # ad x = 1 + N on a Jordan block of R^2 and -1, -1 on R^2: the kernel of
    # L_x misses forms of weight 0 that ker L_s holds, e.g. e^a ^ e^c with a
    # the top of the Jordan block
    d = Matrix.from_rows([[1, 1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0, 0], [0, 0, -1, 0, 0, 0, 0],
                          [0, 0, 0, -1, 0, 0, 0], [0, 0, 0, 0, 0, -1, 0],
                          [0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 2]])
    u = rand_unimodular(random.Random(3), 7)
    g = almost_abelian_algebra(u * d * inverse(u))
    assert cohomology(g).betti == representatives(g).betti
    assert not jordan_chevalley(ad_matrix(g, basis_vector(8, 0))).nilpotent.is_zero()


def test_weight_zero_path_divides_out_a_factor_found_in_another_chain():
    # ad e4 has the roots 0, +-l and those of x^2 + L, l = 1186408341501468 /
    # 2262890012 beyond the capped root search: the chains of e2 and e3 have
    # the annihilators (x -+ l)(x^2 + L), whose quadratic is found only on
    # the chains of e1 and e5 and must be divided out of theirs too, or the
    # unfactored block is not s-invariant
    g = LieAlgebra.from_integer_brackets(5, {
        (1, 4): {5: -95670820249},
        (2, 4): {1: 1186408341501468, 2: -1186408341501468, 5: -95670820249},
        (3, 4): {1: 29425163265472817952, 3: 1186408341501468, 5: 2372816683002936},
        (4, 5): {1: -14712581632736408976}}, 2262890012)
    betti = importlib.import_module("solvco._weight_zero").weight_zero_betti(g)
    assert betti == representatives(g).betti == (1, 1, 2, 2, 1, 1)


def test_weight_zero_path_checks_d_squared_and_the_budget(monkeypatch):
    # a d that adds a term t with d t != 0 to d of the first 1-form of F
    # is seen by d o d = 0 on F
    module = importlib.import_module("solvco._weight_zero")
    g = catalog_get("nakamura").algebra
    assert module.weight_zero_betti(g) == cohomology(g).betti
    original, added = module._d_of_mask, []

    def fault(terms, mask, target=None):
        col = original(terms, mask, target)
        if not added and mask:
            t = next(t for t in wedge_positions(g.dim, 2) if original(terms, t))
            col[t] = col.get(t, 0) + 1
            added.append(mask)
        return col

    monkeypatch.setattr(module, "_d_of_mask", fault)
    with pytest.raises(CheckFailed, match="weight-zero subcomplex"):
        module.weight_zero_betti(g)
    assert added
    monkeypatch.undo()
    # R x| R^14 with the weights +-1 has 2 C(14, 7) = 6,864 forms of weight
    # 0, more than 2^12
    big = almost_abelian_algebra(Matrix.diagonal([(-1) ** j for j in range(14)]))
    with pytest.raises(DimensionTooLarge, match="weight-zero subcomplex"):
        cohomology(big)


def test_cli_cohomology_computes_each_series_once(tmp_path, monkeypatch):
    # the gate, the report and both series read [g, g] from g's memo: one
    # [g, g] pass per command, where a series computed apart from the
    # other makes two
    passes = full_bracket_passes(monkeypatch)
    for g in (_semidirect(1, 7), HEISENBERG, catalog_get("nakamura").algebra):
        path = tmp_path / "algebra.txt"
        path.write_text(structure_equations(g))
        for tail in ([], ["--format", "tsv"], ["--reps"]):
            passes.clear()
            assert run_command(["cohomology", str(path)] + tail)[0] == 0
            assert passes == [g]


def test_each_cohomology_command_builds_one_complex(tmp_path, monkeypatch):
    builds = complex_builds(monkeypatch)
    # solvable of dimension >= 8 (Betti numbers from the weight-zero
    # subcomplex, no full complex), below, nilpotent
    for g in (_semidirect(1, 7), _diagonal(8), catalog_get("nakamura").algebra, HEISENBERG):
        path = tmp_path / "algebra.txt"
        path.write_text(structure_equations(g))
        for tail in ([], ["--format", "tsv"], ["--reps"], ["--reps", "--format", "tsv"]):
            builds.clear()
            assert run_command(["cohomology", str(path)] + tail)[0] == 0
            assert len(builds) == (0 if g.dim >= 8 and "--reps" not in tail else 1)
        builds.clear()
        representatives(g)
        assert builds == [g]
