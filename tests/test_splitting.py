"""Kill maps, modified brackets, nilshadows, and the full splitting."""

import random

import pytest

from solvco.catalog import catalog_get
from solvco.cohomology import cohomology
from solvco.decompositions import minimal_polynomial
from solvco.errors import DecompositionInvalid, NonCommutingTorus
from solvco.lie import LieAlgebra, Subspace, ad_matrix, is_nilpotent
from solvco.matrices import Matrix, basis_vector
from solvco.polynomials import is_totally_real
from solvco.splitting import (
    KillMode,
    SplittingInput,
    _verify_kill_operators,
    compact_components,
    kill_map,
    malcev_splitting,
    modified_bracket,
    nilshadow,
)
from support import oscillator4


def catalog_input(name):
    entry = catalog_get(name)
    return SplittingInput(entry.algebra, entry.complement, entry.nilpotent_ideal)


def test_splitting_input_verifies():
    sol3 = catalog_get("sol3").algebra
    with pytest.raises(DecompositionInvalid):
        SplittingInput(sol3, Subspace.standard(3, (2,)), Subspace.standard(3, (1, 3)))


def test_kill_map_sol3_compact_is_zero():
    inp = catalog_input("sol3")
    km = kill_map(inp, KillMode.COMPACT)
    assert len(km.operators) == 1
    assert km.operators[0].is_zero()  # real spectrum -1, +1


def test_kill_map_nakamura():
    inp = catalog_input("nakamura")
    km = kill_map(inp, KillMode.COMPACT)
    assert km.operators[0].is_zero()
    k2 = km.operators[1]
    assert not k2.is_zero()
    # K2 agrees with ad(e2) on the nilpotent ideal and kills V
    g = inp.algebra
    ad2 = ad_matrix(g, basis_vector(6, 1))
    for t in range(2, 6):
        assert k2.apply(basis_vector(6, t)) == ad2.apply(basis_vector(6, t))
    for t in range(2):
        assert all(c == 0 for c in k2.apply(basis_vector(6, t)))


def test_kill_map_empty_complement():
    inp = catalog_input("heisenberg3")
    km = kill_map(inp, KillMode.COMPACT)
    assert km.operators == ()


def test_modified_bracket_sol3_full_abelian():
    inp = catalog_input("sol3")
    res = modified_bracket(inp, kill_map(inp, KillMode.FULL))
    assert res.output == LieAlgebra.abelian(3)
    assert res.identification == Matrix.identity(3)


def test_modified_bracket_nakamura_compact():
    inp = catalog_input("nakamura")
    res = modified_bracket(inp, kill_map(inp, KillMode.COMPACT))
    assert res.output == catalog_get("nakamura_tilde").algebra


def test_modified_bracket_rot3_both_modes_abelian():
    inp = catalog_input("rot3")
    for mode in (KillMode.FULL, KillMode.COMPACT):
        res = modified_bracket(inp, kill_map(inp, mode))
        assert res.output == LieAlgebra.abelian(3)


def test_nilshadow_oscillator_keeps_heisenberg_part():
    osc = oscillator4()
    inp = SplittingInput(osc, Subspace.standard(4, (1,)),
                         Subspace.standard(4, (2, 3, 4)))
    res = nilshadow(inp)
    assert is_nilpotent(res.output)
    # the central extension bracket [e2,e3] = e4 survives the kill
    assert res.output.bracket_basis(2, 3) == (0, 0, 0, 1)
    assert res.output.bracket_basis(1, 2) == (0, 0, 0, 0)


def test_nilpotent_ideal_brackets_unchanged():
    for name in ("sol3", "rot3", "nakamura", "hyperelliptic4"):
        inp = catalog_input(name)
        for mode in (KillMode.FULL, KillMode.COMPACT):
            out = modified_bracket(inp, kill_map(inp, mode)).output
            g = inp.algebra
            for u in inp.nilpotent_ideal.basis:
                for w in inp.nilpotent_ideal.basis:
                    assert out.bracket(u, w) == g.bracket(u, w)


def test_full_mode_always_nilpotent():
    for name in ("sol3", "rot3", "nakamura", "hyperelliptic4", "nakamura_tilde"):
        inp = catalog_input(name)
        assert is_nilpotent(nilshadow(inp).output)


def test_compact_kill_identity_on_totally_real_inputs():
    for name in ("sol3", "nakamura_tilde", "heisenberg3", "abelian4"):
        inp = catalog_input(name)
        res = modified_bracket(inp, kill_map(inp, KillMode.COMPACT))
        assert res.output == inp.algebra


def test_compact_output_has_real_v_spectra():
    for name in ("nakamura", "rot3", "hyperelliptic4"):
        inp = catalog_input(name)
        out = modified_bracket(inp, kill_map(inp, KillMode.COMPACT)).output
        for a in inp.complement.basis:
            assert is_totally_real(minimal_polynomial(ad_matrix(out, a)))


def test_compact_kill_idempotent():
    inp = catalog_input("nakamura")
    tilde = modified_bracket(inp, kill_map(inp, KillMode.COMPACT)).output
    inp2 = SplittingInput(tilde, inp.complement, inp.nilpotent_ideal)
    km2 = kill_map(inp2, KillMode.COMPACT)
    assert all(op.is_zero() for op in km2.operators)
    assert modified_bracket(inp2, km2).output == tilde


def test_nakamura_betti_change():
    g = catalog_get("nakamura").algebra
    tilde = catalog_get("nakamura_tilde").algebra
    b_g = cohomology(g).betti
    b_t = cohomology(tilde).betti
    assert b_g != b_t
    assert b_g[0] == b_t[0] == 1
    assert b_g[6] == b_t[6] == 1


def test_selected_mode():
    # two rotation blocks with different speeds; kill only the first
    g = LieAlgebra(
        5, {(1, 2): {3: 1}, (1, 3): {2: -1}, (1, 4): {5: 2}, (1, 5): {4: -2}})
    inp = SplittingInput(g, Subspace.standard(5, (1,)),
                         Subspace.standard(5, (2, 3, 4, 5)))
    comps = compact_components(inp)
    assert len(comps[0]) == 2
    km = kill_map(inp, KillMode.SELECTED, selection={1: (0,)})
    out = modified_bracket(inp, km).output
    killed = [(i, j) for (i, j), _ in g.nonzero_brackets()
              if out.bracket_basis(i, j) != g.bracket_basis(i, j)]
    # exactly one of the two rotation planes was flattened
    assert out != g and out != LieAlgebra.abelian(5)
    assert killed in ([(1, 2), (1, 3)], [(1, 4), (1, 5)])
    # selecting both components reproduces the compact kill
    km_all = kill_map(inp, KillMode.SELECTED, selection={1: (0, 1)})
    assert modified_bracket(inp, km_all).output == \
        modified_bracket(inp, kill_map(inp, KillMode.COMPACT)).output
    # empty selection keeps the algebra
    km_none = kill_map(inp, KillMode.SELECTED)
    assert modified_bracket(inp, km_none).output == g


def test_verify_kill_operators_error_paths():
    non_commuting = [Matrix.from_rows([[0, 1], [0, 0]]),
                     Matrix.from_rows([[0, 0], [1, 0]])]
    with pytest.raises(NonCommutingTorus):
        _verify_kill_operators(non_commuting, [], [])
    keeps_v = [Matrix.identity(2)]
    with pytest.raises(NonCommutingTorus):
        _verify_kill_operators(keeps_v, [], [basis_vector(2, 0)])


def test_malcev_splitting_nilpotent_input_is_trivial():
    inp = catalog_input("heisenberg3")
    res = malcev_splitting(inp)
    assert res.output.dim == 3
    assert res.output == inp.algebra
    assert res.identification == Matrix.identity(3)


def test_malcev_splitting_sol3():
    inp = catalog_input("sol3")
    res = malcev_splitting(inp)
    assert res.output.dim == 4
    # the V copy acts on the g copy by the semisimple part
    out = res.output
    assert out.bracket_basis(1, 3) == (0, 0, -1, 0)  # [A1, e2-copy] = -e2
    assert out.bracket_basis(1, 4) == (0, 0, 0, 1)
    # embedded algebra copy through the identification
    g = inp.algebra
    for p in range(3):
        col = tuple(res.identification.column(p))
        assert col == (0,) + tuple(basis_vector(3, p))


def test_malcev_splitting_nakamura():
    inp = catalog_input("nakamura")
    res = malcev_splitting(inp)
    assert res.output.dim == 8
    from solvco.lie import validate

    validate(res.output)
    # the embedded nilshadow is abelian R^6
    assert nilshadow(inp).output == LieAlgebra.abelian(6)


def test_random_derivation_algebras_nilshadow():
    from support import rand_derivation_algebra

    rng = random.Random(61)
    for _ in range(15):
        g = rand_derivation_algebra(rng, rng.randint(2, 5))
        n = g.dim
        inp = SplittingInput(g, Subspace.standard(n, (1,)),
                             Subspace.standard(n, range(2, n + 1)))
        assert is_nilpotent(nilshadow(inp).output)
