"""Kill maps, modified brackets and nilshadows."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solvco.almost_abelian import almost_abelian_algebra
from solvco.catalog import catalog_get
from solvco.cohomology import cohomology
from solvco.decompositions import integer_minimal_polynomial, jordan_chevalley
from solvco.errors import DecompositionInvalid, NonCommutingTorus
from solvco.lie import LieAlgebra, Subspace, ad_matrix, conjugate, is_nilpotent
from solvco.matrices import Matrix, basis_vector, inverse
from solvco.polynomials import real_root_counter
from solvco.splitting import (
    KillMode,
    SplittingInput,
    _verify_kill_operators,
    kill_map,
    modified_bracket,
    nilshadow,
)
from support import (
    block_diag,
    oscillator4,
    rand_invertible_rational,
    rand_unimodular,
    rotation_block,
)


def catalog_input(name):
    entry = catalog_get(name)
    return SplittingInput(entry.algebra, entry.complement, entry.nilpotent_ideal)


def test_splitting_input_verifies():
    sol3 = catalog_get("sol3").algebra
    with pytest.raises(DecompositionInvalid):
        SplittingInput(sol3, Subspace.standard(3, (2,)), Subspace.standard(3, (1, 3)))
    # the verification fills jordan_parts: one Jordan-Chevalley decomposition
    # of ad(A) per basis vector A of the complement
    inp = catalog_input("nakamura")
    assert len(inp.jordan_parts) == inp.complement.dim == 2
    for a, dec in zip(inp.complement.basis, inp.jordan_parts):
        assert dec == jordan_chevalley(ad_matrix(inp.algebra, a))


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
    assert modified_bracket(inp, kill_map(inp, KillMode.FULL)) == LieAlgebra.abelian(3)


def test_modified_bracket_nakamura_compact():
    inp = catalog_input("nakamura")
    assert modified_bracket(inp, kill_map(inp, KillMode.COMPACT)) == \
        catalog_get("nakamura_tilde").algebra


def test_modified_bracket_rot3_both_modes_abelian():
    inp = catalog_input("rot3")
    for mode in (KillMode.FULL, KillMode.COMPACT):
        assert modified_bracket(inp, kill_map(inp, mode)) == LieAlgebra.abelian(3)


def test_nilshadow_oscillator_keeps_heisenberg_part():
    osc = oscillator4()
    inp = SplittingInput(osc, Subspace.standard(4, (1,)),
                         Subspace.standard(4, (2, 3, 4)))
    shadow = nilshadow(inp)
    assert is_nilpotent(shadow)
    # the central extension bracket [e2,e3] = e4 survives the kill
    assert shadow.bracket_basis(2, 3) == (0, 0, 0, 1)
    assert shadow.bracket_basis(1, 2) == (0, 0, 0, 0)


def test_nilpotent_ideal_brackets_unchanged():
    for name in ("sol3", "rot3", "nakamura", "hyperelliptic4"):
        inp = catalog_input(name)
        for mode in (KillMode.FULL, KillMode.COMPACT):
            out = modified_bracket(inp, kill_map(inp, mode))
            g = inp.algebra
            for u in inp.nilpotent_ideal.basis:
                for w in inp.nilpotent_ideal.basis:
                    assert out.bracket(u, w) == g.bracket(u, w)


def test_full_mode_always_nilpotent():
    for name in ("sol3", "rot3", "nakamura", "hyperelliptic4", "nakamura_tilde"):
        inp = catalog_input(name)
        assert is_nilpotent(nilshadow(inp))


def test_compact_kill_identity_on_totally_real_inputs():
    for name in ("sol3", "nakamura_tilde", "heisenberg3", "abelian4"):
        inp = catalog_input(name)
        assert modified_bracket(inp, kill_map(inp, KillMode.COMPACT)) == inp.algebra


def test_compact_output_has_real_v_spectra():
    for name in ("nakamura", "rot3", "hyperelliptic4"):
        inp = catalog_input(name)
        out = modified_bracket(inp, kill_map(inp, KillMode.COMPACT))
        for a in inp.complement.basis:
            s, count = real_root_counter(integer_minimal_polynomial(ad_matrix(out, a))[0])
            assert count() == len(s) - 1


def test_compact_kill_idempotent():
    inp = catalog_input("nakamura")
    tilde = modified_bracket(inp, kill_map(inp, KillMode.COMPACT))
    inp2 = SplittingInput(tilde, inp.complement, inp.nilpotent_ideal)
    km2 = kill_map(inp2, KillMode.COMPACT)
    assert all(op.is_zero() for op in km2.operators)
    assert modified_bracket(inp2, km2) == tilde


def test_nakamura_betti_change():
    g = catalog_get("nakamura").algebra
    tilde = catalog_get("nakamura_tilde").algebra
    b_g = cohomology(g).betti
    b_t = cohomology(tilde).betti
    assert b_g != b_t
    assert b_g[0] == b_t[0] == 1
    assert b_g[6] == b_t[6] == 1


def test_compact_kill_flattens_every_rotation_plane():
    # two rotation blocks with different speeds: both planes are killed
    g = LieAlgebra(
        5, {(1, 2): {3: 1}, (1, 3): {2: -1}, (1, 4): {5: 2}, (1, 5): {4: -2}})
    inp = SplittingInput(g, Subspace.standard(5, (1,)),
                         Subspace.standard(5, (2, 3, 4, 5)))
    assert modified_bracket(inp, kill_map(inp, KillMode.COMPACT)) == LieAlgebra.abelian(5)


def test_verify_kill_operators_error_paths():
    non_commuting = [Matrix.from_rows([[0, 1], [0, 0]]),
                     Matrix.from_rows([[0, 0], [1, 0]])]
    with pytest.raises(NonCommutingTorus):
        _verify_kill_operators(non_commuting, [], [])
    keeps_v = [Matrix.identity(2)]
    with pytest.raises(NonCommutingTorus):
        _verify_kill_operators(keeps_v, [], [basis_vector(2, 0)])


def _jordan_block(lam, size):
    return Matrix.from_rows([[lam if j == i else 1 if j == i + 1 else 0
                              for j in range(size)] for i in range(size)])


SMALL = st.fractions(min_value=-2, max_value=2, max_denominator=2)
SPEED = st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=2)


@st.composite
def planted_derivations(draw):
    """(D, N, C): D = U B U^-1 for a block sum B of rotations rot(a, b)
    (b != 0), Jordan blocks of size 2 or 3 and scalars, U unimodular; N and
    C are U (+) N_k U^-1 and U (+) rot(0, b) U^-1, the nilpotent and compact
    parts of D read off the blocks."""
    blocks = draw(st.lists(st.one_of(
        st.tuples(st.just("rot"), SMALL, SPEED),
        st.tuples(st.just("jordan"), SMALL, st.integers(2, 3)),
        st.tuples(st.just("scalar"), SMALL)), min_size=1, max_size=3))
    whole, nil, compact = [], [], []
    for kind, x, *rest in blocks:
        if kind == "rot":
            whole.append(rotation_block(x, rest[0]))
            nil.append(Matrix.zeros(2, 2))
            compact.append(rotation_block(0, rest[0]))
        elif kind == "jordan":
            whole.append(_jordan_block(x, rest[0]))
            nil.append(_jordan_block(0, rest[0]))
            compact.append(Matrix.zeros(rest[0], rest[0]))
        else:
            whole.append(Matrix.from_rows([[x]]))
            nil.append(Matrix.zeros(1, 1))
            compact.append(Matrix.zeros(1, 1))
    n = sum(b.rows for b in whole)
    u = rand_unimodular(draw(st.randoms(use_true_random=False)), n)
    u_inv = inverse(u)
    return tuple(u * block_diag(*parts) * u_inv for parts in (whole, nil, compact))


@settings(max_examples=30, deadline=None)
@given(planted_derivations())
def test_kills_of_planted_derivations_match_their_blocks(planted):
    d, nil, compact = planted
    n = d.rows
    g = almost_abelian_algebra(d)
    inp = SplittingInput(g, Subspace.standard(n + 1, (1,)),
                         Subspace.standard(n + 1, range(2, n + 2)))
    assert jordan_chevalley(d).nilpotent == nil
    assert nilshadow(inp) == almost_abelian_algebra(nil)
    assert modified_bracket(inp, kill_map(inp, KillMode.COMPACT)) == \
        almost_abelian_algebra(d - compact)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from(["nakamura", "hyperelliptic4", "rot3", "sol3"]),
       st.sampled_from([KillMode.FULL, KillMode.COMPACT]))
def test_modified_bracket_commutes_with_a_rational_change_of_basis(rng, name, mode):
    # in a rational basis the brackets, the projection onto V and the kill
    # operators each have a denominator of their own, which the integer
    # sums must bring to one
    entry = catalog_get(name)
    g, n = entry.algebra, entry.algebra.dim
    p = rand_invertible_rational(rng, n) * Matrix.diagonal([Fraction(1, t + 2) for t in range(n)])
    p_inv = inverse(p)

    def moved(space):  # the same subspace in the coordinates of the new basis
        return Subspace.span(n, [p_inv.apply(v) for v in space.basis])

    inp = SplittingInput(conjugate(g, p), moved(entry.complement), moved(entry.nilpotent_ideal))
    assume(inp.algebra.denominator > 1)
    tilde = catalog_input(name)
    assert modified_bracket(inp, kill_map(inp, mode)) == conjugate(
        modified_bracket(tilde, kill_map(tilde, mode)), p)


def test_random_derivation_algebras_nilshadow():
    from support import rand_derivation_algebra

    rng = random.Random(61)
    for _ in range(15):
        g = rand_derivation_algebra(rng, rng.randint(2, 5))
        n = g.dim
        inp = SplittingInput(g, Subspace.standard(n, (1,)),
                             Subspace.standard(n, range(2, n + 1)))
        assert is_nilpotent(nilshadow(inp))
