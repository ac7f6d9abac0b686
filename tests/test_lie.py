"""Structure-constant validation, adjoints, series, flags, decompositions."""

import importlib
import random
from fractions import Fraction

import pytest

from solvco.catalog import catalog_get
from solvco.errors import (
    DecompositionInvalid,
    JacobiViolation,
    NotSolvable,
)
from solvco.lie import (
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
from solvco.almost_abelian import HolonomyInput, almost_abelian_algebra
from solvco.decompositions import (
    char_poly,
    compact_part,
    integer_minimal_polynomial,
    jordan_chevalley,
    minimal_polynomial,
)
from solvco.files import parse_structure_file, structure_equations
from solvco.matrices import Matrix, basis_vector, inverse
from solvco.splitting import KillMode, SplittingInput, kill_map, modified_bracket
from support import (
    Poly,
    companion,
    filiform,
    oscillator4,
    rand_invertible_rational,
    rand_unimodular,
    rand_valid_algebra,
)

X = Poly.x()

HEISENBERG = LieAlgebra(3, {(1, 2): {3: 1}})


def test_validate_spec_examples():
    validate(LieAlgebra.abelian(3))
    validate(HEISENBERG)
    bad = LieAlgebra(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})
    with pytest.raises(JacobiViolation) as err:
        validate(bad)
    assert err.value.triple == (1, 2, 3)
    assert any(c != 0 for c in err.value.residual)


def test_constructor_checks_indices_and_drops_zeros():
    for dim, brackets in ((3, {(2, 1): {3: 1}}), (3, {(1, 2): {4: 1}}),
                          (3, {(1, 2): {0: 1}}), (-1, {})):
        with pytest.raises(ValueError):
            LieAlgebra(dim, brackets)
    g = LieAlgebra(3, {(1, 2): {1: 0, 3: Fraction(2, 4)}, (1, 3): {2: 0}, (2, 3): {}})
    assert g == LieAlgebra(3, {(1, 2): {3: Fraction(1, 2)}})
    assert g.nonzero_brackets() == [((1, 2), {3: Fraction(1, 2)})]
    assert g.denominator == 2
    assert LieAlgebra(3, {(1, 2): {3: 0}}) == LieAlgebra.abelian(3)


def test_constructor_inverts_nonzero_brackets():
    algebras = [catalog_get(name).algebra for name in ("nakamura", "hyperelliptic4", "sol3")]
    algebras += [oscillator4(), rand_valid_algebra(random.Random(3))]
    for g in algebras:
        brackets = dict(g.nonzero_brackets())
        assert all(i < j and all(brackets[(i, j)].values()) for i, j in brackets)
        again = LieAlgebra(g.dim, brackets)
        assert again == g and hash(again) == hash(g)
        assert all(again.bracket_basis(i, j) == g.bracket_basis(i, j)
                   for i in range(1, g.dim + 1) for j in range(1, g.dim + 1))


def test_ad_matrix_spec_examples():
    assert ad_matrix(HEISENBERG, (0, 0, 0)).is_zero()
    ad1 = ad_matrix(HEISENBERG, basis_vector(3, 0))
    assert ad1.apply(basis_vector(3, 1)) == (0, 0, 1)  # e2 -> e3
    hyper = catalog_get("hyperelliptic4").algebra
    ad4 = ad_matrix(hyper, basis_vector(4, 3))
    assert minimal_polynomial(ad4) == X * (X * X + 1)
    # rotation on span{e1, e2}: e1 -> -e2, e2 -> e1
    assert ad4.apply(basis_vector(4, 0)) == (0, -1, 0, 0)
    assert ad4.apply(basis_vector(4, 1)) == (1, 0, 0, 0)


def test_ad_linearity():
    rng = random.Random(19)
    for _ in range(25):
        g = rand_valid_algebra(rng)
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.dim))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.dim))
        xy = tuple(a + b for a, b in zip(x, y))
        assert ad_matrix(g, xy) == ad_matrix(g, x) + ad_matrix(g, y)


def test_series_spec_examples():
    ab = LieAlgebra.abelian(3)
    assert [s.dim for s in derived_series(ab)] == [3, 0]
    assert [s.dim for s in lower_central_series(ab)] == [3, 0]

    lcs = lower_central_series(HEISENBERG)
    assert [s.dim for s in lcs] == [3, 1, 0]
    assert lcs[1].contains((0, 0, 1))

    sol3 = catalog_get("sol3").algebra
    ds = derived_series(sol3)
    assert [s.dim for s in ds] == [3, 2, 0]
    assert ds[1] == Subspace.standard(3, (2, 3))
    lcs = lower_central_series(sol3)
    assert [s.dim for s in lcs] == [3, 2]
    assert not is_nilpotent(sol3) and is_solvable(sol3)


def test_unimodular_spec_examples():
    assert is_unimodular(HEISENBERG)
    two_dim = LieAlgebra(2, {(1, 2): {2: 1}})  # [x, y] = y
    assert not is_unimodular(two_dim)
    assert is_unimodular(catalog_get("nakamura").algebra)


def test_completely_solvable_flag_heisenberg():
    cert = completely_solvable_flag(HEISENBERG)
    assert cert.status == "yes"
    assert [s.dim for s in cert.chain] == [0, 1, 2, 3]


def test_completely_solvable_flag_hyperelliptic_no():
    cert = completely_solvable_flag(catalog_get("hyperelliptic4").algebra)
    assert cert.status == "no"
    idx, factor = cert.witness
    assert idx == 4
    assert factor == X * X + 1


def test_completely_solvable_flag_sol3_chain():
    cert = completely_solvable_flag(catalog_get("sol3").algebra)
    assert cert.status == "yes"
    chain = cert.chain
    assert [s.dim for s in chain] == [0, 1, 2, 3]
    assert chain[1] == Subspace.standard(3, (2,))
    assert chain[2] == Subspace.standard(3, (2, 3))
    # every chain member is an ideal
    g = catalog_get("sol3").algebra
    for member in chain:
        for i in range(3):
            for w in member.basis:
                assert member.contains(g.bracket(basis_vector(3, i), w))


def test_flag_requires_solvable():
    # sl2-like: [e1,e2]=e3, [e3,e1]=2e1, [e3,e2]=-2e2 is not solvable
    sl2 = LieAlgebra(
        3, {(1, 2): {3: 1}, (1, 3): {1: -2}, (2, 3): {2: 2}})
    validate(sl2)
    assert not is_solvable(sl2)
    with pytest.raises(NotSolvable):
        completely_solvable_flag(sl2)


def test_flag_witness_needs_no_solvability():
    # so(3): [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2; ad(e1) has
    # eigenvalues 0, +-i, which rule out a rational flag of ideals
    so3 = LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}})
    validate(so3)
    assert not is_solvable(so3)
    cert = completely_solvable_flag(so3)
    assert cert.status == "no"
    assert cert.witness == (1, X * X + 1)


def test_flag_witness_keeps_the_zero_eigenvalue():
    # D = companion(x^3 - 2) is invertible, so ad(e1) restricted to
    # [g, g] = R^3 has no zero eigenvalue; ad(e1) on g kills e1, and its
    # minimal polynomial x (x^3 - 2) has no rational quadratic factor
    g = almost_abelian_algebra(companion((-2, 0, 0, 1)))
    cert = completely_solvable_flag(g)
    assert cert.status == "no"
    assert cert.witness == (1, X * X * X * X - 2 * X)


def test_flag_tries_each_operator_at_its_own_eigenvalues():
    # R^2 x| R^3 for two commuting derivations with different spectra, in a
    # rational basis U: eigenvalues of one operator never fit the other
    u = rand_invertible_rational(random.Random(3), 3)
    d1, d2 = (u * Matrix.diagonal(w) * inverse(u) for w in ((1, 2, 3), (5, -1, 7)))
    g = LieAlgebra(5, {(i, 2 + j): {2 + k: d[k - 1, j - 1] for k in (1, 2, 3)}
                       for i, d in ((1, d1), (2, d2)) for j in (1, 2, 3)})
    validate(g)
    cert = completely_solvable_flag(g)
    assert cert.status == "yes"
    comm = derived_subalgebra(g)
    assert all(comm.contains_subspace(s) for s in cert.chain[:4])
    for member in cert.chain:
        assert all(member.contains(g.bracket(basis_vector(5, i), w))
                   for i in range(5) for w in member.basis)


@pytest.mark.parametrize("name", ["sol3", "filiform6", "heisenberg3", "irrational"])
def test_flag_search_takes_one_spectrum_per_basis_operator(monkeypatch, name):
    # a search that takes the spectra again on every g / I makes 7
    # minimal polynomials on sol3 and 20 on the 6-dimensional filiform algebra
    from solvco import lie

    g = {"sol3": catalog_get("sol3").algebra, "filiform6": filiform(6),
         "heisenberg3": HEISENBERG,
         "irrational": almost_abelian_algebra(companion((-2, 0, 1)))}[name]
    calls, searches = [], []
    for fn in ("integer_minimal_polynomial", "split_factors"):
        def counted(*args, fn=fn, original=getattr(lie, fn)):
            assert not searches, f"{fn} inside the flag's step loop"
            calls.append(fn)
            return original(*args)
        monkeypatch.setattr(lie, fn, counted)
    search = lie._common_rational_eigenvector
    monkeypatch.setattr(lie, "_common_rational_eigenvector",
                        lambda *args: searches.append(args) or search(*args))
    cert = completely_solvable_flag(g)
    assert calls.count("integer_minimal_polynomial") <= g.dim
    assert calls.count("split_factors") <= g.dim
    if name == "irrational":  # x^2 - 2 does not split: decided before any search
        assert cert.status == "undetermined" and not searches
    else:
        assert cert.status == "yes" and searches


def test_verify_nilpotent_complement_spec_examples():
    verify_nilpotent_complement(HEISENBERG, Subspace(3, ()), Subspace.full(3))
    sol3 = catalog_get("sol3").algebra
    verify_nilpotent_complement(
        sol3, Subspace.standard(3, (1,)), Subspace.standard(3, (2, 3)))
    with pytest.raises(DecompositionInvalid) as err:
        verify_nilpotent_complement(
            sol3, Subspace.standard(3, (2,)), Subspace.standard(3, (1, 3)))
    assert err.value.clause == "ideal"


def test_verify_clause_order():
    sol3 = catalog_get("sol3").algebra
    with pytest.raises(DecompositionInvalid) as err:
        verify_nilpotent_complement(
            sol3, Subspace.standard(3, (1, 2)), Subspace.standard(3, (2, 3)))
    assert err.value.clause == "direct_sum"
    # n too small: [g,g] not inside
    osc = oscillator4()
    with pytest.raises(DecompositionInvalid) as err:
        verify_nilpotent_complement(
            osc, Subspace.standard(4, (1, 2)), Subspace.standard(4, (3, 4)))
    assert err.value.clause in ("ideal", "commutator")


def test_verify_semisimple_action_clause():
    # [e1, e2] = e2 + e3 style: ad(e1) has nonzero semisimple action on e2?
    # build a case where V is not killed: V = span{e1, e2} with [e1, e2] = e2
    g = LieAlgebra(3, {(1, 2): {2: 1}})
    with pytest.raises(DecompositionInvalid) as err:
        verify_nilpotent_complement(
            g, Subspace.standard(3, (1, 2)), Subspace.standard(3, (3,)))
    assert err.value.clause in ("commutator", "semisimple_action")


def test_restrict_and_commutator_contained_in_lower_central():
    rng = random.Random(29)
    for _ in range(20):
        g = rand_valid_algebra(rng)
        comm = derived_subalgebra(g)
        for term in lower_central_series(g)[1:]:
            assert comm.contains_subspace(term)


def test_catalog_classifications_match_recomputation():
    for name in ("abelian4", "heisenberg3", "sol3", "rot3", "hyperelliptic4",
                 "nakamura", "nakamura_tilde"):
        entry = catalog_get(name)
        g = entry.algebra
        assert is_solvable(g)
        if entry.classification == "nilpotent":
            assert is_nilpotent(g)
        elif entry.classification == "completely solvable":
            assert completely_solvable_flag(g).status == "yes"
        else:
            assert completely_solvable_flag(g).status == "no"
        verify_nilpotent_complement(g, entry.complement, entry.nilpotent_ideal)


def test_conjugation_preserves_structure():
    rng = random.Random(31)
    g = catalog_get("sol3").algebra
    for _ in range(10):
        u = rand_unimodular(rng, 3)
        h = conjugate(g, u)
        validate(h)
        assert is_solvable(h) and not is_nilpotent(h)
        assert is_unimodular(h) == is_unimodular(g)


def test_conjugate_refuses_a_singular_or_misshaped_change():
    g = catalog_get("sol3").algebra
    with pytest.raises(ValueError, match="dependent"):
        conjugate(g, Matrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="dim x dim"):
        conjugate(g, Matrix.identity(2))
    p = Matrix.from_rows([[1, Fraction(1, 2), 0], [0, 1, 0], [3, 0, -2]])
    assert conjugate(conjugate(g, p), inverse(p)) == g


def test_subspace_operations():
    a = Subspace.standard(3, (1, 2))
    b = Subspace.standard(3, (2, 3))
    join = a.add(b)
    assert join.dim == 3 and a.contains((1, 1, 0)) and not a.contains((0, 1, 1))
    with pytest.raises(ValueError):
        Subspace(2, [(1, 0), (2, 0)])  # dependent basis
    # the first vector's pivot is column 0, which is no sign of dependence
    assert Subspace(2, [(1, 0), (0, 1)]).dim == 2


def test_structure_and_sturm_layers_build_no_fractions(monkeypatch):
    # the bracket table is ints over its denominator (here 12), spans keep
    # integer echelon rows and the Sturm chain is in primitive ints, so the
    # Jacobi check, both series and every squarefree chain that the flag
    # search takes build no Fraction; a remainder sequence in Fractions
    # and series over rational bases build hundreds.  Parsing reads int
    # pairs into the integer builder and builds none; the Krylov chains
    # read the echelon's int remainder and multiply int lists, so only the
    # returned coefficients are Fractions (with Fraction products: 83 for
    # the degree-6 minimal polynomial, 108 for the characteristic one);
    # the flag's operators on [g, g] and the modified bracket are summed
    # in ints over one denominator (in Fractions: 1,326 for the flag, 426
    # and 537 for the full and compact brackets of nakamura).  The flag's
    # spectra, the Newton step and the compact part read the int form of
    # the minimal polynomial, and they read [g, g] through its primitive int
    # rows (with its rational basis: 18 and 15), so the flags build only
    # their eigenvalues, the decomposition none, and the compact
    # part one (with Fraction polynomials: 208 and 68 for the two flags, 12
    # for the decomposition, 149 for the compact part and 146 for the
    # compact kill).  The flag's eigenvectors come from the int kernel of
    # stacked int rows and its chain is summed in ints (with Fraction
    # eigenspaces, their intersections and lifts: 104 for the filiform
    # flag), and the lattice check reads det B off the int characteristic
    # polynomial (one Fraction with an elimination determinant).  A change
    # of basis brackets int columns and reads int coordinates, whether
    # given by a matrix or as the weight basis of the weight-zero
    # subcomplex: none (with `g.bracket` and an inverse, 761 for the
    # conjugation by p), and the Betti numbers from that subcomplex build
    # only the rational eigenvalues of ad x
    from solvco import decompositions, polynomials

    g = conjugate(filiform(7), rand_invertible_rational(random.Random(3), 7))
    assert g.denominator == 12
    text = structure_equations(g)
    nakamura = conjugate(catalog_get("nakamura").algebra,
                         rand_invertible_rational(random.Random(3), 6))
    adjoints = [ad_matrix(g, (1, 2, 0, -1, 3, 0, 1)), ad_matrix(nakamura, (1, 1, 0, 0, 0, 0))]
    semisimple = jordan_chevalley(adjoints[1]).semisimple
    krylov = [(f, a, f(a).degree) for f in (minimal_polynomial, char_poly) for a in adjoints]
    entry = catalog_get("nakamura")
    inp = SplittingInput(entry.algebra, entry.complement, entry.nilpotent_ideal)
    kills = [kill_map(inp, mode) for mode in (KillMode.FULL, KillMode.COMPACT)]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    def built(f, *args):
        made.clear()
        f(*args)
        return len(made)

    chains = []
    squarefree_chain = polynomials._squarefree_chain

    def counted_chain(p):
        before = len(made)
        out = squarefree_chain(p)
        chains.append(len(made) - before)
        return out

    monkeypatch.setattr(Fraction, "__new__", counted)
    monkeypatch.setattr(polynomials, "_squarefree_chain", counted_chain)
    assert built(validate, g) == 0
    assert built(lower_central_series, g) == 0
    assert built(derived_series, g) == 0
    assert completely_solvable_flag(g).status == "yes"
    assert chains and sum(chains) == 0
    P, _ = integer_minimal_polynomial(adjoints[0])
    assert built(polynomials._squarefree_chain, decompositions._times(P, P)) == 0
    assert built(parse_structure_file, text) == 0
    assert [built(f, a) <= degree + 1 for f, a, degree in krylov] == [True] * 4
    assert built(completely_solvable_flag, g) <= 4
    assert built(HolonomyInput, Matrix.from_rows([[2, 1], [1, 1]])) == 0
    assert built(completely_solvable_flag, nakamura) <= 4
    assert built(conjugate, g, rand_invertible_rational(random.Random(4), 7)) == 0
    assert built(importlib.import_module("solvco._weight_zero").weight_zero_betti, nakamura) <= 3
    assert built(jordan_chevalley, adjoints[1]) == 0
    assert built(compact_part, semisimple) <= 1
    assert built(kill_map, inp, KillMode.COMPACT) <= 25
    assert [built(modified_bracket, inp, kill) <= 40 for kill in kills] == [True, True]
