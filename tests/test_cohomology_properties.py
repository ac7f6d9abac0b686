"""Property tests of the sparse cohomology path against the independent
references in `support`: the alternating-sum differentials, sympy ranks,
the dense reference cohomology computed from those differentials, and the
dense Jacobi check.

Algebras come from the seeded generators in `support` (random valid
algebras in a random integer basis, rank-one extensions by a random
derivation, valid algebras conjugated into a rational basis, with small
or with large entries, R x| R^n, n = 7-8, with a rational semisimple
derivation in a rational basis, whose Betti numbers come from the
weight-zero subcomplex, and solvable algebras with a planted spectrum of
ad x, on which that subcomplex is held to the full complex and to sympy),
driven by a hypothesis-controlled random source; the module is skipped
where hypothesis is not installed.
"""

import random
from fractions import Fraction
from importlib import import_module
from math import comb, gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from solvco.almost_abelian import almost_abelian_algebra  # noqa: E402
from solvco.cli import run_command  # noqa: E402
from solvco.cohomology import (  # noqa: E402
    build_complex,
    check_square_zero,
    cohomology,
    representatives,
    sparse_differentials,
)
from solvco.errors import JacobiViolation  # noqa: E402
from solvco.files import structure_equations  # noqa: E402
from solvco.lie import (  # noqa: E402
    LieAlgebra,
    conjugate,
    is_nilpotent,
    is_solvable,
    jacobi_violation,
)
from support import (  # noqa: E402
    SPECTRAL_BLOCKS,
    apply_columns,
    dense_cohomology,
    dense_jacobi_violation,
    dense_representatives,
    oracle_betti,
    oracle_differential,
    perturb_tensor,
    rand_derivation_algebra,
    rand_invertible_rational,
    rand_large_rational,
    rand_semisimple,
    rand_unimodular,
    rand_valid_algebra,
    spectral_oscillator,
    spectral_semidirect,
    sympy_columns,
    weight_zero_calls,
)


@st.composite
def algebras(draw, max_dim=5):
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(("valid", "derivation", "rational")))
    if kind == "derivation":
        return rand_derivation_algebra(rng, rng.randint(2, max_dim))
    g = rand_valid_algebra(rng, max_dim)
    if kind == "rational":
        g = conjugate(g, rand_invertible_rational(rng, g.dim))
    return g


@st.composite
def large_rational_algebras(draw, max_dim=5):
    """Valid algebras conjugated by a matrix with large entries: 40+-bit
    structure constants over large denominators."""
    rng = draw(st.randoms(use_true_random=False))
    g = rand_valid_algebra(rng, max_dim)
    return conjugate(g, rand_large_rational(rng, g.dim))


@st.composite
def semidirect_algebras(draw):
    """R x| R^n, n = 7-8, for a rational semisimple block sum D
    (`rand_semisimple`), conjugated into a rational basis: solvable, not
    nilpotent, of dimension 8-9, with a dense bracket table.  The source
    is seeded from one drawn integer: these draw too many values for
    hypothesis to take each from its own data."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = almost_abelian_algebra(rand_semisimple(rng, rng.randint(7, 8)))
    return conjugate(g, rand_invertible_rational(rng, g.dim))


@st.composite
def wide_tables(draw):
    """Structure constants on dim 10-12 with a few random brackets whose
    indices reach the top of the basis: forms of low degree whose masks
    use bit positions above 9.  Jacobi is not asked for; the differentials
    of the low degrees do not need it."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(10, 12)
    brackets = {}
    for _ in range(rng.randint(1, 12)):
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        if rng.random() < 0.5:
            j = n
            i = min(i, n - 1)
        terms = brackets.setdefault((i, j), {})
        terms[rng.randint(1, n)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                            rng.choice((1, 1, 2, 3)))
    return LieAlgebra(n, brackets)


@st.composite
def perturbed_algebras(draw):
    rng = draw(st.randoms(use_true_random=False))
    return perturb_tensor(rng, rand_valid_algebra(rng))


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_betti_match_sympy_oracle(g):
    assert cohomology(g).betti == oracle_betti(g)


@settings(max_examples=60, deadline=None)
@given(algebras(max_dim=6), st.one_of(st.none(), st.integers(0, 7)))
def test_representatives_are_cocycles_equal_to_dense_reference(g, max_degree):
    cx = build_complex(g, max_degree=max_degree)
    res = representatives(g, max_degree=max_degree)
    assert (res.betti, dense_representatives(res, g.dim)) == dense_cohomology(g, max_degree)
    for k, reps in enumerate(res.representatives):
        assert len(reps) == res.betti[k]
        for vec in reps:
            assert any(vec.values())
            # sparse: nonzero Fractions only, in ascending index order
            assert list(vec) == sorted(vec) and all(vec.values())
            assert all(type(x) is Fraction for x in vec.values())
            assert not apply_columns(cx[k], vec)


@settings(max_examples=25, deadline=None)
@given(large_rational_algebras(), st.one_of(st.none(), st.integers(0, 5)))
def test_large_coefficient_cohomology_matches_oracle_and_dense_reference(g, max_degree):
    res = representatives(g, max_degree=max_degree)
    full = oracle_betti(g)
    assert res.betti == cohomology(g, max_degree=max_degree).betti == full[: len(res.betti)]
    assert (res.betti, dense_representatives(res, g.dim)) == dense_cohomology(g, max_degree)


@settings(max_examples=60, deadline=None)
@given(st.one_of(algebras(), large_rational_algebras()))
def test_differentials_are_the_densified_sparse_form(g):
    # the sparse columns are ints over D, the least common denominator of
    # the structure constants; densified and divided by D, they are the
    # alternating-sum oracle matrices
    n, D = g.dim, g.denominator
    constants = [c for _, coeffs in g.nonzero_brackets() for c in coeffs.values()]
    assert type(D) is int and D >= 1
    assert all((D * c).denominator == 1 for c in constants)
    # no smaller D: a common factor q > 1 of D and every D * c would make
    # D / q clear the constants as well
    assert gcd(D, *[(D * c).numerator for c in constants]) == 1
    sparse = sparse_differentials(g)
    assert build_complex(g) == tuple(sparse)
    assert len(sparse) == n + 1
    for k, columns in enumerate(sparse):
        assert len(columns) == comb(n, k)
        for col in columns:
            assert all(col.values())  # no stored zeros
            assert all(type(x) is int for x in col.values())
            assert all(0 <= t < comb(n, k + 1) for t in col)
        assert sympy_columns(columns, comb(n, k + 1)) / D == oracle_differential(g, k)


@settings(max_examples=80, deadline=None)
@given(perturbed_algebras())
def test_jacobi_violation_matches_dense_reference(g):
    found = jacobi_violation(g)
    assert found == dense_jacobi_violation(g)
    if found is not None:
        triple, residual = found
        assert len(residual) == g.dim and any(residual)
    failed = False
    try:
        check_square_zero(sparse_differentials(g))
    except JacobiViolation:
        failed = True
    assert failed == (found is not None)


@settings(max_examples=60, deadline=None)
@given(algebras(), st.data())
def test_square_check_rejects_corrupted_sparse_differential(g, data):
    # a cut below dim g keeps a nonzero top differential in the last pair
    top = data.draw(st.integers(1, g.dim))
    columns = [list(cols) for cols in sparse_differentials(g, top)]
    check_square_zero(columns)
    # corrupt d[k] e_s by + e_t, where d[k+1] e_t != 0: d∘d e_s becomes d[k+1] e_t
    targets = [(k, t) for k in range(len(columns) - 1)
               for t, col in enumerate(columns[k + 1]) if col]
    assume(targets)
    k, t = data.draw(st.sampled_from(targets))
    s = data.draw(st.integers(0, len(columns[k]) - 1))
    col = dict(columns[k][s])
    col[t] = col.get(t, 0) + 1
    if not col[t]:
        del col[t]
    columns[k][s] = col
    # d[k] is also the outer factor of d[k] d[k-1], checked first
    with pytest.raises(JacobiViolation, match=f"d o d != 0 in degree ({k - 1}|{k})$"):
        check_square_zero(columns)


@settings(max_examples=12, deadline=None)
@given(wide_tables(), st.integers(0, 2))
def test_sparse_differentials_match_oracle_at_high_bit_positions(g, max_degree):
    n, D = g.dim, g.denominator
    sparse = sparse_differentials(g, max_degree)
    assert len(sparse) == max_degree + 1
    for k, columns in enumerate(sparse):
        oracle = oracle_differential(g, k)
        assert len(columns) == comb(n, k) == oracle.cols
        want = [{} for _ in columns]
        for (t, s), x in oracle.todok().items():
            if x:
                want[s][t] = Fraction(int(x.p), int(x.q))
        assert [{t: Fraction(x, D) for t, x in col.items()} for col in columns] == want


@settings(max_examples=40, deadline=None)
@given(st.one_of(algebras(max_dim=6), large_rational_algebras()),
       st.one_of(st.none(), st.integers(0, 6)), st.randoms(use_true_random=False))
def test_rank_pass_column_order_changes_no_result(g, max_degree, rng):
    # the rank pass inserts each degree's columns in the order `sorted`
    # gives; a shuffle in its place must give the same Betti numbers and,
    # read from the echelons it built, the same representatives
    cx = build_complex(g, max_degree=max_degree)
    ref = representatives(g, max_degree)
    orders = []

    def shuffled(items, key=None):
        if key is not len:  # not the rank pass: a cocycle's index order
            return sorted(items, key=key)
        items = list(items)
        rng.shuffle(items)
        orders.append(len(items))
        return items

    with pytest.MonkeyPatch.context() as patch:
        # the module, not the `cohomology` function the package exports
        patch.setattr(import_module("solvco.cohomology"), "sorted", shuffled, raising=False)
        res = representatives(g, max_degree)
        assert orders == [len(columns) for columns in cx]
        assert res == ref


@settings(max_examples=20, deadline=None)
@given(st.one_of(algebras(max_dim=6), semidirect_algebras()), st.randoms(use_true_random=False))
def test_cohomology_command_output_is_the_same_in_every_basis(tmp_path_factory, g, rng):
    # the Betti lines and the structural report do not depend on the basis,
    # whether they come from the full complex or from the weight-zero one
    folder = tmp_path_factory.mktemp("bases")
    outputs = set()
    for t, h in enumerate((g, conjugate(g, rand_unimodular(rng, g.dim)),
                           conjugate(g, rand_invertible_rational(rng, g.dim)))):
        path = folder / f"basis{t}.txt"
        path.write_text(structure_equations(h))
        outputs.add(tuple(run_command(["cohomology", str(path)] + tail)
                          for tail in ([], ["--format", "tsv"])))
    assert len(outputs) == 1
    (plain_code, plain), (tsv_code, tsv) = outputs.pop()
    assert plain_code == tsv_code == 0
    betti = tuple(int(line.split()[2]) for line in plain.splitlines() if line.startswith("betti "))
    assert betti == tuple(int(line.split("\t")[1]) for line in tsv.splitlines()
                          if line.startswith("betti."))
    if g.dim <= 6:
        assert betti == oracle_betti(g)
    else:
        assert betti == representatives(g).betti


@settings(max_examples=15, deadline=None)
@given(semidirect_algebras())
def test_semidirect_betti_come_from_the_weight_zero_subcomplex(g):
    with pytest.MonkeyPatch.context() as patch:
        calls = weight_zero_calls(patch)
        res = cohomology(g)
        given = representatives(g)
    assert calls == [g]
    assert res.betti == given.betti


@st.composite
def weight_algebras(draw):
    """Solvable, non-nilpotent algebras of dimension 3-8: R x| R^n for D
    the companion blocks of 1-3 names of `SPECTRAL_BLOCKS` (rational
    roots, complex and real quadratics, a cubic that no search factors, a
    Jordan block, each possibly twice) in a random basis, most of them
    plus a Heisenberg, an abelian or an R x| h_3 summand (whose forms of
    weight 0 need not be closed), then put in a basis changed by
    `rand_unimodular` or `rand_invertible_rational`."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    names = [rng.choice(sorted(SPECTRAL_BLOCKS)) for _ in range(rng.randint(1, 3))]
    while sum(len(SPECTRAL_BLOCKS[name][0]) - 1 for name in names) > 6:
        names.pop()
    g, _ = spectral_semidirect(rng, names)
    quadratics = sorted(name for name, (coeffs, _) in SPECTRAL_BLOCKS.items() if len(coeffs) == 3)
    extra = rng.choice((None, LieAlgebra(3, {(1, 2): {3: 1}}), LieAlgebra(1, {}),
                        spectral_oscillator(rng, rng.choice(quadratics))))
    if extra is not None and g.dim + extra.dim <= 8:
        brackets = {ij: dict(row) for ij, row in g.nonzero_brackets()}
        brackets.update({(i + g.dim, j + g.dim): {k + g.dim: c for k, c in row.items()}
                         for (i, j), row in extra.nonzero_brackets()})
        g = LieAlgebra(g.dim + extra.dim, brackets)
    change = rng.choice((rand_unimodular, rand_invertible_rational))
    return conjugate(g, change(rng, g.dim))


@settings(max_examples=30, deadline=None)
@given(weight_algebras())
def test_weight_zero_subcomplex_has_the_betti_numbers_of_the_full_complex(g):
    assert is_solvable(g) and not is_nilpotent(g)
    betti = import_module("solvco._weight_zero").weight_zero_betti(g)
    assert betti == representatives(g).betti
    if g.dim <= 6:
        assert betti == oracle_betti(g)
