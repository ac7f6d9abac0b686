"""Property tests of the Lie layer's sparse bracket kernel against the dense
sympy model `support.SympyLie`, which builds its own brackets from the
structure constants, of the flag search's common eigenvector against
sympy's nullspace, and of the round trips through a structure file and
through the bracket table.

Algebras are random valid algebras in a random integer basis
(`rand_valid_algebra`), two in three of them conjugated by
`rand_invertible_rational` or `rand_large_rational` (40+-bit structure
constants over large denominators), drawn from a hypothesis-controlled
random source; the module is skipped where hypothesis is not installed.

The integer bracket table (ints over `denominator`) is held to the
constants it was built from: random tables with large, mostly coprime
denominators, read back through every reader; the Jacobi residual of a
planted violation is held to the dense reference
`support.dense_jacobi_violation`.  The integer path is held to the
`Fraction` one by ==, hash, denominator and the int terms: the integer
builder on cleared (and commonly scaled) ints against the `Fraction`
constructor, and parsing against the algebra written out and against
hand-written signed and unreduced coefficient tokens.

The flag certificate is held to planted spectra: R x|_D Q^k with
D = U (blocks) U^-1, the blocks rational scalars, Jordan blocks, x^2 - 2,
negative-discriminant quadratics and x^3 - 2, whose rational eigenvalues
decide the status; R^2 x| Q^k for two commuting derivations with
different spectra; and nilpotent algebras in a random basis.
"""

import itertools
import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from solvco.almost_abelian import almost_abelian_algebra  # noqa: E402
from solvco._weight_zero import _semisimple_blocks  # noqa: E402
from solvco.decompositions import (  # noqa: E402
    integer_minimal_polynomial,
    jordan_chevalley,
    minimal_polynomial,
    rational_spectrum,
)
from solvco.polynomials import Polynomial  # noqa: E402
from solvco.errors import DecompositionInvalid, NotSolvable  # noqa: E402
from solvco.files import parse_structure_file, structure_equations  # noqa: E402
from solvco import lie  # noqa: E402
from solvco.lie import (  # noqa: E402
    LieAlgebra,
    Subspace,
    ad_matrix,
    bracket_subspaces,
    completely_solvable_flag,
    conjugate,
    derived_series,
    derived_subalgebra,
    is_nilpotent,
    is_solvable,
    is_unimodular,
    jacobi_violation,
    lower_central_series,
    validate,
    verify_nilpotent_complement,
)
from solvco.matrices import Matrix, basis_vector, clear_denominators, inverse  # noqa: E402
from support import (  # noqa: E402
    SympyLie,
    block_diag,
    companion,
    dense_jacobi_violation,
    filiform,
    heisenberg,
    rand_fraction,
    rand_invertible_rational,
    rand_large_rational,
    rand_semisimple,
    rand_unimodular,
    rand_valid_algebra,
    sympy_poly,
)


@st.composite
def algebras(draw, max_dim=5):
    """(algebra, random source): valid, in a random integer basis or
    conjugated by a rational matrix with small or large entries (then its
    constants almost always have a denominator D > 1)."""
    rng = draw(st.randoms(use_true_random=False))
    g = rand_valid_algebra(rng, max_dim)
    change = draw(st.sampled_from([None, rand_invertible_rational, rand_large_rational]))
    return (g if change is None else conjugate(g, change(rng, g.dim))), rng


def semidirect(rng):
    """R x| R^n, n = 7-8, for a rational semisimple D, in a rational basis."""
    g = almost_abelian_algebra(rand_semisimple(rng, rng.randint(7, 8)))
    return conjugate(g, rand_invertible_rational(rng, g.dim))


def rand_vector(rng, n):
    """Sparse-ish rational vector: zeros, small entries and large ones."""
    return tuple(rng.choice((Fraction(0), Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                             Fraction(rng.randrange(-2**40, 2**40), rng.randrange(1, 10**6))))
                 for _ in range(n))


def rand_subspace(rng, n):
    return Subspace.span(n, [rand_vector(rng, n) for _ in range(rng.randint(0, n))])


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_structure_file_and_bracket_table_round_trip(case):
    g, _ = case
    again = parse_structure_file(structure_equations(g))
    assert again == g and hash(again) == hash(g)
    rebuilt = LieAlgebra(g.dim, dict(g.nonzero_brackets()))
    assert rebuilt == g and hash(rebuilt) == hash(g)
    # the table holds the nonzero constants that the dense model reads
    # through structure_constant, each pair once with i < j
    table = dict(g.nonzero_brackets())
    assert all(i < j and all(coeffs.values()) and coeffs for (i, j), coeffs in table.items())
    n = g.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                c = table.get((i, j), {}).get(k, 0) - table.get((j, i), {}).get(k, 0)
                assert g.structure_constant(k, i, j) == c


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_series_are_sympy_rref_of_bracket_spans(case):
    g, _ = case
    oracle = SympyLie(g)
    assert [s.basis for s in derived_series(g)] == list(oracle.derived_series())
    assert [s.basis for s in lower_central_series(g)] == list(oracle.lower_central_series())
    full = oracle.derived_series()[0]
    assert derived_subalgebra(g).basis == oracle.bracket_span(full, full)


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_series_are_computed_once_and_read_back_as_fresh_lists(case):
    g, _ = case
    derived = [s.basis for s in derived_series(g)]
    lower = [s.basis for s in lower_central_series(g)]
    # an equal algebra with an empty memo: pickling leaves the memo out
    fresh = pickle.loads(pickle.dumps(g))
    assert fresh == g and hash(fresh) == hash(g) and fresh._series is None
    assert [s.basis for s in lower_central_series(fresh)] == lower  # lower first
    assert [s.basis for s in derived_series(fresh)] == derived
    assert derived_subalgebra(g).basis == derived[min(1, len(derived) - 1)]
    solvable, nilpotent = is_solvable(fresh), is_nilpotent(fresh)
    assert (is_solvable(g), is_nilpotent(g)) == (solvable, nilpotent)
    # a caller that changes a returned list changes no later read
    zero = Subspace.span(g.dim, [])
    for read, want in ((derived_series, derived), (lower_central_series, lower)):
        got = read(g)
        got.insert(1, zero)
        got.append(zero)
        assert [s.basis for s in read(g)] == want
    assert (is_solvable(g), is_nilpotent(g)) == (solvable, nilpotent)
    assert derived_subalgebra(g).basis == derived[min(1, len(derived) - 1)]


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_nilpotent_clause_is_the_sympy_lower_central_series_of_the_ideal(case):
    # every term of either series is an ideal; with the standard vectors
    # off its pivots as V, the direct-sum and ideal clauses hold, and the
    # nilpotent clause fails exactly when the sympy model's lower central
    # series of n, n >= [n, n] >= ..., stops above 0
    g, _ = case
    oracle = SympyLie(g)
    for n in derived_series(g) + lower_central_series(g):
        v = Subspace.standard(g.dim, [t + 1 for t in range(g.dim) if t not in n._echelon.pivots])
        try:
            verify_nilpotent_complement(g, v, n)
            clause = None
        except DecompositionInvalid as err:
            clause = err.clause
        assert clause not in ("direct_sum", "ideal")
        assert (clause == "nilpotent") == bool(oracle.lower_central_series(n.basis)[-1])


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_bracket_subspaces_is_sympy_rref_of_pairwise_brackets(case):
    g, rng = case
    oracle = SympyLie(g)
    a, b = rand_subspace(rng, g.dim), rand_subspace(rng, g.dim)
    assert bracket_subspaces(g, a, b).basis == oracle.bracket_span(a.basis, b.basis)
    # [a, a] from one object takes the pairs s < t only
    assert bracket_subspaces(g, a, a).basis == oracle.bracket_span(a.basis, a.basis)


@settings(max_examples=80, deadline=None)
@given(algebras())
def test_unimodular_is_sympy_trace_of_every_adjoint(case):
    g, _ = case
    assert is_unimodular(g) == SympyLie(g).is_unimodular()


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_ad_matrix_is_sympy_adjoint_entrywise(case):
    g, rng = case
    oracle = SympyLie(g)
    for x in [rand_vector(rng, g.dim), oracle.unit(rng.randrange(g.dim))]:
        ours = ad_matrix(g, x)
        ref = oracle.ad(x)
        entries = [[Fraction(str(ref[k, j])) for j in range(g.dim)] for k in range(g.dim)]
        assert entries == [list(ours.row(k)) for k in range(g.dim)]
        # built from integer numerators, it is the same rational matrix
        expected = Matrix.from_rows(entries)
        assert ours == expected and hash(ours) == hash(expected)


def bracket_errors(g, h, basis):
    """The pairs a < b at which the structure constants of h are not the
    bracket of g over the Fraction vectors basis: [b_a, b_b] = sum over c
    of c[c][a][b] b_c, the brackets from the sympy model."""
    oracle = SympyLie(g)
    return [(a, b) for a in range(h.dim) for b in range(a + 1, h.dim)
            if [sum((h.structure_constant(c + 1, a + 1, b + 1) * basis[c][k]
                     for c in range(h.dim)), Fraction(0)) for k in range(g.dim)]
            != [Fraction(str(v)) for v in oracle.bracket(basis[a], basis[b])]]


def primary_basis(g):
    """(x, one (factor, vectors) per primary component of the basis of
    `cohomology`'s weight path, the vectors as Fraction tuples): x is the
    first standard vector outside [g, g] whose ad is not nilpotent (by
    sympy), and the components come from `_semisimple_blocks` on ad x, or
    on its semisimple part s when ad x is not semisimple, held here to
    sympy: s commutes with ad x and differs from it by a nilpotent, the
    vectors of a factor f are killed by f(s), and there are as many as the
    nullity of f(s); x leads the component of the root 0.  None for a
    nilpotent g."""
    oracle = SympyLie(g)
    comm = oracle.derived_series()[1] if len(oracle.derived_series()) > 1 else ()
    for i in range(g.dim):
        unit = basis_vector(g.dim, i)
        ad = oracle.ad(unit)
        if oracle.contains(comm, unit) or (ad ** g.dim).is_zero_matrix:
            continue
        m = ad_matrix(g, unit)
        split = _semisimple_blocks(m)
        assert (split is None) == (not jordan_chevalley(m).nilpotent.is_zero())
        if split is None:
            m = jordan_chevalley(m).semisimple
            split = _semisimple_blocks(m)
        scale, found, unfactored = split
        s = sympy.Matrix(m.numerator_rows()) / m.denominator
        assert (s * ad - ad * s).is_zero_matrix and ((ad - s) ** g.dim).is_zero_matrix
        out = []
        for f, vectors in found + ([unfactored] if unfactored else []):
            value = sympy.zeros(g.dim)
            for k, c in enumerate(f):
                value += sympy.Rational(c, scale ** (len(f) - 1 - k)) * s ** k
            assert len(vectors) == g.dim - value.rank()
            rows = [tuple(Fraction(v.get(t, 0)) for t in range(g.dim)) for v in vectors]
            assert all((value * sympy.Matrix(r)).is_zero_matrix for r in rows)
            if f == [0, 1]:
                kept = [unit]
                for r in rows:
                    if len(oracle.span(kept + [r])) > len(kept):
                        kept.append(r)
                assert len(kept) == len(rows)
                rows = kept
            out.append((f, rows))
        return unit, out
    return None


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_conjugate_is_the_bracket_over_the_columns(case):
    g, rng = case
    p = rand_invertible_rational(rng, g.dim)
    assert bracket_errors(g, conjugate(g, p), [p.column(j) for j in range(g.dim)]) == []


@settings(max_examples=20, deadline=None)
@given(st.one_of(algebras(), st.integers(0, 2**32).map(
    lambda s: (semidirect(random.Random(s)), None))))
def test_weight_basis_is_the_bracket_over_the_primary_components(case):
    g, _ = case
    if not is_solvable(g) or is_nilpotent(g):  # no x with a non-nilpotent ad
        return
    x, components = primary_basis(g)
    basis = [v for _, rows in components for v in rows]
    assert len(SympyLie(g).span(basis)) == g.dim
    h = lie._in_basis(g, [clear_denominators(v) for v in basis])
    assert bracket_errors(g, h, basis) == []
    # a seeded fault: one flipped term of the conjugated table is seen
    table = {ij: dict(row) for ij, row in h.integer_brackets()}
    if table:
        (i, j), row = next(iter(table.items()))
        k = next(iter(row))
        row[k] = -row[k]
        flipped = LieAlgebra.from_integer_brackets(h.dim, table, h.denominator)
        assert bracket_errors(g, flipped, basis) == [(i - 1, j - 1)]
    # a vector of one component in place of another's is refused
    if len(basis) > 1:
        with pytest.raises(ValueError, match="dependent"):
            lie._in_basis(g, [clear_denominators(v) for v in [basis[1]] + basis[1:]])


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_flag_chain_is_a_chain_of_sympy_ideals(rng):
    # small-entry bases only: large-rational flag searches are not bounded yet
    g = rand_valid_algebra(rng, 5)
    if not is_solvable(g):
        return
    cert = completely_solvable_flag(g)
    if cert.status != "yes":
        return
    check_flag_chain(g, cert)


def check_flag_chain(g, cert):
    """A 'yes' chain is nested, has dims 0..n and consists of sympy-checked
    ideals, of which the first dim [g, g] + 1 lie in [g, g]."""
    oracle = SympyLie(g)
    units = [oracle.unit(i) for i in range(g.dim)]
    comm = oracle.bracket_span(units, units)
    assert [s.dim for s in cert.chain] == list(range(g.dim + 1))
    for lower, upper in zip(cert.chain, cert.chain[1:]):
        assert upper.contains_subspace(lower)
    for s in cert.chain:
        assert all(oracle.contains(s.basis, oracle.bracket(u, w)) for u in units for w in s.basis)
    for s in cert.chain[:len(comm) + 1]:
        assert all(oracle.contains(comm, w) for w in s.basis)


def jordan_block(lam, k):
    return Matrix(k, k, [lam if i == j else int(j == i + 1) for i in range(k) for j in range(k)])


# planted blocks: (kind, matrix); kinds other than 'rational' decide the status
PLANTED = {
    "scalar": lambda rng: ("rational", Matrix.diagonal([rand_fraction(rng)])),
    "jordan": lambda rng: ("rational", jordan_block(rand_fraction(rng), rng.randint(2, 3))),
    "irrational": lambda rng: ("irrational", companion((-2, 0, 1))),
    "complex": lambda rng: ("complex", companion((rng.randint(1, 3), rng.randint(-1, 1), 1))),
    "cubic": lambda rng: ("complex", companion((-2, 0, 0, 1))),
}


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False),
       st.lists(st.sampled_from(sorted(PLANTED)), min_size=1, max_size=3))
def test_flag_status_is_decided_by_the_planted_spectrum(rng, kinds):
    blocks = [PLANTED[kind](rng) for kind in kinds]
    found = {kind for kind, _ in blocks}
    d = block_diag(*(b for _, b in blocks))
    u = rand_invertible_rational(rng, d.rows)
    g = almost_abelian_algebra(u * d * inverse(u))
    cert = completely_solvable_flag(g)
    want = ("no" if "complex" in found else "undetermined" if "irrational" in found
            else "yes")
    assert cert.status == want
    if want == "no":
        # only e1 acts semisimply; the witness is read off ad(e1) on all of g
        ad = ad_matrix(g, basis_vector(g.dim, 0))
        P, scale = integer_minimal_polynomial(ad)
        quads, rest, _ = rational_spectrum(P, scale)
        assert cert.witness == (1, Polynomial.from_scaled(quads[0] if quads else rest, scale))
        # a monic factor of the minimal polynomial, by sympy
        witness = sympy_poly(cert.witness[1])
        assert witness.LC() == 1 and sympy_poly(minimal_polynomial(ad)).rem(witness).is_zero
    if want == "yes":
        check_flag_chain(g, cert)


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_flag_of_two_commuting_derivations_and_of_nilpotent_algebras(rng):
    # R^2 x| Q^k: e1 and e2 act by U diag(w1) U^-1 and U diag(w2) U^-1
    k = rng.randint(1, 4)
    u = rand_invertible_rational(rng, k)
    ds = [u * Matrix.diagonal([rand_fraction(rng) for _ in range(k)]) * inverse(u)
          for _ in range(2)]
    two = LieAlgebra(k + 2, {(i + 1, 2 + j): {2 + t: d[t - 1, j - 1] for t in range(1, k + 1)}
                             for i, d in enumerate(ds) for j in range(1, k + 1)})
    nilpotent = rng.choice([heisenberg(rng.randint(1, 2)), filiform(rng.randint(3, 6))])
    for g in (two, conjugate(nilpotent, rand_unimodular(rng, nilpotent.dim))):
        cert = completely_solvable_flag(g)
        assert cert.status == "yes"
        check_flag_chain(g, cert)


def first_sympy_common_eigenvector(ops, n):
    """The first row of the sympy RREF of the common eigenspace of the
    first eigenvalue choice, in the order the flag search tries them, whose
    common eigenspace is not zero; None when there is none."""
    eye = sympy.eye(n)
    for lams in itertools.product(*[roots for _, roots in ops]):
        stacked = sympy.Matrix.vstack(sympy.zeros(1, n), *[
            sympy.Matrix(n, n, [sympy.Rational(str(x)) for i in range(n) for x in a.row(i)])
            - sympy.Rational(str(lam)) * eye for (a, _), lam in zip(ops, lams)])
        null = stacked.nullspace()
        if null:
            return [Fraction(str(x)) for x in sympy.Matrix.hstack(*null).T.rref()[0].row(0)]
    return None


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_common_eigenvector_is_the_first_sympy_rref_row_of_the_eigenspace(rng):
    # commuting operators U diag U^-1 with small planted spectra, or random
    # ones, each with candidate eigenvalues that may or may not occur
    n = rng.randint(1, 4)
    u = rand_invertible_rational(rng, n)
    ops = []
    for _ in range(rng.randint(0, 3)):
        a = (u * Matrix.diagonal([rng.choice((0, 1, Fraction(1, 2))) for _ in range(n)])
             * inverse(u)) if rng.random() < 0.7 else Matrix.from_rows(
                 [[rand_fraction(rng, 1) for _ in range(n)] for _ in range(n)])
        ops.append((a, rng.sample((0, 1, Fraction(1, 2), -1), rng.randint(1, 3))))
    got = lie._common_rational_eigenvector(ops, n)
    want = first_sympy_common_eigenvector(ops, n)
    if want is None:
        assert got is None
    else:  # a positive int multiple of the reduced row, with its lead 1
        assert all(type(x) is int for x in got.values())
        lead = got[min(got)]
        assert lead > 0 and [got.get(c, 0) for c in range(n)] == [lead * x for x in want]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_flag_line_is_read_in_the_reduced_basis_of_the_derived_algebra(rng):
    # R x| R^n for a diagonal D with repeated eigenvalues, in a rational
    # basis: common eigenspaces of dimension >= 2, where the line the search
    # takes depends on the coordinates it reads c = [g, g] in
    n = rng.randint(3, 6)
    d = Matrix.diagonal([rng.choice((0, 1, 1, 2, -1)) for _ in range(n)])
    g = conjugate(almost_abelian_algebra(d), rand_invertible_rational(rng, n + 1))
    cert = completely_solvable_flag(g)
    assert cert.status == "yes"
    oracle = SympyLie(g)
    units = [oracle.unit(i) for i in range(g.dim)]
    comm = oracle.bracket_span(units, units)  # the reduced rows of c
    if not comm:
        return
    pivots = [next(t for t, x in enumerate(b) if x) for b in comm]
    ops = []  # the distinct nonzero ad(e_i) on c, in the order of i
    for u in units:
        # over the reduced rows, the coordinates of w in c are its pivot entries
        images = [oracle.bracket(u, b) for b in comm]
        a = Matrix.from_rows([[Fraction(str(w[p])) for w in images] for p in pivots])
        if not a.is_zero() and all(a != b for b, _ in ops):
            m = len(comm)
            lams = sympy.Matrix(m, m, [sympy.Rational(str(x)) for i in range(m) for x in a.row(i)])
            ops.append((a, sorted(Fraction(str(lam)) for lam in lams.eigenvals())))
    want = first_sympy_common_eigenvector(ops, len(comm))
    line = [sum(x * b[t] for x, b in zip(want, comm)) for t in range(g.dim)]
    assert cert.chain[1].basis == oracle.span([line])


def large_fraction(rng):
    """A nonzero rational with a ~40-bit numerator over a denominator up
    to 10^6, so denominators of different constants are mostly coprime."""
    return Fraction(rng.choice((1, -1)) * rng.randrange(1, 2**40), rng.randrange(1, 10**6))


@st.composite
def bracket_tables(draw, max_dim=6):
    """(dim, brackets, random source): a random table of i < j brackets
    with large-denominator constants and some explicit zeros; the table
    itself needs no Jacobi identity."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, max_dim)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.6:
                brackets[(i, j)] = {k: rng.choice((0, large_fraction(rng), large_fraction(rng)))
                                    for k in rng.sample(range(1, n + 1), rng.randint(0, n))}
    return n, brackets, rng


@settings(max_examples=80, deadline=None)
@given(bracket_tables())
def test_every_reader_of_the_integer_table_returns_the_given_constants(case):
    n, brackets, rng = case
    g = LieAlgebra(n, brackets)
    table = {(i, j, k): c for (i, j), coeffs in brackets.items() for k, c in coeffs.items()}

    def const(k, i, j):  # c[k][i][j] from the input, antisymmetric
        return table.get((i, j, k), 0) - table.get((j, i, k), 0)

    units = range(1, n + 1)
    assert g.denominator == lcm(*[c.denominator for c in table.values()])
    for i in units:
        for j in units:
            assert g.bracket_basis(i, j) == tuple(const(k, i, j) for k in units)
            for k in units:
                assert g.structure_constant(k, i, j) == const(k, i, j)
    nonzero = {(i, j): {k: c for k, c in sorted(coeffs.items()) if c}
               for (i, j), coeffs in brackets.items() if any(coeffs.values())}
    assert dict(g.nonzero_brackets()) == nonzero
    assert [ij for ij, _ in g.nonzero_brackets()] == sorted(nonzero)
    assert dict(g.integer_brackets()) == {
        ij: tuple((k, int(c * g.denominator)) for k, c in coeffs.items())
        for ij, coeffs in nonzero.items()}
    again = LieAlgebra(n, dict(g.nonzero_brackets()))
    assert again == g and hash(again) == hash(g)
    # twice the constants: the same int terms over half the denominator
    # when every constant has an even denominator, and still another algebra
    assert (LieAlgebra(n, {ij: {k: 2 * c for k, c in coeffs.items()}
                           for ij, coeffs in nonzero.items()}) == g) == (not nonzero)
    x, y = rand_vector(rng, n), rand_vector(rng, n)
    assert g.bracket(x, y) == tuple(
        sum((x[i - 1] * y[j - 1] * const(k, i, j) for i in units for j in units), Fraction(0))
        for k in units)
    ad = ad_matrix(g, x)
    assert [list(ad.row(k - 1)) for k in units] == [
        [sum((x[i - 1] * const(k, i, j) for i in units), Fraction(0)) for j in units]
        for k in units]


@settings(max_examples=60, deadline=None)
@given(algebras())
def test_jacobi_residual_of_a_planted_violation_is_the_dense_one(case):
    g, rng = case
    validate(g)
    if g.dim < 3:
        return
    brackets = dict(g.nonzero_brackets())
    i, j = sorted(rng.sample(range(1, g.dim + 1), 2))
    k = rng.randint(1, g.dim)
    coeffs = brackets.setdefault((i, j), {})
    coeffs[k] = coeffs.get(k, 0) + large_fraction(rng)
    bad = LieAlgebra(g.dim, brackets)
    found = jacobi_violation(bad)
    assert found == dense_jacobi_violation(bad)


def table_of(g):
    """What the integer path must agree on: ==, hash, the denominator and
    the int terms."""
    return g, hash(g), g.denominator, g.integer_brackets()


@settings(max_examples=80, deadline=None)
@given(bracket_tables(), st.integers(1, 2**20))
def test_integer_builder_is_the_fraction_constructor_on_cleared_ints(case, scale):
    n, brackets, _ = case
    g = LieAlgebra(n, brackets)
    D = lcm(*[Fraction(c).denominator for coeffs in brackets.values() for c in coeffs.values()])
    cleared = {ij: {k: int(c * D) for k, c in coeffs.items()} for ij, coeffs in brackets.items()}
    assert table_of(LieAlgebra.from_integer_brackets(n, cleared, D)) == table_of(g)
    # a common factor of the terms and the denominator is divided out
    scaled = {ij: {k: scale * x for k, x in coeffs.items()} for ij, coeffs in cleared.items()}
    assert table_of(LieAlgebra.from_integer_brackets(n, scaled, scale * D)) == table_of(g)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_parsed_large_rational_conjugates_are_the_algebra(rng):
    g = rand_valid_algebra(rng, 5)
    g = conjugate(g, rand_large_rational(rng, g.dim))
    assert table_of(parse_structure_file(structure_equations(g))) == table_of(g)


def coefficient_token(rng):
    """(token, value): a coefficient token p, +p, -p or an unreduced p/q,
    or no token (value 1)."""
    c = rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 12)), large_fraction(rng),
                    Fraction(1), Fraction(-1)))
    f = rng.randint(1, 4)
    p, q = c.numerator * f, c.denominator * f
    sign = "-" if p < 0 else rng.choice(("", "+"))
    token = rng.choice((f"{sign}{abs(p)}/{q}",) + ((f"{sign}{abs(c.numerator)}", "")
                                                   if c.denominator == 1 else ()))
    return token, c if token else Fraction(1)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_signed_and_unreduced_coefficient_tokens_read_as_their_fractions(rng):
    # d e_k = sum over i < j <= low of c e^i^e^j for each k above low: the
    # brackets land in the centre, so every table is a Lie algebra; a sign
    # token and a signed coefficient multiply, as in `- -1 e1^e2`
    low, top = rng.randint(2, 4), rng.randint(1, 3)
    lines, brackets = [f"dim {low + top}"], {}
    for k in range(low + 1, low + top + 1):
        terms = []
        for i in range(1, low + 1):
            for j in range(i + 1, low + 1):
                if rng.random() < 0.7:
                    sign = rng.choice(("+", "-") if terms else ("", "+", "-"))
                    token, c = coefficient_token(rng)
                    terms += [t for t in (sign, token, f"e{i}^e{j}") if t]
                    # c[k][i][j] = -(coefficient of e^{ij} in d e^k)
                    brackets.setdefault((i, j), {})[k] = c if sign == "-" else -c
        if terms:
            lines.append(f"d e{k} = " + " ".join(terms))
    text = "\n".join(lines) + "\n"
    assert table_of(parse_structure_file(text)) == table_of(LieAlgebra(low + top, brackets)), text


# Lie algebras that are not solvable: sl2, gl2 = sl2 + R, sl2 acting on
# R^2 by its standard representation, and so3 + R
SL2 = {(1, 2): {2: 2}, (1, 3): {3: -2}, (2, 3): {1: 1}}
NOT_SOLVABLE = [
    LieAlgebra(3, SL2),
    LieAlgebra(4, SL2),
    LieAlgebra(5, {**SL2, (1, 4): {4: 1}, (1, 5): {5: -1}, (2, 5): {4: 1}, (3, 4): {5: 1}}),
    LieAlgebra(4, {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}),
]


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(range(len(NOT_SOLVABLE))))
def test_flag_of_an_algebra_that_is_not_solvable_is_no_or_raises(rng, t):
    # the solvability guard reads Cartan's criterion off the A_i
    g = conjugate(NOT_SOLVABLE[t], rand_invertible_rational(rng, NOT_SOLVABLE[t].dim))
    validate(g)
    assert not is_solvable(g)
    try:
        cert = completely_solvable_flag(g)
    except NotSolvable:
        return
    assert cert.status == "no"
