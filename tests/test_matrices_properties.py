"""Property tests of the exact elimination kernel against sympy.

Random rational matrices (rectangular, sparse and dense, with zero rows,
zero columns and 0 x n shapes) drawn by hypothesis, with small entries or
with large ones: numerators of 40 to 56 bits over denominators up to 10^6,
so that pivots are far from 1 and the kernel's integer rows have to be
scaled.  Vectors go in as int/Fraction tuples, lists or sparse dicts.
Minimal and characteristic polynomials are checked on the same matrices
and on structured ones (scalar, nilpotent, block-diagonal with a repeated
block), also in a rational basis with large denominators.  `Matrix`
arithmetic, entry reads and exterior powers are checked against sympy, and
every result is checked to be in lowest terms, so that equal matrices reached
by different paths are equal and hash equal.  An `Echelon` stores its rows
in row echelon form only, so random interleavings of its operations check
that every read still sees the reduced form of the vectors added.  A
matrix file read in ints is held to the matrix of its `Fraction` tokens.
The module is skipped where hypothesis is not installed.
"""

import itertools
from fractions import Fraction
from math import gcd

import pytest
import sympy

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from solvco.decompositions import (  # noqa: E402
    char_poly,
    integer_minimal_polynomial,
    minimal_polynomial,
    poly_of_matrix,
)
from solvco.files import parse_matrix  # noqa: E402
from solvco.matrices import (  # noqa: E402
    Echelon,
    Matrix,
    exterior_power,
    inverse,
    rank,
)
from support import rand_invertible_rational, rand_large_rational  # noqa: E402

ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=3)
LARGE = st.builds(
    Fraction,
    st.integers(2**40, 2**56).flatmap(lambda n: st.sampled_from((n, -n))),
    st.integers(1, 10**6))
MIXED = st.one_of(ENTRIES, LARGE)
UNITS = st.sampled_from((Fraction(-1), Fraction(0), Fraction(1)))


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=5, entries=None):
    """Rational matrices, sparse or dense, with some zero rows and columns;
    entries small, units, or a mix of small and large, unless given."""
    n = draw(st.integers(0, max_dim)) if rows is None else rows
    m = draw(st.integers(0, max_dim)) if cols is None else cols
    if entries is None:
        entries = draw(st.sampled_from((ENTRIES, UNITS, MIXED)))
    size = n * m
    zero = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    if draw(st.booleans()):  # dense: keep every drawn entry
        zero = [False] * size
    zero_rows = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=2))
    entries = [Fraction(0) if zero[i * m + j] or i in zero_rows or j in zero_cols
               else draw(entries) for i in range(n) for j in range(m)]
    return Matrix(n, m, entries)


@st.composite
def square_matrices(draw, max_dim=5, entries=None):
    n = draw(st.integers(0, max_dim))
    return draw(matrices(rows=n, cols=n, entries=entries))


@st.composite
def as_input(draw, v):
    """v as the kernel may receive it: a dense tuple or list, or a sparse
    dict with or without its zeros, each integral entry an int or a
    Fraction."""
    v = [int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in v]
    kind = draw(st.sampled_from(("tuple", "list", "sparse", "sparse with zeros")))
    if kind == "tuple":
        return tuple(v)
    if kind == "list":
        return v
    return {c: x for c, x in enumerate(v) if x or kind == "sparse with zeros"}


def densify(v, width):
    return tuple(Fraction(v.get(c, 0)) for c in range(width)) if isinstance(v, dict) \
        else tuple(Fraction(x) for x in v)


def reduced(ech: Echelon):
    """The reduced rows of ech as dense Fraction tuples: its int rows R / a
    from `reduced_rows`, each a primitive int row R with a > 0 at the
    pivot, checked to be so."""
    out = []
    for R, a in ech.reduced_rows():
        assert all(type(x) is int for x in R.values()) and R[min(R)] == a > 0
        assert gcd(*R.values()) == 1
        out.append(densify({c: Fraction(x, a) for c, x in R.items()}, ech.width))
    return out


def to_sympy(m: Matrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for i in range(m.rows) for x in m.row(i)])


def from_sympy(rows):
    return [tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in rows]


def in_lowest_terms(m: Matrix) -> bool:
    return gcd(m.denominator, *(x for row in m.numerator_rows() for x in row)) == 1


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_entry_reads_return_the_entries_given(data):
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    entries = data.draw(st.lists(st.one_of(UNITS, MIXED), min_size=n * k, max_size=n * k))
    m = Matrix(n, k, entries)
    assert in_lowest_terms(m)
    assert [m[i, j] for i in range(n) for j in range(k)] == entries
    assert [x for i in range(n) for x in m.row(i)] == entries
    assert [m.column(j) for j in range(k)] == [tuple(entries[j::k]) for j in range(k)]
    assert all(type(x) is Fraction for i in range(n) for x in m.row(i))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_and_exterior_powers_match_sympy(data):
    n, k, l = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(matrices(rows=n, cols=k)), data.draw(matrices(rows=n, cols=k))
    c = data.draw(matrices(rows=k, cols=l))
    q = data.draw(square_matrices(max_dim=4))
    s = data.draw(MIXED)
    v = data.draw(matrices(rows=1, cols=k)).row(0)
    A, B, C, Q = map(to_sympy, (a, b, c, q))
    S = sympy.Rational(s.numerator, s.denominator)
    cases = [(a + b, A + B), (a - b, A - B), (a * c, A * C), (s * a, S * A), (a * s, A * S)]
    if q.rows:
        cases += [(q**e, Q**e) for e in range(4)]
    for ours, ref in cases:
        assert to_sympy(ours) == ref
        assert in_lowest_terms(ours)
    V = sympy.Matrix(k, 1, [sympy.Rational(x.numerator, x.denominator) for x in v])
    assert a.apply(v) == from_sympy([list(A * V)])[0]
    for r in range(q.rows + 1):
        subsets = list(itertools.combinations(range(q.rows), r))
        minors = [[Q.extract(list(J), list(I)).det() for I in subsets] for J in subsets]
        ext = exterior_power(q, r)
        assert to_sympy(ext) == sympy.Matrix(minors)
        assert in_lowest_terms(ext)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_matrices_by_different_paths_are_equal_and_hash_equal(data):
    n, k, l, p = (data.draw(st.integers(0, 4)) for _ in range(4))
    a, d = data.draw(matrices(rows=n, cols=k)), data.draw(matrices(rows=n, cols=k))
    b, c = data.draw(matrices(rows=k, cols=l)), data.draw(matrices(rows=l, cols=p))
    s = data.draw(MIXED.filter(bool))
    for x, y in (((a * b) * c, a * (b * c)), ((a + d) - d, a), ((s * a) * (1 / s), a)):
        assert x == y
        assert hash(x) == hash(y)
        assert in_lowest_terms(x)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_sympy(m):
    # the kernel of the integer rows D * m: one int vector per free column,
    # a positive multiple of sympy's nullspace vector for that column
    ref = to_sympy(m)
    assert rank(m) == ref.rank()
    ech = Echelon(m.cols)
    for row in m.numerator_rows():
        ech.add(row)
    kernel, nullspace = ech.kernel(), from_sympy([list(v) for v in ref.nullspace()])
    assert ech.dim == ref.rank() and len(kernel) == len(nullspace)
    free = [f for f in range(m.cols) if f not in ech.pivots]
    for f, vec, want in zip(free, kernel, nullspace):
        assert all(type(x) is int for x in vec.values()) and vec[f] > 0
        assert densify(vec, m.cols) == tuple(vec[f] * x for x in want)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_and_inverse_match_sympy(m):
    ref = to_sympy(m)
    if ref.det() == 0:
        with pytest.raises(ValueError):
            inverse(m)
    else:
        inv = inverse(m)
        assert [inv.row(i) for i in range(inv.rows)] == from_sympy(ref.inv().tolist())


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6),
       st.sampled_from((rand_invertible_rational, rand_large_rational)))
def test_inverse_is_two_sided_and_singular_matrices_raise(rng, n, family):
    # the inverse is built from the echelon's int rows over their lcm;
    # rand_large_rational has ~20-bit numerators over denominators up to 10^6
    m = family(rng, n)
    eye = Matrix.identity(n)
    assert inverse(m) * m == m * inverse(m) == eye
    assert eye.is_identity() and inverse(eye) == eye == Matrix.diagonal([1] * n)
    assert m.is_identity() == (m == eye) and not (eye * 2).is_identity()
    if n > 1:  # identity diagonal, one entry off it
        assert not (eye + Matrix.from_rows([[int(i == 0 and j == n - 1) for j in range(n)]
                                            for i in range(n)])).is_identity()
    # the last row replaced by a rational combination of the others
    rows = [m.row(i) for i in range(n - 1)]
    weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in rows]
    rows.append(tuple(sum((w * r[j] for w, r in zip(weights, rows)), Fraction(0))
                      for j in range(n)))
    with pytest.raises(ValueError, match="singular"):
        inverse(Matrix.from_rows(rows))


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=6))
def test_echelon_rows_are_sympy_rref_of_stacked_vectors(m):
    ech = Echelon(m.cols)
    added = [ech.add(m.row(i)) is not None for i in range(m.rows)]
    ref_r, ref_pivots = to_sympy(m).rref()
    assert ech.dim == sum(added) == len(ref_pivots)
    assert reduced(ech) == from_sympy(ref_r.tolist())[: len(ref_pivots)]
    assert ech.pivots == list(ref_pivots)
    for i in range(m.rows):
        assert ech.contains(m.row(i))
        assert ech.remainder(m.row(i))[0] == {}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_is_zero_at_pivots_and_leaves_a_span_element(data):
    m = data.draw(matrices(max_dim=6))
    ech = Echelon(m.cols)
    for i in range(m.rows):
        ech.add(data.draw(as_input(m.row(i))))
    v = data.draw(as_input(data.draw(matrices(rows=1, cols=m.cols)).row(0)))
    V, s = ech.remainder(v)  # the remainder as ints over s
    assert all(type(x) is int for x in V.values()) and type(s) is int and s >= 1
    assert all(V.values())  # no stored zeros
    r = densify({c: Fraction(x, s) for c, x in V.items()}, m.cols)
    assert all(r[p] == 0 for p in ech.pivots)
    diff = [a - b for a, b in zip(densify(v, m.cols), r)]
    ref = to_sympy(m)
    stacked = ref.col_join(to_sympy(Matrix(1, m.cols, diff))) if m.rows else \
        to_sympy(Matrix(1, m.cols, diff))
    assert stacked.rank() == ref.rank()
    assert ech.contains(diff)
    assert ech.contains(v) == (not any(r))


@st.composite
def entry_token(draw, x: Fraction) -> str:
    """A matrix-file token read as x: p, +p, -p or an unreduced p/q."""
    f = draw(st.integers(1, 4))
    sign = "-" if x < 0 else draw(st.sampled_from(("", "+")))
    forms = [f"{sign}{abs(x.numerator) * f}/{x.denominator * f}"]
    if x.denominator == 1:
        forms.append(f"{sign}{abs(x.numerator)}")
    return draw(st.sampled_from(forms))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parse_matrix_is_the_matrix_of_the_fraction_tokens(data):
    n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    m = data.draw(matrices(rows=n, cols=k))
    rows = [[data.draw(entry_token(x)) for x in m.row(i)] for i in range(n)]
    parsed = parse_matrix(f"{n} {k}\n" + "".join(" ".join(r) + "\n" for r in rows))
    expected = Matrix(n, k, [Fraction(t) for r in rows for t in r])
    assert expected == m
    assert (parsed, hash(parsed), parsed.denominator, parsed.numerator_rows()) == (
        expected, hash(expected), expected.denominator, expected.numerator_rows())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_add_returns_the_sympy_rref_pivots(data):
    # add hands out the new pivot column, None when the span does not grow
    m = data.draw(matrices())
    ech, pivots = Echelon(m.cols), []
    for i in range(m.rows):
        p = ech.add(data.draw(as_input(m.row(i))))
        assert (p is None) == (ech.dim == len(pivots))
        if p is not None:
            assert type(p) is int and p not in pivots
            pivots.append(p)
    assert sorted(pivots) == ech.pivots == list(to_sympy(m).rref()[1])


def stacked(width, vectors):
    """The vectors as the rows of a sympy matrix, under a zero row so that
    it has one."""
    return sympy.Matrix([[0] * width] + [
        [sympy.Rational(x.numerator, x.denominator) for x in densify(v, width)]
        for v in vectors])


def reduced_form(width, vectors):
    """(rows, pivots) of the sympy RREF of the stacked vectors."""
    r, pivots = stacked(width, vectors).rref()
    return from_sympy(r.tolist())[: len(pivots)], list(pivots)


# add weighted up, so that later pivots fall inside the tails of earlier rows
OPERATIONS = ("add",) * 4 + ("remainder", "contains", "reduced_rows", "rows_from", "kernel",
                             "copy")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_interleaved_operations_read_the_reduced_form(data):
    """Stored rows are only in echelon form; every read must still see the
    RREF of the vectors added, whatever came before it."""
    width = data.draw(st.integers(1, 6))
    entries = data.draw(st.sampled_from((ENTRIES, UNITS, MIXED)))

    def vector():
        row = data.draw(st.lists(st.one_of(st.just(Fraction(0)), entries),
                                 min_size=width, max_size=width))
        return data.draw(as_input(row))

    ech, inputs = Echelon(width), []
    for op in data.draw(st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=16)):
        rows, pivots = reduced_form(width, inputs)
        if op == "add":
            v = vector()
            ech.add(v)
            inputs.append(v)
        elif op in ("remainder", "contains"):
            v = vector()
            fresh = Echelon(width, inputs)  # the same vectors, with no read between
            want = list(densify(v, width))
            for p, row in zip(pivots, rows):
                f = want[p]
                want = [a - f * b for a, b in zip(want, row)]
            if op == "remainder":
                V, s = ech.remainder(v)
                assert (V, s) == fresh.remainder(v)
                assert densify({c: Fraction(x, s) for c, x in V.items()}, width) == tuple(want)
            else:
                assert ech.contains(v) == fresh.contains(v) == (not any(want))
        elif op == "reduced_rows":
            assert reduced(ech) == rows
        elif op == "rows_from":
            # the stored rows from a pivot on, shifted back, span the vectors
            # of the span that are zero before it: the reduced rows from it on
            start = data.draw(st.integers(0, width))
            kept = [{c + start: x for c, x in row.items()} for row in ech.rows_from(start)]
            assert all(type(x) is int for row in kept for x in row.values())
            assert reduced_form(width, kept)[0] == [
                row for p, row in zip(pivots, rows) if p >= start]
        elif op == "kernel":
            free = [f for f in range(width) if f not in pivots]
            kernel = ech.kernel()
            assert all(type(x) is int for vec in kernel for x in vec.values())
            assert all(vec[f] > 0 for f, vec in zip(free, kernel))
            assert [densify({c: Fraction(x, vec[f]) for c, x in vec.items()}, width)
                    for f, vec in zip(free, kernel)] == \
                from_sympy([list(k) for k in stacked(width, inputs).nullspace()])
        else:  # a copy extended further
            other = ech.copy()
            extra = [vector() for _ in range(data.draw(st.integers(1, 3)))]
            for v in extra:
                other.add(v)
            assert (reduced(other), other.pivots) == reduced_form(width, inputs + extra)
        # reads and copies leave the echelon as the vectors added made it
        assert (reduced(ech), ech.pivots) == reduced_form(width, inputs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_calls_never_mutate_their_input(data):
    m = data.draw(matrices(max_dim=5))
    ech = Echelon(m.cols)
    for i in range(m.rows):
        v = data.draw(as_input(m.row(i)))
        kept = v.copy() if isinstance(v, (dict, list)) else v
        for call in (ech.remainder, ech.contains, ech.add):
            call(v)
            assert v == kept
            assert list(v) == list(kept)  # same keys in the same order
    # nor do the vectors handed out share state with the basis
    rows = reduced(ech)
    for vec in ech.kernel() + ech.rows_from(0) + [R for R, _ in ech.reduced_rows()]:
        vec[min(vec)] = Fraction(99)
    assert reduced(ech) == rows


@settings(max_examples=100, deadline=None)
@given(square_matrices(max_dim=5, entries=ENTRIES))
def test_minimal_polynomial_annihilates_with_krylov_degree(m):
    p = minimal_polynomial(m)
    assert p.coeffs[-1] == 1
    assert poly_of_matrix(*integer_minimal_polynomial(m), m).is_zero()
    # deg p = dim span{m^0, ..., m^n}
    ref = to_sympy(m)
    powers = sympy.Matrix(m.rows + 1, m.rows**2, [x for k in range(m.rows + 1)
                                                  for x in ref**k])
    assert p.degree == powers.rank()


@st.composite
def structured_matrices(draw):
    """Matrices whose polynomials the kernel gets wrong most easily: scalar,
    nilpotent (strictly upper triangular), and block-diagonal with one block
    repeated (the minimal polynomial is then an lcm, not a product), each
    conjugated or not by a basis change with large-rational entries."""
    kind = draw(st.sampled_from(("scalar", "nilpotent", "repeated")))
    entries = draw(st.sampled_from((ENTRIES, UNITS, MIXED)))
    if kind == "scalar":
        n = draw(st.integers(0, 5))
        core = Matrix.diagonal([draw(entries)] * n)
    elif kind == "nilpotent":
        n = draw(st.integers(0, 5))
        core = Matrix(n, n, [draw(entries) if j > i else 0
                             for i in range(n) for j in range(n)])
    else:
        block = draw(square_matrices(max_dim=2, entries=entries))
        other = draw(square_matrices(max_dim=2, entries=entries))
        blocks = [block] * draw(st.integers(1, 3)) + [other]
        n = sum(b.rows for b in blocks)
        rows = [[Fraction(0)] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i in range(b.rows):
                rows[at + i][at:at + b.rows] = b.row(i)
            at += b.rows
        core = Matrix.from_rows(rows) if n else Matrix(0, 0, ())
    if n and draw(st.booleans()):
        # P = L U with unit triangular factors: invertible, large entries
        lower = Matrix(n, n, [1 if i == j else draw(MIXED) if i > j else 0
                              for i in range(n) for j in range(n)])
        upper = Matrix(n, n, [1 if i == j else draw(LARGE) if i < j else 0
                              for i in range(n) for j in range(n)])
        basis = lower * upper
        core = basis * core * inverse(basis)
    return core


def sympy_charpoly(m: Matrix):
    x = sympy.Symbol("x")
    coeffs = to_sympy(m).charpoly(x).all_coeffs()[::-1]
    return tuple(Fraction(int(c.p), int(c.q)) for c in coeffs)


def krylov_oracle(m: Matrix):
    """Minimal polynomial coefficients, lowest first, from sympy: the first
    power m^k that depends on m^0, ..., m^(k-1), and the one vector of the
    nullspace of the columns vec(m^0), ..., vec(m^k), scaled to a 1 at m^k."""
    ref = to_sympy(m)
    powers = [sympy.eye(m.rows)]
    while True:
        stacked = sympy.Matrix.hstack(*[q.reshape(m.rows**2, 1) for q in powers])
        if stacked.rank() < len(powers):
            (null,) = stacked.nullspace()
            null = null / null[-1]
            return tuple(Fraction(int(c.p), int(c.q)) for c in null)
        powers.append(powers[-1] * ref)


POLYNOMIAL_EXAMPLES = (
    Matrix(0, 0, ()),
    Matrix(1, 1, (Fraction(-5, 7),)),
    Matrix.diagonal((Fraction(2, 3),) * 3),  # scalar
    Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),  # nilpotent
    Matrix.diagonal((1, 1, 2, 2, 2)),  # repeated blocks: lcm, not product
    Matrix.from_rows([[Fraction(1, 2), 1, 0, 0], [0, Fraction(1, 2), 0, 0],
                      [0, 0, Fraction(1, 2), 1], [0, 0, 0, Fraction(1, 2)]]),
)


def with_examples(test):
    for m in POLYNOMIAL_EXAMPLES:
        test = example(m)(test)
    return test


@settings(max_examples=150, deadline=None)
@with_examples
@given(st.one_of(square_matrices(), structured_matrices()))
def test_char_poly_is_sympy_charpoly(m):
    assert char_poly(m).coeffs == sympy_charpoly(m)


@settings(max_examples=150, deadline=None)
@with_examples
@given(st.one_of(square_matrices(), structured_matrices()))
def test_minimal_polynomial_is_first_dependent_power(m):
    assert minimal_polynomial(m).coeffs == krylov_oracle(m)
