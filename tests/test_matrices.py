"""Exact linear algebra: elimination, kernels, exterior powers.

Rank and kernel are read off one `Echelon` of the integer rows of a
matrix; a determinant is read off the constant term of the characteristic
polynomial, as the lattice check reads det B."""

import random
from fractions import Fraction

import pytest

from solvco.decompositions import integer_char_poly
from solvco.lie import LieAlgebra, Subspace
from solvco.polynomials import Polynomial
from solvco.matrices import (
    Echelon,
    Matrix,
    exterior_power,
    inverse,
    rank,
)
from support import densify, minor_rank, rand_matrix, rand_unimodular


def rank_and_kernel(m: Matrix):
    """(rank, int kernel basis) of one echelon of the integer rows of m."""
    ech = Echelon(m.cols)
    for row in m.numerator_rows():
        ech.add(row)
    return ech.dim, ech.kernel()


def det(m: Matrix) -> Fraction:
    """(-1)^n times the constant term of det(xI - m) = D^(-n) P(D x)."""
    P, scale = integer_char_poly(m)
    return Fraction((-1) ** m.rows * P[0], scale**m.rows)


def test_rank_kernel_identity():
    r, kernel = rank_and_kernel(Matrix.identity(2))
    assert r == 2 == rank(Matrix.identity(2))
    assert kernel == []


def test_rank_kernel_zero_matrix():
    r, kernel = rank_and_kernel(Matrix.zeros(3, 3))
    assert r == 0
    assert kernel == [{0: 1}, {1: 1}, {2: 1}]


def test_rank_kernel_rank_one():
    r, kernel = rank_and_kernel(Matrix.from_rows([[1, 1], [1, 1]]))
    assert r == 1
    # one vector for the free column 1, with 1 there: (-1, 1)
    assert kernel == [{1: 1, 0: -1}]


def test_rank_plus_kernel_dim_is_cols():
    rng = random.Random(7)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = Matrix(n, m, [rng.randint(-3, 3) for _ in range(n * m)])
        r, kernel = rank_and_kernel(mat)
        assert r + len(kernel) == m
        for v in kernel:
            assert all(type(x) is int for x in v.values())
            assert all(x == 0 for x in mat.apply(densify(v, m)))


def test_rank_matches_minor_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        mat = Matrix(n, m, [rng.randint(-2, 2) for _ in range(n * m)])
        assert rank(mat) == rank_and_kernel(mat)[0] == minor_rank(mat)


def test_det_and_inverse():
    m = Matrix.from_rows([[2, 1], [1, 1]])
    assert det(m) == 1
    assert inverse(m) * m == Matrix.identity(2)
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert det(singular) == 0
    with pytest.raises(ValueError):
        inverse(singular)
    assert det(Matrix.from_rows([[Fraction(1, 2), 3], [1, -4]])) == -5


def test_det_matches_unimodular_construction():
    rng = random.Random(3)
    for _ in range(25):
        u = rand_unimodular(rng, rng.randint(1, 4))
        assert det(u) in (1, -1)


def test_matrix_power():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    assert m**0 == Matrix.identity(2)
    assert m**3 == Matrix.from_rows([[1, 3], [0, 1]])


def test_exterior_power_diagonal():
    m = Matrix.diagonal([1, -1, -1])
    e2 = exterior_power(m, 2)
    assert e2 == Matrix.diagonal([-1, -1, 1])
    assert exterior_power(m, 3) == Matrix.diagonal([1])
    assert exterior_power(m, 0) == Matrix.identity(1)


def test_exterior_power_multiplicative():
    rng = random.Random(5)
    for _ in range(10):
        a = rand_matrix(rng, 3, span=2)
        b = rand_matrix(rng, 3, span=2)
        k = rng.randint(1, 3)
        assert exterior_power(a * b, k) == exterior_power(a, k) * exterior_power(b, k)


def test_echelon_membership():
    e = Echelon(3)
    assert e.add((1, 1, 0)) == 0  # the new pivot column, falsy at 0
    assert e.add((0, 1, 1)) == 1
    assert e.add((1, 2, 1)) is None
    assert e.contains((2, 3, 1))
    assert not e.contains((0, 0, 1))
    assert e.dim == 2


def test_matrix_immutable_and_hashable():
    m = Matrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    assert len({m, Matrix.identity(2)}) == 1


def test_float_entries_raise_type_error():
    for build in (lambda: Matrix(1, 1, [0.1]),
                  lambda: Matrix.from_rows([[1, 0.5]]),
                  lambda: Matrix.identity(2) * 0.5,
                  lambda: Matrix.identity(2).apply((1, 0.0)),
                  lambda: Echelon(2).add((0.5, 1)),
                  lambda: Echelon(2).remainder({0: 0.25}),
                  lambda: Subspace(2, [(0.5, 1)]),
                  lambda: Subspace.span(2, [{1: 2.0}]),
                  lambda: LieAlgebra(3, {(1, 2): {3: 0.5}}),
                  lambda: Polynomial((0.5, 1))):
        with pytest.raises(TypeError, match="not exact"):
            build()
    # the integer builder takes ints only
    for c in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            LieAlgebra.from_integer_brackets(3, {(1, 2): {3: c}}, 2)
    # ints, Fractions and strings stay exact
    assert Matrix(1, 3, [1, Fraction(1, 10), "1/10"]).row(0) == (1, Fraction(1, 10),
                                                                  Fraction(1, 10))
