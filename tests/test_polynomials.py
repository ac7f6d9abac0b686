"""Polynomial arithmetic, Sturm counting, cyclotomic detection."""

import random
from fractions import Fraction

import pytest

from solvco.polynomials import (
    Polynomial,
    cyclotomic,
    cyclotomic_factors,
    euler_totient,
    is_totally_real,
    poly_extended_gcd,
    poly_gcd,
    rational_roots,
    squarefree_part,
    sturm_real_root_count,
)

X = Polynomial.x()


def test_arithmetic_and_division():
    p = (X - 1) * (X + 2)
    assert p == Polynomial((-2, 1, 1))
    q, r = divmod(p, X - 1)
    assert q == X + 2 and r.is_zero()
    assert p(Fraction(1)) == 0
    assert p(2) == 4


def test_gcd_lcm():
    a = (X - 1) * (X + 1)
    b = (X - 1) * (X - 2)
    assert poly_gcd(a, b) == X - 1
    g, u, v = poly_extended_gcd(a, b)
    assert g == X - 1
    assert u * a + v * b == g


def test_squarefree_part():
    p = (X - 1) * (X - 1) * (X + 3)
    assert squarefree_part(p) == ((X - 1) * (X + 3)).monic()


def test_sturm_spec_examples():
    p = X * X - 3 * X + 1
    assert sturm_real_root_count(p) == 2            # discriminant 5 > 0
    assert sturm_real_root_count(X * X + 1) == 0
    assert sturm_real_root_count(p, Fraction(0), None) == 2  # both roots positive


def test_sturm_open_interval_excludes_endpoint_roots():
    p = X * (X * X + 1)  # single real root at 0
    assert sturm_real_root_count(p) == 1
    assert sturm_real_root_count(p, Fraction(-1), Fraction(0)) == 0
    assert sturm_real_root_count(p, Fraction(0), Fraction(1)) == 0
    assert sturm_real_root_count(p, Fraction(-1), Fraction(1)) == 1


def test_sturm_counts_distinct_roots_of_non_squarefree_input():
    p = (X - 2) * (X - 2) * (X + 1)
    assert sturm_real_root_count(p) == 2


def test_sturm_degenerate_interval():
    assert sturm_real_root_count(X, Fraction(1), Fraction(1)) == 0


def test_is_totally_real():
    assert is_totally_real(X * X - 3 * X + 1)
    assert not is_totally_real(X * X + 4)
    assert is_totally_real(Polynomial((1,)))


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == X - 1
    assert cyclotomic(2) == X + 1
    assert cyclotomic(3) == X * X + X + 1
    assert cyclotomic(4) == X * X + 1
    assert cyclotomic(6) == X * X - X + 1
    assert cyclotomic(12) == Polynomial((1, 0, -1, 0, 1))


def test_cyclotomic_factors_spec_examples():
    assert cyclotomic_factors(X * X + X + 1) == [(3, 1)]
    assert cyclotomic_factors(Polynomial((-1, 0, 0, 0, 1))) == [(1, 1), (2, 1), (4, 1)]
    assert cyclotomic_factors(X * X - 3 * X + 1) == []


def test_cyclotomic_factors_detects_planted_factor():
    rng = random.Random(13)
    for _ in range(30):
        d = rng.randint(1, 12)
        # cyclotomic-free cofactor with no root of unity eigenvalues
        q = (X - 2) * (X + 3) if rng.random() < 0.5 else X * X - 3 * X + 1
        found = dict(cyclotomic_factors(cyclotomic(d) * q))
        assert found.get(d, 0) >= 1
        assert dict(cyclotomic_factors(q)) == {}


def test_cyclotomic_multiplicity():
    p = cyclotomic(3) * cyclotomic(3) * (X - 5)
    assert (3, 2) in cyclotomic_factors(p)


def test_rational_roots():
    p = (X - 1) * (2 * X - 3) * (X * X + 1)
    assert rational_roots(p) == [Fraction(1), Fraction(3, 2)]
    assert rational_roots(X * X + 1) == []
    assert rational_roots(X * (X - 2)) == [Fraction(0), Fraction(2)]


def test_totient():
    assert [euler_totient(d) for d in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_str_formatting():
    assert str(X * X + 1) == "x^2 + 1"
    assert str(X * X - 3 * X + 1) == "x^2 - 3*x + 1"
    assert str(Polynomial()) == "0"


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Polynomial())
