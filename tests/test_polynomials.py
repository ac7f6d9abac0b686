"""Polynomial arithmetic, Sturm counting, cyclotomic detection."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from solvco.polynomials import (
    Polynomial,
    cyclotomic,
    cyclotomic_factors,
    euler_totient,
    rational_roots,
    real_root_counter,
    squarefree_part,
)
from support import sympy_poly

X = Polynomial.x()


def test_arithmetic_and_division():
    p = (X - 1) * (X + 2)
    assert p == Polynomial((-2, 1, 1))
    q, r = divmod(p, X - 1)
    assert q == X + 2 and r.is_zero()
    assert p(Fraction(1)) == 0
    assert p(2) == 4


def test_squarefree_part():
    p = (X - 1) * (X - 1) * (X + 3)
    assert squarefree_part(p) == ((X - 1) * (X + 3)).monic()


def count_roots(p, lower=None, upper=None):
    return real_root_counter(p)[1](lower, upper)


def test_sturm_spec_examples():
    p = X * X - 3 * X + 1
    assert count_roots(p) == 2            # discriminant 5 > 0
    assert count_roots(X * X + 1) == 0
    assert count_roots(p, Fraction(0), None) == 2  # both roots positive


def test_sturm_open_interval_excludes_endpoint_roots():
    p = X * (X * X + 1)  # single real root at 0
    assert count_roots(p) == 1
    assert count_roots(p, Fraction(-1), Fraction(0)) == 0
    assert count_roots(p, Fraction(0), Fraction(1)) == 0
    assert count_roots(p, Fraction(-1), Fraction(1)) == 1


def test_sturm_counts_distinct_roots_of_non_squarefree_input():
    p = (X - 2) * (X - 2) * (X + 1)
    assert count_roots(p) == 2


def test_sturm_degenerate_interval():
    assert count_roots(X, Fraction(1), Fraction(1)) == 0


def test_is_totally_real():
    for p, real in ((X * X - 3 * X + 1, True), (X * X + 4, False), (Polynomial((1,)), True)):
        s, count = real_root_counter(p)
        assert (count() == s.degree) == real


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


@st.composite
def planted_roots(draw):
    """(p, roots): a nonzero rational times (x - r)^m for each planted
    rational r (with denominators, multiplicities 1 to 3 and 0 among the
    choices) times an irreducible cofactor or 1."""
    roots = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          max_size=4))
    p = Polynomial((draw(st.sampled_from([1, -1, Fraction(2, 3), Fraction(-5, 4), 6])),))
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = p * (X - r)
    cofactor = draw(st.sampled_from([(1,), (1, 0, 1), (-2, 0, 1), (1, -1, 0, 1),
                                     (1, 0, 0, 0, 1), (Fraction(1, 3), 2, 0, 5)]))
    return p * Polynomial(cofactor), roots


@settings(max_examples=60, deadline=None)
@given(planted_roots())
def test_rational_roots_match_sympy(planted):
    p, roots = planted
    expected = sorted({Fraction(int(r.p), int(r.q))
                       for r in sympy.roots(sympy_poly(p), filter="Q")})
    assert rational_roots(p) == expected == sorted(set(roots))


@settings(max_examples=60, deadline=None)
@given(planted_roots(), st.data())
def test_real_root_counts_match_sympy_at_root_endpoints(planted, data):
    p, roots = planted
    ends = st.sampled_from([None, *roots, Fraction(1, 2)])
    lower, upper = data.draw(ends), data.draw(ends)
    poly = sympy_poly(p)
    real = set(sympy.real_roots(poly)) if p.degree > 0 else set()

    def inside(r, lo, hi):
        return ((lo is None or bool(r > sympy.Rational(lo)))
                and (hi is None or bool(r < sympy.Rational(hi))))

    s, count = real_root_counter(p)
    assert count(lower, upper) == sum(inside(r, lower, upper) for r in real)
    distinct = poly.sqf_part().degree() if p.degree > 0 else 0
    assert (count(lower, None) == s.degree) == (
        len(real) == distinct and all(inside(r, lower, None) for r in real))


def test_totient():
    assert [euler_totient(d) for d in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_str_formatting():
    assert str(X * X + 1) == "x^2 + 1"
    assert str(X * X - 3 * X + 1) == "x^2 - 3*x + 1"
    assert str(Polynomial()) == "0"


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(X, Polynomial())


@st.composite
def rational_products(draw):
    """(p, ends): planted rational roots (often multiple) times random
    rational factors of degree 1 to 3, each with multiplicity 1 to 3, under
    a leading coefficient that is often negative; ends are the planted
    roots, two other rationals and None."""
    p, roots = draw(planted_roots())
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    for factor in draw(st.lists(st.lists(coeff, min_size=2, max_size=4), max_size=2)):
        if factor[-1] != 0:
            for _ in range(draw(st.integers(1, 3))):
                p = p * Polynomial(factor)
    return p, [None, *roots, Fraction(1, 2), Fraction(-7, 3)]


def from_sympy(poly):
    return Polynomial([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


@settings(max_examples=150, deadline=None)
@given(rational_products(), st.data())
def test_integer_sturm_chain_counts_are_sympy_count_roots(case, data):
    # sympy counts the distinct roots in the closed interval; the open one
    # drops an endpoint that is a root.  Negative leads and multiple roots
    # put negative leading coefficients into the remainder sequence and
    # the exact divisions by the gcd, where a pseudo-remainder that scaled
    # by the signed lead would flip signs.
    p, ends = case
    lower, upper = data.draw(st.sampled_from(ends)), data.draw(st.sampled_from(ends))
    poly = sympy_poly(p)
    lo, hi = (None if e is None else sympy.Rational(e.numerator, e.denominator)
              for e in (lower, upper))
    if lo is not None and hi is not None and lo >= hi:
        want = 0
    else:
        want = poly.count_roots(lo, hi) - sum(
            1 for e in (lo, hi) if e is not None and poly.eval(e) == 0)
    assert squarefree_part(p) == from_sympy(poly.sqf_part().monic())
    s, count = real_root_counter(p)
    assert s == squarefree_part(p) and count(lower, upper) == want
    assert (count() == s.degree) == (poly.count_roots() == s.degree)
