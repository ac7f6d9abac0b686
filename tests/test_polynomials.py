"""Int-list division, Sturm counting, cyclotomic detection, the one factor
search `split_factors` and the least scale of the int form."""

import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from solvco import polynomials
from solvco.decompositions import perfect_square_root
from solvco.polynomials import (
    Polynomial,
    cyclotomic,
    cyclotomic_factors,
    euler_totient,
    integer_divisors,
    least_scale,
    pseudo_divmod,
    real_root_counter,
    split_factors,
)
from support import Poly, int_form, ints, sympy_poly

X = Poly.x()


def test_arithmetic_and_division():
    # exact by a monic divisor; otherwise scaled by |lead| at each step
    assert pseudo_divmod([-2, 1, 1], [-1, 1]) == ([2, 1], [])
    assert pseudo_divmod([1, 0, 1], [1, 2]) == ([-1, 2], [5])  # 4 (x^2 + 1) = (2x - 1)(2x + 1) + 5
    assert pseudo_divmod([1, 0, 1], [1, -2]) == ([-1, -2], [5])  # 4 times -x/2 - 1/4
    # the reader's value of the int form: D^(-deg) P(D x)
    assert Polynomial.from_scaled([-2, 1, 1], 2) == Polynomial((Fraction(-1, 2), Fraction(1, 2), 1))
    assert int_form(X * X - Fraction(1, 3)) == ([-3, 0, 1], 3)


def test_squarefree_part():
    p = (X - 1) * (X - 1) * (X + 3)
    assert real_root_counter(ints(p))[0] == ints((X - 1) * (X + 3)) == [-3, 2, 1]
    # a negative lead: the chain is negated as a whole, so the part is monic
    assert real_root_counter([-c for c in ints(p)])[0] == [-3, 2, 1]


def count_roots(p, lower=None, upper=None):
    return real_root_counter(ints(p))[1](lower, upper)


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
        s, count = real_root_counter(ints(p))
        assert (count() == len(s) - 1) == real


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_factors_spec_examples():
    assert cyclotomic_factors([1, 1, 1]) == [(3, 1)]
    assert cyclotomic_factors([-1, 0, 0, 0, 1]) == [(1, 1), (2, 1), (4, 1)]
    assert cyclotomic_factors([1, -3, 1]) == []


def test_cyclotomic_factors_detects_planted_factor():
    rng = random.Random(13)
    for _ in range(30):
        d = rng.randint(1, 12)
        # cyclotomic-free cofactor with no root of unity eigenvalues
        q = (X - 2) * (X + 3) if rng.random() < 0.5 else X * X - 3 * X + 1
        found = dict(cyclotomic_factors(ints(Poly(cyclotomic(d)) * q)))
        assert found.get(d, 0) >= 1
        assert dict(cyclotomic_factors(ints(q))) == {}


def test_cyclotomic_multiplicity():
    p = Poly(cyclotomic(3)) * Poly(cyclotomic(3)) * (X - 5)
    assert (3, 2) in cyclotomic_factors(ints(p))


def roots_of(p):
    """The rational roots of p, ascending: the roots of the linear factors
    that `split_factors` finds on its squarefree part."""
    P, scale = int_form(p)
    factors, _ = split_factors(real_root_counter(P)[0], scale)
    return [Fraction(-f[0], scale) for f in factors if len(f) == 2]


def test_rational_roots():
    p = (X - 1) * (2 * X - 3) * (X * X + 1)
    assert roots_of(p) == [Fraction(1), Fraction(3, 2)]
    assert roots_of(X * X + 1) == []
    assert roots_of(X * (X - 2)) == [Fraction(0), Fraction(2)]
    # at scale 12 the roots 6 and 9 of x^2 - 15 x + 54 are 1/2 and 3/4
    assert split_factors([54, -15, 1], 12) == ([[-6, 1], [-9, 1]], [1])


@st.composite
def planted_roots(draw):
    """(p, roots): a nonzero rational times (x - r)^m for each planted
    rational r (with denominators, multiplicities 1 to 3 and 0 among the
    choices) times an irreducible cofactor or 1."""
    roots = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          max_size=4))
    p = Poly((draw(st.sampled_from([1, -1, Fraction(2, 3), Fraction(-5, 4), 6])),))
    for r in roots:
        for _ in range(draw(st.integers(1, 3))):
            p = p * (X - r)
    cofactor = draw(st.sampled_from([(1,), (1, 0, 1), (-2, 0, 1), (1, -1, 0, 1),
                                     (1, 0, 0, 0, 1), (Fraction(1, 3), 2, 0, 5)]))
    return p * Poly(cofactor), roots


@settings(max_examples=60, deadline=None)
@given(planted_roots())
def test_rational_roots_match_sympy(planted):
    p, roots = planted
    expected = sorted({Fraction(int(r.p), int(r.q))
                       for r in sympy.roots(sympy_poly(p), filter="Q")})
    assert roots_of(p) == expected == sorted(set(roots))


@st.composite
def planted_factors(draw, nonlinear=True):
    """(P, D): the monic int list P at a scale D > 1 of a product of
    distinct factors: linear ones x - r with large numerators, and unless
    nonlinear is False irreducible quadratics x^2 - b x + c of either
    discriminant sign and maybe the irreducible cubic x^3 - x + 1; each
    root divided by a rational s, at k >= 2 times the least common
    denominator, so D is often above the least scale."""
    dens = st.integers(1, 4)
    factors = {X - Fraction(draw(st.integers(-3000, 3000)), draw(dens))
               for _ in range(draw(st.integers(0, 3)))}
    for _ in range(draw(st.integers(0, 2 if nonlinear else 0))):
        den = draw(dens)
        b, c = (Fraction(draw(st.integers(-100, 100)), den),
                Fraction(draw(st.integers(-1000, 1000)), den * den))
        if perfect_square_root(b * b - 4 * c) is None:  # irreducible
            factors.add(X * X - b * X + c)
    if nonlinear and draw(st.booleans()):
        factors.add(X * X * X - X + 1)
    p = Poly((1,))
    for f in factors:
        p = p * f
    s = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3), Fraction(5, 2)]))
    P, scale = int_form(Poly(c * s ** i for i, c in enumerate(p.coeffs)).monic())
    k = draw(st.integers(2, 30))
    return [c * k ** (len(P) - 1 - i) for i, c in enumerate(P)], scale * k


def sympy_split(P, scale):
    """(linear, quadratic, rest): the monic irreducible factors of degree 1
    and 2 of D^(-deg) P(D x) from sympy, in the order of `split_factors`
    (by root, by (x-coefficient, constant term)), and the product of the
    others."""
    factors = [from_sympy(f.monic())
               for f, _ in sympy_poly(Polynomial.from_scaled(P, scale)).factor_list()[1]]
    rest = Poly((1,))
    for f in factors:
        if f.degree > 2:
            rest = rest * f
    linear = sorted((f for f in factors if f.degree == 1), key=lambda f: -f.coeffs[0])
    quadratic = [f for f in factors if f.degree == 2]
    return linear, sorted(quadratic, key=lambda f: (f.coeffs[1], f.coeffs[0])), rest


@settings(max_examples=80, deadline=None)
@given(planted_factors())
def test_split_factors_are_the_linear_and_quadratic_factors_of_sympy(planted):
    P, scale = planted
    assert scale > 1
    factors, rest = split_factors(P, scale)
    linear, quadratic, others = sympy_split(P, scale)
    assert [Polynomial.from_scaled(f, scale) for f in factors] == linear + quadratic
    assert Polynomial.from_scaled(rest, scale) == others


@settings(max_examples=80, deadline=None)
@given(st.one_of(planted_factors(), planted_factors(nonlinear=False)),
       st.sampled_from([1, 2, 16, 256]))
def test_a_capped_split_finds_only_true_factors(planted, limit):
    # roots past the cap stay in rest, where two of them are a quadratic
    # cofactor of square discriminant
    P, scale = planted
    factors, rest = split_factors(P, scale, limit)
    linear, quadratic, _ = sympy_split(P, scale)
    assert all(Polynomial.from_scaled(f, scale) in linear + quadratic for f in factors)
    product = Poly.lift(Polynomial.from_scaled(rest, scale))
    for f in factors:
        product = product * Poly.lift(Polynomial.from_scaled(f, scale))
    assert product == Polynomial.from_scaled(P, scale)


def test_split_factors_cofactors_of_degree_two_and_three():
    # roots 1000 and 1001 beyond a cap of 16 leave a quadratic cofactor of
    # square discriminant: no factor, where the complete search finds both
    P = ints((X - 1000) * (X - 1001))
    assert split_factors(P, 1, 16) == ([], P)
    assert split_factors(P, 1) == ([[-1000, 1], [-1001, 1]], [1])
    # x^2 - 2 and x^2 + 1 left over from a root are irreducible; a cubic
    # without a root has no quadratic factor
    assert split_factors(ints((X - 3) * (X * X - 2)), 1) == ([[-3, 1], [-2, 0, 1]], [1])
    assert split_factors(ints(X * (X * X + 1)), 1) == ([[0, 1], [1, 0, 1]], [1])
    assert split_factors(ints(X * X * X - X + 1), 1) == ([], [1, -1, 0, 1])
    # real quadratics with C < 0 next to a complex one: the search tries
    # both signs of C
    p = (X * X - 2) * (X * X - X - 1) * (X * X + 1)
    assert split_factors(ints(p), 1) == ([[-1, -1, 1], [-2, 0, 1], [1, 0, 1]], [1])


def test_one_least_scale_per_split(monkeypatch):
    calls, original = [], polynomials.least_scale
    monkeypatch.setattr(polynomials, "least_scale",
                        lambda *args: calls.append(args) or original(*args))
    P, scale = int_form((X - Fraction(1, 2)) * (X * X - 2) * (X * X + Fraction(1, 4))
                        * (X * X * X - X + 1))
    factors, rest = split_factors(P, scale)
    assert len(factors) == 3 and len(rest) == 4
    assert len(calls) == 1


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

    s, count = real_root_counter(ints(p))
    assert count(lower, upper) == sum(inside(r, lower, upper) for r in real)
    distinct = poly.sqf_part().degree() if p.degree > 0 else 0
    assert (count(lower, None) == len(s) - 1) == (
        len(real) == distinct and all(inside(r, lower, None) for r in real))


def test_totient():
    assert [euler_totient(d) for d in (1, 2, 3, 4, 6, 12)] == [1, 1, 2, 2, 2, 4]


def test_str_formatting():
    assert str(X * X + 1) == "x^2 + 1"
    assert str(X * X - 3 * X + 1) == "x^2 - 3*x + 1"
    assert str(Polynomial()) == "0"


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        pseudo_divmod([0, 1], [])


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
                p = p * Poly(factor)
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
    s, count = real_root_counter(ints(p))
    assert s == ints(from_sympy(poly.sqf_part().monic())) and count(lower, upper) == want
    assert (count() == len(s) - 1) == (poly.count_roots() == len(s) - 1)


def brute_least_scale(P, scale):
    """The least divisor d of D with every P_i d^(deg - i) / D^(deg - i)
    an integer, tried in Fractions."""
    deg = len(P) - 1
    return next(d for d in integer_divisors(scale)
                if all((Fraction(d, scale) ** (deg - i) * c).denominator == 1
                       for i, c in enumerate(P)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=12), max_size=4),
       st.integers(1, 400))
def test_least_scale_is_the_brute_force_least_divisor(coeffs, k):
    # a monic rational polynomial at a scale D = k L, L the lcm of its
    # denominators, so that D is often far above the least scale
    q = Poly([*coeffs, 1])
    P, scale = int_form(q)
    scale_k = scale * k
    P = [c * k ** (len(P) - 1 - i) for i, c in enumerate(P)]  # the same polynomial at k L
    Q, d = least_scale(P, scale_k)
    assert d == brute_least_scale(P, scale_k)
    assert scale_k % d == 0
    assert Polynomial.from_scaled(Q, d) == Polynomial.from_scaled(P, scale_k) == q


# primes below and above the trial division of `least_scale`
SMALL_PRIMES, LARGE_PRIMES = (2, 3), (1031, 1033, 65537)


def exponent(n, p):
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return e


def least_over(q, primes):
    """The least scale of the monic rational q from the primes of its
    denominators: max_i ceil(v_p(den a_i) / (deg - i)) at each."""
    deg = len(q.coeffs) - 1
    return prod(p ** max([-(-exponent(a.denominator, p) // (deg - i))
                          for i, a in enumerate(q.coeffs[:-1])], default=0) for p in primes)


denominators = st.tuples(st.lists(st.sampled_from(SMALL_PRIMES), max_size=4),
                         st.sets(st.sampled_from(LARGE_PRIMES))).map(
    lambda ps: prod(ps[0]) * prod(ps[1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), denominators), max_size=4),
       st.lists(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES), max_size=3))
def test_least_scale_is_the_least_over_the_primes_of_the_scale(coeffs, extra):
    # coefficients over products of known primes, those past the trial
    # division to the first power, at a scale D of their lcm times more
    # primes, which may repeat: the large ones are then found by gcds
    q = Poly([Fraction(num, den) for num, den in coeffs] + [1])
    P, scale = int_form(q)
    k = prod(extra)
    P = [c * k ** (len(P) - 1 - i) for i, c in enumerate(P)]  # the same polynomial at k D
    Q, d = least_scale(P, scale * k)
    assert d == least_over(q, SMALL_PRIMES + LARGE_PRIMES)
    assert Polynomial.from_scaled(Q, d) == q


def test_least_scale_past_the_trial_division_is_a_valid_scale():
    # x^2 + 1 / (p^2 r), p and r past the trial division: every number the
    # gcds see is a power of p^2 r, which is taken as one prime, so the
    # scale p^2 r is found where p r is the least
    p, r = LARGE_PRIMES[:2]
    q = X * X + Fraction(1, p * p * r)
    Q, d = least_scale(*int_form(q))
    assert d == p * p * r and least_over(q, (p, r)) == p * r
    assert Polynomial.from_scaled(Q, d) == q
