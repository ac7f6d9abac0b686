"""Minimal polynomials, Jordan-Chevalley, split/compact, unipotent logs."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from solvco import decompositions, polynomials
from solvco.decompositions import (
    char_poly,
    compact_part,
    exp_nilpotent,
    integer_char_poly,
    integer_compact_part,
    integer_minimal_polynomial,
    jordan_chevalley,
    log_unipotent,
    minimal_polynomial,
    nilpotency_index,
    poly_of_matrix,
    rational_spectrum,
)
from solvco.errors import CheckFailed, NotRationallySplittable, NotUnipotent
from solvco.matrices import Echelon, Matrix, inverse
from solvco.polynomials import (
    Polynomial,
    cyclotomic,
    least_scale,
    pseudo_divmod,
    real_root_counter,
    split_factors,
)
from support import (
    Poly,
    block_diag,
    companion,
    rand_invertible_rational,
    rand_large_rational,
    rand_matrix,
    rand_unimodular,
    int_form,
    ints,
    rotation_block,
    sympy_poly,
)

X = Poly.x()


def shift_scale(p, scale):
    """p(scale * x): every root of p divided by scale."""
    return Poly(c * Fraction(scale) ** i for i, c in enumerate(p.coeffs))


def form(p):
    """The int form (P, D) of p made monic."""
    return int_form(Poly.lift(p))


def is_squarefree(m):
    P, _ = integer_minimal_polynomial(m)
    return real_root_counter(P)[0] == P


def test_minimal_polynomial_spec_examples():
    assert minimal_polynomial(Matrix.identity(3)) == X - 1
    assert minimal_polynomial(Matrix.from_rows([[0, 1], [0, 0]])) == X * X
    m = Matrix.from_rows([[0, 2], [-2, 0]])
    p = minimal_polynomial(m)
    assert p == X * X + 4
    assert poly_of_matrix(*integer_minimal_polynomial(m), m).is_zero()  # direct substitution
    # the int form at a scale other than the matrix's: x^2 + 4 at scale 3
    assert poly_of_matrix([36, 0, 1], 3, m).is_zero()
    assert poly_of_matrix([1, 0, 1], 1, Matrix.from_rows([[0, Fraction(1, 2)], [-2, 0]])).is_zero()


def test_minimal_polynomial_divides_char_poly():
    rng = random.Random(23)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 4), span=2)
        (mp, scale), (cp, _) = integer_minimal_polynomial(m), integer_char_poly(m)
        assert pseudo_divmod(cp, mp)[1] == []  # both at the scale of m
        assert poly_of_matrix(mp, scale, m).is_zero()
        assert minimal_polynomial(m) == Polynomial.from_scaled(mp, scale)


def test_krylov_annihilator_integrality_is_checked():
    # the annihilator of the 1 x 1 matrix (1/2) is x - 1/2, which no integer
    # matrix has: the chain raises instead of rounding its coefficient
    with pytest.raises(CheckFailed, match="not integral"):
        decompositions._krylov_chain(Echelon(2), [[(0, Fraction(1, 2))]], {0: 1})


def test_char_poly_example():
    assert char_poly(Matrix.from_rows([[2, 1], [1, 1]])) == X * X - 3 * X + 1


def test_jordan_chevalley_spec_examples():
    m = Matrix.from_rows([[0, 2], [-2, 0]])
    dec = jordan_chevalley(m)
    assert dec.semisimple == m and dec.nilpotent.is_zero()

    m = Matrix.from_rows([[1, 1], [0, 1]])
    dec = jordan_chevalley(m)
    assert dec.semisimple == Matrix.identity(2)
    assert dec.nilpotent == Matrix.from_rows([[0, 1], [0, 0]])

    m = Matrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    dec = jordan_chevalley(m)
    assert dec.semisimple == Matrix.diagonal([2, 2, 3])
    assert dec.nilpotent == Matrix.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert dec.semisimple + dec.nilpotent == m
    assert dec.semisimple * dec.nilpotent == dec.nilpotent * dec.semisimple
    assert minimal_polynomial(dec.semisimple) == (X - 2) * (X - 3) == dec.semisimple_minpoly
    assert is_squarefree(dec.semisimple)


def check_jordan_invariants(m):
    dec = jordan_chevalley(m)
    n = m.rows
    assert dec.semisimple + dec.nilpotent == m
    assert dec.semisimple * dec.nilpotent == dec.nilpotent * dec.semisimple
    assert (dec.nilpotent**n).is_zero()
    assert is_squarefree(dec.semisimple)
    assert dec.semisimple_minpoly == minimal_polynomial(dec.semisimple)
    return dec


def test_jordan_chevalley_random_invariants():
    rng = random.Random(41)
    for _ in range(30):
        check_jordan_invariants(rand_matrix(rng, rng.randint(1, 4), span=2))
    # structured non-semisimple inputs
    for _ in range(10):
        u = rand_unimodular(rng, 4)
        core = block_diag(Matrix.from_rows([[2, 1], [0, 2]]), rotation_block(0, 1))
        check_jordan_invariants(u * core * inverse(u))


def test_split_compact_spec_examples():
    m = Matrix.from_rows([[0, 2], [-2, 0]])
    assert compact_part(m) == m

    m = Matrix.diagonal([1, -5])
    assert compact_part(m).is_zero()

    m = Matrix.from_rows([[1, 2], [-2, 1]])
    compact = compact_part(m)
    assert m - compact == Matrix.identity(2)
    assert compact == Matrix.from_rows([[0, 2], [-2, 0]])


def check_split_compact_invariants(s):
    compact = compact_part(s)
    split = s - compact
    assert split * compact == compact * split
    sqf, count = real_root_counter(integer_minimal_polynomial(split)[0])
    assert count() == len(sqf) - 1
    # compact minimal polynomial divides a product of x and x^2 + q^2
    # factors; the int form has the roots times a positive scale
    mc = integer_minimal_polynomial(compact)[0]
    if mc[0] == 0:
        mc = mc[1:]
    if len(mc) > 1:
        assert all(mc[i] == 0 for i in range(1, len(mc), 2))
        even = mc[::2]  # substitute y = x^2
        assert real_root_counter(even)[1](None, 0) == len(even) - 1


def test_split_compact_random_invariants():
    from support import rand_semisimple

    rng = random.Random(59)
    for _ in range(25):
        check_split_compact_invariants(rand_semisimple(rng, rng.randint(1, 5)))


def test_split_compact_rejects_quartic_complex_spectrum():
    # x^4 + 1 is irreducible with non-real roots and no rational quadratic split
    m = companion((1, 0, 0, 0, 1))
    with pytest.raises(NotRationallySplittable):
        compact_part(m)


def test_compact_part_certificates():
    rot = rotation_block(0, 1)
    # a repeated factor (x^2 + 1)^2 shares its roots with the cofactor
    with pytest.raises(CheckFailed, match="not coprime"):
        integer_compact_part(rot, [1, 0, 2, 0, 1], 1)
    # a p that does not annihilate s leaves projectors that miss the identity
    with pytest.raises(CheckFailed, match="resolve the identity"):
        integer_compact_part(block_diag(rot, Matrix.diagonal([1])), [1, 0, 1], 1)


def test_split_compact_rejects_non_semisimple():
    with pytest.raises(ValueError):
        compact_part(Matrix.from_rows([[0, 1], [0, 0]]))


@st.composite
def conjugated_rotations(draw):
    """(s, compact): s = U (rot(a_1, b_1) + ... + rot(a_k, b_k) + R) U^-1
    and compact = U (rot(0, b_1) + ... + rot(0, b_k) + 0) U^-1, U from
    `rand_invertible_rational`.  Quadratics repeat, also as rot(a, -b), and
    R is semisimple with totally real spectrum whose minimal polynomial has
    degree >= 2: rational eigenvalues, often repeated, and often the roots
    of x^2 - 2."""
    small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    speed = st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3)
    rots = []
    for a, b in draw(st.lists(st.tuples(small, speed), max_size=2)):
        rots += [(a, b * sign) for sign in draw(st.lists(st.sampled_from((1, -1)),
                                                         min_size=1, max_size=2))]
    eigenvalues = draw(st.lists(small, max_size=3))
    real = [Matrix.diagonal([r]) for r in eigenvalues]
    if draw(st.booleans()) or len(set(eigenvalues)) < 2:
        real.append(companion((-2, 0, 1)))
    real_dim = sum(r.rows for r in real)
    u = rand_invertible_rational(random.Random(draw(st.integers(0, 2**32))),
                                 2 * len(rots) + real_dim)
    s = block_diag(*(rotation_block(a, b) for a, b in rots), *real)
    compact = block_diag(*(rotation_block(0, b) for _, b in rots),
                         Matrix.zeros(real_dim, real_dim))
    return u * s * inverse(u), u * compact * inverse(u)


@settings(max_examples=40, deadline=None)
@given(conjugated_rotations())
def test_compact_part_is_the_conjugated_rotation_speeds(case):
    s, compact = case
    assert compact_part(s) == compact


def complex_quadratics(P, scale):
    """The negative-discriminant quadratics that `split_factors` finds in
    the monic squarefree int list P at scale D, as Polynomials."""
    return [Polynomial.from_scaled(q, scale) for q in split_factors(P, scale)[0]
            if len(q) == 3 and q[1] ** 2 < 4 * q[0]]


def quadratic_factors(p):
    return complex_quadratics(*form(p))


def test_complex_quadratic_factor_search():
    p = (X * X + 1) * (X * X - 2 * X + 5) * (X - 3)
    found = quadratic_factors(p)
    assert X * X + 1 in found
    assert X * X - 2 * X + 5 in found
    assert len(found) == 2
    # positive-discriminant quadratics stay in the totally real part
    assert quadratic_factors((X * X - 2) * (X - 1)) == []
    # rational coefficients: roots scaled by 9, where the denominator lcm is 27
    quads = [X * X - 6 * X + Fraction(244, 27), X * X - 6 * X + 54, X * X + 4 * X + 5]
    p = quads[0] * quads[1] * quads[2]
    assert form(p)[1] == 27 and least_scale(*form(p))[1] == 9
    assert quadratic_factors(p) == quads
    # found at scale 9 and carried back to the input scale 27 * 5
    P, scale = form(p)
    P = [c * 5 ** (len(P) - 1 - i) for i, c in enumerate(P)]
    assert complex_quadratics(P, scale * 5) == quads


def test_rational_rotation_speeds_scale_by_their_denominator():
    # minimal polynomial x^8 + 46/9 x^6 + ... + 1600/6561: the coefficient
    # denominators reach 3^8, yet scaling the roots by 3 makes it integral,
    # which keeps the divisor search over small integers
    speeds = [Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(5, 3)]
    s = block_diag(*(rotation_block(0, b) for b in speeds))
    P, scale = integer_minimal_polynomial(s)
    assert scale == 3 and least_scale(P, scale)[1] == 3
    quads, rest, real = rational_spectrum(P, scale)
    assert [Polynomial.from_scaled(q, scale) for q in quads] == [X * X + b * b for b in speeds]
    assert (rest, real) == ([1], True)
    assert compact_part(s) == s


@st.composite
def planted_spectra(draw):
    """A product of negative-discriminant quadratics x^2 - 2a x + a^2 + d,
    rational linear factors and x^3 - x + 1, each to a power of 1 or 2,
    with every root divided by a nonzero rational."""
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    factors = [X * X - 2 * a * X + a * a + d for a, d in draw(st.lists(
        st.tuples(small, st.fractions(min_value=Fraction(1, 2), max_value=3,
                                      max_denominator=2)), max_size=2))]
    factors += [X - r for r in draw(st.lists(small, max_size=2))]
    if draw(st.booleans()):
        factors.append(X * X * X - X + 1)
    p = Poly((1,))
    for f in factors:
        for _ in range(draw(st.integers(1, 2))):
            p = p * f
    scale = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]))
    return shift_scale(p, scale).monic()


@settings(max_examples=40, deadline=None)
@given(planted_spectra())
def test_rational_spectrum_matches_sympy(p):
    P, scale = form(p)
    quads, rest, rest_real = rational_spectrum(P, scale)
    quads = [Polynomial.from_scaled(q, scale) for q in quads]
    rest = Poly.lift(Polynomial.from_scaled(rest, scale))
    product = rest
    for q in quads:
        product = product * q
    sqf = sympy_poly(p).sqf_part().monic().all_coeffs()
    assert product == Polynomial.from_scaled(real_root_counter(P)[0], scale) == Polynomial(
        Fraction(int(c.p), int(c.q)) for c in reversed(sqf))
    # the negative-discriminant quadratics among sympy's rational factors
    expected = set()
    for f, _ in sympy_poly(p).factor_list()[1]:
        if f.degree() == 2:
            c0, c1, c2 = reversed(f.monic().all_coeffs())
            if c1 * c1 < 4 * c0:
                expected.add(tuple(Fraction(int(c.p), int(c.q)) for c in (c0, c1, c2)))
    assert len(quads) == len(expected) == len({q.coeffs for q in quads})
    assert {q.coeffs for q in quads} == expected
    real_rest = sympy.real_roots(sympy_poly(rest)) if rest.degree > 0 else []
    rest_count = real_root_counter(ints(rest))[1]
    assert rest_real == (rest_count() == rest.degree) == (len(real_rest) == rest.degree)
    real = sympy.real_roots(sympy_poly(p)) if p.degree > 0 else []
    sqf, count = real_root_counter(ints(p))
    assert (count(Fraction(0), None) == len(sqf) - 1) == (
        len(real) == p.degree and all(r > 0 for r in real))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 4)), min_size=1, max_size=3),
       st.sampled_from([(1, 2, 3), (1, -1, 2, -2, 3, -3)]),
       st.sampled_from([1, 2, 3, 5]))
def test_complex_quadratic_factors_finds_planted_quadratics(pairs, roots, s):
    """x^2 - 2a x + a^2 + d next to the roots 1, 2, 3 (or all of +-1, +-2,
    +-3), every root divided by s: the integral form has the roots s r,
    which the search divides out before it evaluates the cofactor at 1."""
    quads = {X * X - 2 * a * X + a * a + d for a, d in pairs}
    p = Poly((1,))
    for f in [*quads, *(X - r for r in roots)]:
        p = p * f
    scaled = sorted((shift_scale(q, s).monic() for q in quads),
                    key=lambda f: (f.coeffs[1], f.coeffs[0]))
    assert quadratic_factors(shift_scale(p, s).monic()) == scaled


@st.composite
def planted_products(draw):
    """A random rational lead times distinct monic irreducible factors,
    each to the power 1 or 2 up to degree 6: linear factors x - r with
    denominators up to 24, negative-discriminant quadratics x^2 - 2a x + c
    (a and c - a^2 > 0 rational over denominators up to 6), real
    quadratics x^2 - r (r not a square) and cyclotomic polynomials.  The
    quadratic search is exponential in the bits of the constant term at
    the least scale, which bounds the heights."""
    factors = []
    for kind in draw(st.lists(st.sampled_from(("linear", "complex", "real", "cyclotomic")),
                              min_size=1, max_size=3)):
        if kind == "linear":
            f = X - Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 24)))
        elif kind == "complex":
            a = draw(st.fractions(min_value=-8, max_value=8, max_denominator=6))
            b = draw(st.fractions(min_value=Fraction(1, 6), max_value=12, max_denominator=6))
            f = X * X - 2 * a * X + a * a + b
        elif kind == "real":
            f = X * X - draw(st.sampled_from((2, 3, Fraction(5, 3), Fraction(7, 4))))
        else:
            f = Poly(cyclotomic(draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 10, 12)))))
        if f not in factors:
            factors.append(f)
    p = Poly((draw(st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)),))
    for f in factors:
        for _ in range(draw(st.integers(1, 2)) if p.degree + 2 * f.degree <= 6 else 1):
            p = p * f
    return p


def from_sympy(f):
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs()))


@settings(max_examples=40, deadline=None)
@given(planted_products(), st.randoms(use_true_random=False),
       st.sampled_from((rand_invertible_rational, rand_large_rational)))
def test_int_spectral_split_matches_sympy_factor_list(p, rng, family):
    # p made monic, through the companion matrix of a rational conjugate:
    # the Krylov scale D of m is the lcm of its entries' denominators, far
    # above the least scale d of the polynomial for rand_large_rational
    u = family(rng, p.degree)
    m = u * companion(p.monic().coeffs) * inverse(u)
    P, scale = integer_minimal_polynomial(m)
    assert Polynomial.from_scaled(P, scale) == p.monic()
    quads, rest, real = rational_spectrum(P, scale)
    factors = [from_sympy(f) for f, _ in sympy_poly(p).factor_list()[1]]
    want = [f for f in factors if f.degree == 2 and f.coeffs[1] ** 2 < 4 * f.coeffs[0]]
    others = [f for f in factors if f not in want]
    assert sorted(Polynomial.from_scaled(q, scale).coeffs for q in quads) == sorted(
        f.coeffs for f in want)
    product = Poly((1,))
    for f in others:
        product = product * f
    assert Polynomial.from_scaled(rest, scale) == product
    assert real == all(len(sympy.real_roots(sympy_poly(f))) == f.degree for f in others)
    roots = [Fraction(-f[0], scale) for f in split_factors(rest, scale)[0] if len(f) == 2]
    assert roots == sorted(-f.coeffs[0] for f in others if f.degree == 1)


def test_one_remainder_sequence_per_root_question(monkeypatch):
    chains = []
    sturm_chain = polynomials._sturm_chain
    monkeypatch.setattr(polynomials, "_sturm_chain",
                        lambda p: chains.append(p) or sturm_chain(p))
    p = (X * X + 1) * (X - 2) * (X - 2) * (X * X * X - X + 1)
    # every interval is counted on the chain real_root_counter builds once
    chains.clear()
    _, count = real_root_counter(ints(p))
    assert (count(), count(Fraction(0), None), count(None, Fraction(0))) == (2, 1, 1)
    assert len(chains) == 1
    # the split reads the squarefree part and its real-root count off one chain
    for q, quads in ((p, [[1, 0, 1]]), ((X - 1) * (X - 1) * (X * X - 2), []),
                     (X * p, [[1, 0, 1]])):
        chains.clear()
        assert rational_spectrum(ints(q), 1)[0] == quads
        assert len(chains) == 1
    # a totally real spectrum skips the quadratic search
    searches = []
    monkeypatch.setattr(decompositions, "split_factors",
                        lambda *p: searches.append(p) or ([], p[0]))
    assert rational_spectrum(ints((X - 1) * (X - 1) * (X * X - 2)), 1) == (
        [], ints((X - 1) * (X * X - 2)), True)
    assert searches == []


def test_log_unipotent_spec_examples():
    assert log_unipotent(Matrix.identity(3)).is_zero()
    m = Matrix.from_rows([[1, 1], [0, 1]])
    assert log_unipotent(m) == Matrix.from_rows([[0, 1], [0, 0]])
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [0, 0, 1]])
    log = log_unipotent(m)
    assert exp_nilpotent(log) == m  # finite-series round trip


def test_log_unipotent_rejects_non_unipotent():
    with pytest.raises(NotUnipotent):
        log_unipotent(Matrix.diagonal([2, 1]))


def test_log_round_trip_random():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(1)
            for j in range(i + 1, n):
                rows[i][j] = Fraction(rng.randint(-3, 3))
        m = Matrix.from_rows(rows)
        assert exp_nilpotent(log_unipotent(m)) == m


def test_nilpotency_index():
    assert nilpotency_index(Matrix.zeros(2, 2)) == 1
    assert nilpotency_index(Matrix.from_rows([[0, 1], [0, 0]])) == 2
    assert nilpotency_index(Matrix.identity(2)) is None
