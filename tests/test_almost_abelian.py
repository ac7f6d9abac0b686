"""Lattice holonomy analysis: b1, the i*pi criterion, covers and the Betti
numbers of the quotient from the Wang sequence."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvco.almost_abelian import (
    CoverType,
    HolonomyInput,
    MostowStatus,
    Scale,
    almost_abelian_algebra,
    analyze,
    b1_lattice,
    invariant_betti,
    mostow_status,
    quasi_unipotent_order,
    torus_cover,
)
from solvco.cli import run_command
from solvco.cohomology import cohomology
from solvco.decompositions import log_unipotent
from solvco.errors import DimensionTooLarge, NotQuasiUnipotent
from solvco.lie import LieAlgebra, is_nilpotent
from solvco.matrices import Matrix, inverse
from support import (
    block_diag,
    companion,
    laplace_det,
    minor_rank,
    oracle_betti,
    rand_unimodular,
)

ORDER3 = Matrix.from_rows([[0, -1, 0], [1, -1, 0], [0, 0, 1]])
ORDER4 = Matrix.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
ORDER6 = Matrix.from_rows([[0, -1, 0], [1, 1, 0], [0, 0, 1]])
ORDER2 = Matrix.diagonal([-1, -1, 1])
ANOSOV = Matrix.from_rows([[2, 1], [1, 1]])
JORDAN_MINUS1 = Matrix.from_rows([[-1, 1], [0, -1]])  # the source paper's holonomy


def test_holonomy_input_validation():
    # checked in this order: square, integral, unimodular
    with pytest.raises(ValueError, match="n x n"):
        HolonomyInput(Matrix(2, 3, [Fraction(1, 2), 0, 0, 0, 2, 0]))
    with pytest.raises(ValueError, match="invertible over the integers"):
        HolonomyInput(Matrix.from_rows([[2, 0], [0, 1]]))  # det 2
    with pytest.raises(ValueError, match="integer entries"):  # det 1
        HolonomyInput(Matrix.from_rows([[Fraction(1, 2), 0], [0, 2]]))
    with pytest.raises(ValueError, match="derivation must be n x n"):
        HolonomyInput(ANOSOV, derivation=Matrix.identity(3))
    with pytest.raises(ValueError, match="derivation must be n x n"):
        HolonomyInput(ANOSOV, derivation=Matrix(2, 3, [0] * 6))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 4),
       st.sampled_from((0, 1, -1, 2, -2, None)))
def test_holonomy_is_accepted_exactly_when_its_det_is_a_unit(rng, n, d):
    # the check reads the constant term of the characteristic polynomial;
    # U diag(d, 1, ..., 1) V has det +-d, and None draws entries in [-2, 2]
    if d is None:
        b = Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
    else:
        b = rand_unimodular(rng, n) * Matrix.diagonal([d] + [1] * (n - 1)) \
            * rand_unimodular(rng, n)
    unit = abs(laplace_det([b.row(i) for i in range(n)])) == 1
    try:
        HolonomyInput(b)
    except ValueError as err:
        assert not unit and str(err) == "holonomy must be invertible over the integers"
    else:
        assert unit


def test_b1_spec_examples():
    assert b1_lattice(HolonomyInput(Matrix.identity(2))) == 3  # torus T^3
    assert b1_lattice(HolonomyInput(ORDER3)) == 2
    assert b1_lattice(HolonomyInput(ANOSOV)) == 1


def test_b1_bounds_and_identity_characterization():
    rng = random.Random(67)
    for _ in range(30):
        n = rng.randint(1, 4)
        b = rand_unimodular(rng, n)
        inp = HolonomyInput(b)
        b1 = b1_lattice(inp)
        assert b1 >= 1
        assert (b1 == n + 1) == (b == Matrix.identity(n))


def test_mostow_spec_examples():
    status, _ = mostow_status(HolonomyInput(ANOSOV))
    assert status is MostowStatus.HOLDS  # x^2 - 3x + 1 totally real positive

    status, reason = mostow_status(HolonomyInput(ORDER3))
    assert status is MostowStatus.FAILS
    assert "3" in reason  # cyclotomic witness

    rot_derivation = Matrix.from_rows([[0, 2], [-2, 0]])
    status, reason = mostow_status(
        HolonomyInput(Matrix.identity(2), derivation=rot_derivation, scale=Scale.PI))
    assert status is MostowStatus.FAILS
    assert "rational imaginary part 2" in reason

    status, _ = mostow_status(
        HolonomyInput(ANOSOV, derivation=Matrix.diagonal([1, -1]), scale=Scale.ONE))
    assert status is MostowStatus.HOLDS  # transcendence layer


def test_mostow_negative_real_eigenvalue_fails():
    # eigenvalues -2 and -1/2: negative reals that are not roots of unity
    b = Matrix.from_rows([[-2, 1], [1, -1]])
    status, reason = mostow_status(HolonomyInput(b))
    assert status is MostowStatus.FAILS
    assert "negative real eigenvalue" in reason


def test_mostow_undetermined_cases():
    # complex eigenvalues off the unit circle: x^2 - x + 2 has negative
    # discriminant and determinant 2... use a det 1 example: x^2 - x + 1 is
    # cyclotomic, so build a 4x4 with an irreducible quartic factor instead
    b = companion((1, -1, 0, 0, 1))  # x^4 - x^3 + 1? check: coeffs low->high
    inp = HolonomyInput(b)
    status, _ = mostow_status(inp)
    assert status is MostowStatus.UNDETERMINED

    # scale-pi derivation with a degree >= 3 non-real factor
    z = companion((9, 0, -2, 0, 1))  # x^4 - 2x^2 + 9: roots +-sqrt(2) +- i
    status, reason = mostow_status(
        HolonomyInput(Matrix.identity(4), derivation=z, scale=Scale.PI))
    assert status is MostowStatus.UNDETERMINED
    assert "degree >= 3" in reason


def test_mostow_pi_scale_irrational_imaginary_holds():
    # x^2 + 2: eigenvalues +-i sqrt(2); i is not a rational combination
    z = Matrix.from_rows([[0, 2], [-1, 0]])
    status, reason = mostow_status(
        HolonomyInput(Matrix.identity(2), derivation=z, scale=Scale.PI))
    assert status is MostowStatus.HOLDS
    assert "irrational imaginary part" in reason


def test_torus_cover_spec_examples():
    m, kind, alg = torus_cover(HolonomyInput(Matrix.identity(2)))
    assert (m, kind) == (1, CoverType.TORUS)
    assert cohomology(alg).betti == (1, 3, 3, 1)

    m, kind, alg = torus_cover(HolonomyInput(ORDER3))
    assert (m, kind) == (3, CoverType.TORUS)
    assert alg == LieAlgebra.abelian(4)

    m, kind, alg = torus_cover(HolonomyInput(Matrix.from_rows([[1, 1], [0, 1]])))
    assert (m, kind) == (1, CoverType.NILMANIFOLD)
    assert is_nilpotent(alg)
    assert cohomology(alg).betti == (1, 2, 2, 1)  # Heisenberg cover


def test_torus_cover_rejects_hyperbolic():
    with pytest.raises(NotQuasiUnipotent):
        torus_cover(HolonomyInput(ANOSOV))


def test_quasi_unipotent_order_mixed():
    b = block_diag(ORDER4, Matrix.from_rows([[1, 1], [0, 1]]))
    m, cyclo = quasi_unipotent_order(HolonomyInput(b))
    assert m == 4
    assert dict(cyclo).keys() >= {1, 4}
    _, kind, alg = torus_cover(HolonomyInput(b))
    assert kind is CoverType.NILMANIFOLD
    assert is_nilpotent(alg)


def test_invariant_betti_spec_examples():
    n = 3
    assert invariant_betti(HolonomyInput(Matrix.identity(n))) == tuple(
        comb(n + 1, k) for k in range(n + 2))
    assert invariant_betti(HolonomyInput(Matrix.diagonal([-1, -1]))) == (1, 1, 1, 1)
    # hyperelliptic holonomies of orders 2, 3, 4 and 6
    for b in (ORDER2, ORDER3, ORDER4, ORDER6):
        assert invariant_betti(HolonomyInput(b)) == (1, 2, 2, 2, 1)
    # rot3: identity holonomy, rotation derivation at scale pi
    rot3 = HolonomyInput(Matrix.identity(2),
                         derivation=Matrix.from_rows([[0, 2], [-2, 0]]), scale=Scale.PI)
    assert invariant_betti(rot3) == (1, 3, 3, 1)
    # no finite cover is a torus: the paper's holonomy has a nilmanifold
    # double cover, and no power of the Anosov holonomy is unipotent
    assert invariant_betti(HolonomyInput(JORDAN_MINUS1)) == (1, 1, 1, 1)
    assert invariant_betti(HolonomyInput(ANOSOV)) == (1, 1, 1, 1)


def test_invariant_betti_bounds_the_dimension(tmp_path):
    # the quotient of dimension 13 is above the bound of 12; n = 11 takes
    # seconds, while n = 12 would take minutes
    with pytest.raises(DimensionTooLarge):
        invariant_betti(HolonomyInput(Matrix.identity(12)))
    holo = tmp_path / "b.txt"
    holo.write_text("12 12\n" + "".join(
        " ".join(str(int(i == j)) for j in range(12)) + "\n" for i in range(12)))
    code, text = run_command(["almost-abelian", "--holonomy", str(holo)])
    assert code == 1 and "quotient dimension 13 exceeds bound 12" in text


def _random_holonomies(rng, count):
    """Random B in GL(n, Z), n <= 4, each in a random integer basis:
    elementary products, companions of integer polynomials with constant
    term +-1, and block sums with the fixed 2 x 2 holonomies."""
    blocks = (ANOSOV, JORDAN_MINUS1, Matrix.from_rows([[1, 1], [0, 1]]),
              Matrix.from_rows([[0, -1], [1, 0]]), Matrix.diagonal([-1, 1]))
    out = []
    for t in range(count):
        if t % 3 == 0:
            b = rand_unimodular(rng, rng.randint(1, 4))
        elif t % 3 == 1:
            n = rng.randint(1, 4)
            b = companion([rng.choice((1, -1))]
                          + [rng.randint(-3, 3) for _ in range(n - 1)] + [1])
        else:
            b = block_diag(rng.choice(blocks), rand_unimodular(rng, rng.randint(1, 2)))
        u = rand_unimodular(rng, b.rows)
        out.append(u * b * inverse(u))
    return out


def test_invariant_betti_properties():
    rng = random.Random(71)
    finite_orders = [ORDER2, ORDER3, ORDER4, ORDER6, Matrix.diagonal([-1, -1]),
                     Matrix.diagonal([1, -1, -1, 1]),
                     block_diag(ORDER3, companion((1, -1, 1)))]
    for b in finite_orders + _random_holonomies(rng, 60):
        n = b.rows
        inp = HolonomyInput(b)
        betti = invariant_betti(inp)
        assert len(betti) == n + 2
        assert betti[0] == 1
        assert betti[1] == b1_lattice(inp)
        assert sum((-1) ** k * x for k, x in enumerate(betti)) == 0
        det = laplace_det([b.row(i) for i in range(n)])
        assert betti[-1] == (1 if det == 1 else 0)
        if det == 1:
            assert all(betti[k] == betti[n + 1 - k] for k in range(n + 2))
        u = rand_unimodular(rng, n)
        assert invariant_betti(HolonomyInput(u * b * inverse(u))) == betti


def _oracle_wang(b: Matrix):
    """b_k = kappa_k + kappa_{k-1}, with Lambda^k B read off Laplace minors
    and kappa_k = dim ker(Lambda^k B - id) from minor ranks: no elimination."""
    n = b.rows
    rows = [b.row(i) for i in range(n)]
    kappa = [0]
    for k in range(n + 1):
        subsets = list(itertools.combinations(range(n), k))
        shifted = [[laplace_det([[rows[i][j] for j in cols] for i in sub]) - (sub == cols)
                    for cols in subsets] for sub in subsets]
        kappa.append(len(subsets) - minor_rank(Matrix.from_rows(shifted)))
    kappa.append(0)
    return tuple(a + c for a, c in zip(kappa, kappa[1:]))


def test_invariant_betti_matches_minor_oracle():
    fixed = [ORDER2, ORDER3, ORDER4, ORDER6, ANOSOV, JORDAN_MINUS1,
             companion((1, -1, 0, 0, 1))]
    for b in fixed + _random_holonomies(random.Random(73), 24):
        assert invariant_betti(HolonomyInput(b)) == _oracle_wang(b)


def test_invariant_betti_matches_nomizu_on_unipotent_holonomies():
    # unipotent B: the quotient is a nilmanifold, whose cohomology is that
    # of its Lie algebra, here the mapping-torus algebra of log B
    rng = random.Random(79)
    cases = [Matrix.from_rows([[1, 1], [0, 1]]), Matrix.identity(3)]
    for _ in range(10):
        n = rng.randint(1, 4)
        upper = Matrix.from_rows([[int(i == j) if j <= i else rng.randint(-2, 2)
                                   for j in range(n)] for i in range(n)])
        u = rand_unimodular(rng, n)
        cases.append(u * upper * inverse(u))
    for b in cases:
        g = almost_abelian_algebra(log_unipotent(b))
        betti = invariant_betti(HolonomyInput(b))
        assert betti == cohomology(g).betti == oracle_betti(g)


def test_almost_abelian_algebra_shape():
    d = Matrix.from_rows([[0, 1], [0, 0]])
    g = almost_abelian_algebra(d)
    assert g.dim == 3
    assert g.bracket_basis(1, 3) == (0, 1, 0)
    assert g.bracket_basis(2, 3) == (0, 0, 0)


def test_one_sturm_chain_per_holonomy(monkeypatch):
    from solvco import polynomials

    chains = []
    squarefree_chain = polynomials._squarefree_chain
    monkeypatch.setattr(polynomials, "_squarefree_chain",
                        lambda p: chains.append(p) or squarefree_chain(p))
    # not quasi-unipotent: Mostow and the cover type both ask about real roots
    report = analyze(HolonomyInput(ANOSOV))
    assert report.mostow is MostowStatus.HOLDS
    assert report.cover_type is CoverType.COMPLETELY_SOLVABLE
    assert len(chains) == 1
    chains.clear()
    assert mostow_status(HolonomyInput(JORDAN_MINUS1))[0] is MostowStatus.FAILS
    assert len(chains) == 0  # a cyclotomic factor decides before any root count
    assert analyze(HolonomyInput(Matrix.from_rows([[0, 1], [1, 3]]))).mostow is MostowStatus.FAILS
    assert len(chains) == 1  # negative real eigenvalue (3 - sqrt 13) / 2


def test_analyze_report_fields():
    rep = analyze(HolonomyInput(ORDER3))
    assert rep.b1 == 2
    assert rep.mostow is MostowStatus.FAILS
    assert rep.order_m == 3
    assert rep.cover_type is CoverType.TORUS
    assert rep.invariant_betti == (1, 2, 2, 2, 1)
    assert dict(rep.cyclotomic) == {1: 1, 3: 1}
    assert rep.ce_betti is None and not rep.de_rham_valid

    rep = analyze(HolonomyInput(ANOSOV))
    assert rep.cover_type is CoverType.COMPLETELY_SOLVABLE
    assert rep.order_m is None and rep.invariant_betti == (1, 1, 1, 1)

    rep = analyze(HolonomyInput(JORDAN_MINUS1))
    assert (rep.order_m, rep.cover_type) == (2, CoverType.NILMANIFOLD)
    assert rep.invariant_betti == (1, 1, 1, 1)


def test_de_rham_label_iff_holds():
    cases = [
        (HolonomyInput(ANOSOV, derivation=Matrix.diagonal([1, -1]),
                       scale=Scale.ONE), MostowStatus.HOLDS),
        (HolonomyInput(Matrix.identity(2),
                       derivation=Matrix.from_rows([[0, 2], [-2, 0]]),
                       scale=Scale.PI), MostowStatus.FAILS),
        (HolonomyInput(Matrix.identity(2),
                       derivation=Matrix.from_rows([[0, 2], [-1, 0]]),
                       scale=Scale.PI), MostowStatus.HOLDS),
    ]
    for inp, expected in cases:
        rep = analyze(inp)
        assert rep.mostow is expected
        assert rep.de_rham_valid == (expected is MostowStatus.HOLDS)
        assert rep.ce_betti == cohomology(
            almost_abelian_algebra(inp.derivation)).betti


def test_sol3_ce_betti_via_derivation():
    rep = analyze(HolonomyInput(ANOSOV, derivation=Matrix.diagonal([1, -1]),
                                scale=Scale.ONE))
    assert rep.ce_betti == (1, 1, 1, 1)
    assert rep.de_rham_valid
