"""Lattices in rank-one extensions R x| R^n: first Betti number, the
rational-representability criterion for i*pi, finite covers and invariant
cohomology.

The lattice Z x| Z^n is described by an integer holonomy matrix B (the
action of the generator), optionally together with a rational derivation Z
generating the one-parameter subgroup, tagged with a scale of 1 or pi.  All
decisions are exact: failure certificates come from cyclotomic factors,
negative real eigenvalues or conjugate pairs with rational imaginary part,
never from floating-point logarithms.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .cohomology import cohomology
from .decompositions import (
    char_poly,
    complex_quadratic_factors,
    log_unipotent,
    nilpotency_index,
    perfect_square_root,
)
from .errors import NotFiniteOrder, NotQuasiUnipotent
from .lie import LieAlgebra
from .matrices import Matrix, det, exterior_power, rank
from .polynomials import (
    Polynomial,
    cyclotomic_factors,
    euler_totient,
    squarefree_part,
    sturm_real_root_count,
)


class Scale(enum.Enum):
    ONE = "1"
    PI = "pi"


class MostowStatus(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNDETERMINED = "undetermined"


class CoverType(enum.Enum):
    TORUS = "torus"
    NILMANIFOLD = "nilmanifold"
    COMPLETELY_SOLVABLE = "completely-solvable"
    OTHER = "other"


@dataclass(frozen=True)
class HolonomyInput:
    """Lattice data: size n, integer holonomy B, optional derivation.

    When both B and the derivation are given they must describe the same
    group; that consistency is the caller's assertion and is not checked.
    """

    n: int
    holonomy: Matrix
    derivation: Optional[Matrix] = None
    scale: Scale = Scale.ONE

    def __post_init__(self):
        b = self.holonomy
        if not b.is_square() or b.rows != self.n:
            raise ValueError("holonomy must be n x n")
        if b.denominator != 1:
            raise ValueError("holonomy must have integer entries")
        if det(b) not in (1, -1):
            raise ValueError("holonomy must be invertible over the integers")
        if self.derivation is not None:
            z = self.derivation
            if not z.is_square() or z.rows != self.n:
                raise ValueError("derivation must be n x n")

    @functools.cached_property
    def spectrum(self):
        """(characteristic polynomial of the holonomy, its cyclotomic
        factors as (d, multiplicity) pairs), computed once per input."""
        p = char_poly(self.holonomy)
        return p, tuple(cyclotomic_factors(p))


def almost_abelian_algebra(derivation: Matrix) -> LieAlgebra:
    """Lie algebra of R x| R^n: e_1 acts on the abelian span of e_2..e_{n+1}."""
    n = derivation.rows
    table = {}
    for j in range(1, n + 1):
        col = derivation.column(j - 1)
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            coeffs[k] = col[k - 1]
        table[(1, 1 + j)] = tuple(coeffs)
    return LieAlgebra(n + 1, table)


def b1_lattice(inp: HolonomyInput) -> int:
    """First Betti number of the quotient: n + 1 - rank(B - id), exact."""
    b = inp.holonomy
    return inp.n + 1 - rank(b - Matrix.identity(inp.n))


def _rational_imaginary_quadratics(p: Polynomial):
    """Negative-discriminant quadratic factors of p whose roots have
    rational imaginary part, as (factor, real part a, imaginary part q)."""
    f = squarefree_part(p)
    out = []
    leftover = f
    for factor in complex_quadratic_factors(f):
        big_c, big_b = factor.coeffs[0], -factor.coeffs[1]
        root = perfect_square_root(4 * big_c - big_b * big_b)  # roots (B +- i root)/2
        leftover = leftover // factor
        if root is not None:
            out.append((factor, big_b / 2, root / 2))
    return out, leftover


def mostow_status(inp: HolonomyInput):
    """(status, reason) for the equality of the algebraic hulls of the group
    and the lattice, decided in layers:

    1. rational derivation at scale 1: always holds (algebraic eigenvalues
       cannot combine rationally to the transcendental i*pi);
    2. derivation at scale pi: i*pi lies in the rational span of the
       eigenvalues exactly when i lies in the span of the eigenvalues of the
       rational matrix, which happens exactly when some conjugate pair has
       rational nonzero imaginary part; decided whenever the non-real part
       of the spectrum splits into rational quadratics;
    3. holonomy only: root-of-unity or negative real eigenvalues force
       failure through the (log r +- i*pi) pairing; a totally real positive
       spectrum forces success; anything else is undetermined.
    """
    if inp.derivation is not None and inp.scale is Scale.ONE:
        return (MostowStatus.HOLDS,
                "rational derivation: eigenvalues are algebraic, i*pi is "
                "transcendental, so i*pi is not a rational combination")
    if inp.derivation is not None:
        p = char_poly(inp.derivation)
        rational_pairs, leftover = _rational_imaginary_quadratics(p)
        if rational_pairs:
            factor, _, q = rational_pairs[0]
            div = 2 * q  # /(4/3), since /4/3 would read as division by 12
            div = div if div.denominator == 1 else f"({div})"
            return (MostowStatus.FAILS,
                    f"conjugate pair of factor {factor} has rational imaginary "
                    f"part {q}: i = (v - conj(v))/{div}, so i*pi is a rational "
                    "combination of the eigenvalues")
        if leftover.degree <= 0 or sturm_real_root_count(leftover) == leftover.degree:
            return (MostowStatus.HOLDS,
                    "every non-real conjugate pair has irrational imaginary part "
                    "and the rest of the spectrum is real; no rational "
                    "combination of the eigenvalues equals i")
        return (MostowStatus.UNDETERMINED,
                f"derivation spectrum has a non-real factor of degree >= 3 "
                f"({leftover}); rational representability of i*pi not decided")
    p, cyclo = inp.spectrum
    bad = [d for d, _ in cyclo if d >= 2]
    if bad:
        d = bad[0]
        return (MostowStatus.FAILS,
                f"holonomy has a primitive {d}-th root of unity eigenvalue "
                f"(cyclotomic factor of order {d}); the derivation has a "
                "conjugate pair with imaginary part a rational multiple of pi")
    f = squarefree_part(p)
    if sturm_real_root_count(f, None, Fraction(0)) > 0:
        return (MostowStatus.FAILS,
                "holonomy has a negative real eigenvalue r; the derivation has "
                "eigenvalues log|r| +- i*pi, so i*pi = (v - conj(v))/2")
    if sturm_real_root_count(f, Fraction(0), None) == f.degree:
        return (MostowStatus.HOLDS,
                "all holonomy eigenvalues are real and positive, so the "
                "derivation has real spectrum and no rational combination "
                "of its eigenvalues is imaginary")
    return (MostowStatus.UNDETERMINED,
            "holonomy has complex eigenvalues that are not roots of unity; "
            "multiplicative relations among algebraic numbers are not decided")


def quasi_unipotent_order(inp: HolonomyInput):
    """(m, cyclotomic factors) when every eigenvalue of B is a root of unity."""
    _, cyclo = inp.spectrum
    degree_covered = sum(mult * euler_totient(d) for d, mult in cyclo)
    if degree_covered != inp.n:
        raise NotQuasiUnipotent(
            "holonomy has an eigenvalue that is not a root of unity")
    m = 1
    for d, _ in cyclo:
        m = lcm(m, d)
    return m, cyclo


def torus_cover(inp: HolonomyInput):
    """(m, cover type, cover algebra) for the finite cover with unipotent
    holonomy: B^m = id gives a torus, otherwise a nilpotent mapping-torus
    algebra built from the exact unipotent logarithm of B^m."""
    m, _ = quasi_unipotent_order(inp)
    bm = inp.holonomy**m
    ident = Matrix.identity(inp.n)
    if nilpotency_index(bm - ident) is None:
        raise NotQuasiUnipotent("B^m is not unipotent")  # unreachable for valid input
    if bm == ident:
        return m, CoverType.TORUS, LieAlgebra.abelian(inp.n + 1)
    return m, CoverType.NILMANIFOLD, almost_abelian_algebra(log_unipotent(bm))


def invariant_betti(inp: HolonomyInput, m: int):
    """Betti numbers of the quotient as fixed subspaces of the cover action.

    The deck group Z_m acts on degree-one cohomology of the torus cover by
    1 (+) B^T; degree k fixes ker(Lambda^k of that matrix - id).
    """
    bm = inp.holonomy**m
    if bm != Matrix.identity(inp.n):
        raise NotFiniteOrder(f"holonomy order does not divide {m}")
    action = Matrix.from_rows(
        [[1] + [0] * inp.n]
        + [[0] + list(inp.holonomy.column(i)) for i in range(inp.n)]
    )
    out = []
    for k in range(inp.n + 2):
        ext = exterior_power(action, k)
        out.append(ext.rows - rank(ext - Matrix.identity(ext.rows)))
    return out


@dataclass(frozen=True)
class AlmostAbelianReport:
    """Everything the lattice analysis can decide for one holonomy input."""

    b1: int
    mostow: MostowStatus
    mostow_reason: str
    cyclotomic: tuple
    order_m: Optional[int]
    cover_type: CoverType
    invariant_betti: Optional[tuple]
    ce_betti: Optional[tuple]
    de_rham_valid: bool


def analyze(inp: HolonomyInput) -> AlmostAbelianReport:
    """Assemble the full report; see the individual operations for details.

    ce_betti is the cohomology of the rank-one extension algebra when a
    derivation is supplied (the pi scale only rescales a basis vector, so
    the rational matrix is used either way); it is the de Rham cohomology
    of the quotient exactly when the Mostow status is HOLDS, and the report
    says so via de_rham_valid.
    """
    status, reason = mostow_status(inp)
    p, cyclo = inp.spectrum
    covered = sum(mult * euler_totient(d) for d, mult in cyclo)
    order_m = None
    inv = None
    if covered == inp.n:
        order_m, cover_type, _ = torus_cover(inp)
        if cover_type is CoverType.TORUS:  # B^m = id
            inv = tuple(invariant_betti(inp, order_m))
    else:
        f = squarefree_part(p)
        if sturm_real_root_count(f, Fraction(0), None) == f.degree:
            cover_type = CoverType.COMPLETELY_SOLVABLE
        else:
            cover_type = CoverType.OTHER
    ce = None
    if inp.derivation is not None:
        ce = tuple(cohomology(almost_abelian_algebra(inp.derivation)).betti)
    return AlmostAbelianReport(
        b1=b1_lattice(inp),
        mostow=status,
        mostow_reason=reason,
        cyclotomic=cyclo,
        order_m=order_m,
        cover_type=cover_type,
        invariant_betti=inv,
        ce_betti=ce,
        de_rham_valid=(status is MostowStatus.HOLDS),
    )
