"""Lattices in rank-one extensions R x| R^n: Betti numbers of the quotient
for every holonomy, the rational-representability criterion for i*pi and
the finite cover of a quasi-unipotent holonomy.

The lattice Z x| Z^n is described by an integer holonomy matrix B (the
action of the generator), optionally together with a rational derivation Z
generating the one-parameter subgroup, tagged with a scale of 1 or pi.  The
quotient is the mapping torus of B on the n-torus, so its Betti numbers
come from the Wang sequence with no condition on B.  All decisions are
exact: failure certificates come from cyclotomic factors, negative real
eigenvalues or conjugate pairs with rational imaginary part, never from
floating-point logarithms.  B is in GL(n, Z) exactly when the constant
term (-1)^n det B of its int characteristic polynomial is +-1, which is
how the input is checked.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional

from .cohomology import DEFAULT_DIM_BOUND, cohomology
from .decompositions import (
    integer_char_poly,
    log_unipotent,
    perfect_square_root,
    rational_spectrum,
)
from .errors import DimensionTooLarge, NotQuasiUnipotent
from .lie import LieAlgebra
from .matrices import Matrix, exterior_power, rank
from .polynomials import (
    Polynomial,
    cyclotomic_factors,
    euler_totient,
    real_root_counter,
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


class HolonomyInput:
    """Lattice data: integer n x n holonomy B, optional derivation.

    When both B and the derivation are given they must describe the same
    group; that consistency is the caller's assertion and is not checked.
    """

    def __init__(self, holonomy: Matrix, derivation: Optional[Matrix] = None,
                 scale: Scale = Scale.ONE):
        vars(self).update(holonomy=holonomy, derivation=derivation, scale=scale)
        if not holonomy.is_square():
            raise ValueError("holonomy must be n x n")
        if holonomy.denominator != 1:
            raise ValueError("holonomy must have integer entries")
        if abs(self.spectrum[0][0]) != 1:  # the constant term is (-1)^n det B
            raise ValueError("holonomy must be invertible over the integers")
        if derivation is not None and (not derivation.is_square() or derivation.rows != self.n):
            raise ValueError("derivation must be n x n")

    def __setattr__(self, name, value):
        raise AttributeError("HolonomyInput is immutable")

    @property
    def n(self) -> int:
        """Rank of the lattice Z^n that B acts on."""
        return self.holonomy.rows

    @functools.cached_property
    def spectrum(self):
        """(characteristic polynomial of the holonomy as a monic int list,
        the integer matrix being its own scale, its cyclotomic factors as
        (d, multiplicity) pairs), computed once per input."""
        P, _ = integer_char_poly(self.holonomy)
        return P, tuple(cyclotomic_factors(P))

    @functools.cached_property
    def real_spectrum(self):
        """(some eigenvalue of the holonomy is negative real, every one is
        real and positive), from one Sturm chain, computed once per input."""
        s, count = real_root_counter(self.spectrum[0])
        return count(None, 0) > 0, count(0, None) == len(s) - 1


def almost_abelian_algebra(derivation: Matrix) -> LieAlgebra:
    """Lie algebra of R x| R^n: e_1 acts on the abelian span of e_2..e_{n+1}."""
    n = derivation.rows
    return LieAlgebra(n + 1, {(1, 1 + j): dict(enumerate(derivation.column(j - 1), start=2))
                              for j in range(1, n + 1)})


def b1_lattice(inp: HolonomyInput) -> int:
    """First Betti number of the quotient: n + 1 - rank(B - id), exact."""
    b = inp.holonomy
    return inp.n + 1 - rank(b - Matrix.identity(inp.n))


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
        P, scale = integer_char_poly(inp.derivation)
        quads, rest, real = rational_spectrum(P, scale)
        for big_c, big_b, _ in quads:  # x^2 + (B/D) x + C/D^2: roots (-B/D +- i root)/2
            root = perfect_square_root(Fraction(4 * big_c - big_b * big_b, scale * scale))
            if root is None:
                continue
            div = root if root.denominator == 1 else f"({root})"  # /(4/3), not /4/3
            factor = Polynomial.from_scaled([big_c, big_b, 1], scale)
            return (MostowStatus.FAILS,
                    f"conjugate pair of factor {factor} has rational imaginary "
                    f"part {root / 2}: i = (v - conj(v))/{div}, so i*pi is a rational "
                    "combination of the eigenvalues")
        if real:
            return (MostowStatus.HOLDS,
                    "every non-real conjugate pair has irrational imaginary part "
                    "and the rest of the spectrum is real; no rational "
                    "combination of the eigenvalues equals i")
        return (MostowStatus.UNDETERMINED,
                f"derivation spectrum has a non-real factor of degree >= 3 "
                f"({Polynomial.from_scaled(rest, scale)}); rational "
                "representability of i*pi not decided")
    _, cyclo = inp.spectrum
    bad = [d for d, _ in cyclo if d >= 2]
    if bad:
        d = bad[0]
        return (MostowStatus.FAILS,
                f"holonomy has a primitive {d}-th root of unity eigenvalue "
                f"(cyclotomic factor of order {d}); the derivation has a "
                "conjugate pair with imaginary part a rational multiple of pi")
    negative, positive = inp.real_spectrum
    if negative:
        return (MostowStatus.FAILS,
                "holonomy has a negative real eigenvalue r; the derivation has "
                "eigenvalues log|r| +- i*pi, so i*pi = (v - conj(v))/2")
    if positive:
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


def _cover(inp: HolonomyInput):
    """(m, cover type) for quasi-unipotent B: B^m is unipotent, and the
    finite cover is a torus exactly when B^m = id."""
    m, _ = quasi_unipotent_order(inp)
    if inp.holonomy**m == Matrix.identity(inp.n):
        return m, CoverType.TORUS
    return m, CoverType.NILMANIFOLD


def torus_cover(inp: HolonomyInput):
    """(m, cover type, cover algebra) for the finite cover with unipotent
    holonomy: B^m = id gives a torus, otherwise a nilpotent mapping-torus
    algebra built from the exact unipotent logarithm of B^m."""
    m, kind = _cover(inp)
    if kind is CoverType.TORUS:
        return m, kind, LieAlgebra.abelian(inp.n + 1)
    return m, kind, almost_abelian_algebra(log_unipotent(inp.holonomy**m))


def invariant_betti(inp: HolonomyInput):
    """Betti numbers b_0..b_{n+1} of the quotient, for every holonomy.

    The quotient is the mapping torus of B on the n-torus, so the Wang
    sequence gives b_k = kappa_k + kappa_{k-1} with
    kappa_k = dim ker(Lambda^k B - id), the classes of degree k on the
    torus fixed by B.  The exterior powers take C(2n, n) minors, so the
    quotient's dimension n + 1 has the bound of the cohomology complex.
    """
    if inp.n + 1 > DEFAULT_DIM_BOUND:
        raise DimensionTooLarge(
            f"quotient dimension {inp.n + 1} exceeds bound {DEFAULT_DIM_BOUND}")
    kappa = [0]
    for k in range(inp.n + 1):
        ext = exterior_power(inp.holonomy, k)
        kappa.append(ext.rows - rank(ext - Matrix.identity(ext.rows)))
    kappa.append(0)
    return tuple(a + b for a, b in zip(kappa, kappa[1:]))


class AlmostAbelianReport(NamedTuple):
    """Everything the lattice analysis can decide for one holonomy input."""

    b1: int
    mostow: MostowStatus
    mostow_reason: str
    cyclotomic: tuple
    order_m: Optional[int]
    cover_type: CoverType
    invariant_betti: tuple
    ce_betti: Optional[tuple]
    de_rham_valid: bool


def analyze(inp: HolonomyInput) -> AlmostAbelianReport:
    """Assemble the full report; see the individual operations for details.

    invariant_betti holds the Betti numbers of the quotient, which the Wang
    sequence gives for every holonomy.  ce_betti is the cohomology of the
    rank-one extension algebra when a derivation is supplied (the pi scale
    only rescales a basis vector, so the rational matrix is used either
    way); it is the de Rham cohomology of the quotient exactly when the
    Mostow status is HOLDS, and the report says so via de_rham_valid.
    """
    status, reason = mostow_status(inp)
    try:
        order_m, cover_type = _cover(inp)
    except NotQuasiUnipotent:
        order_m = None
        cover_type = (CoverType.COMPLETELY_SOLVABLE if inp.real_spectrum[1]
                      else CoverType.OTHER)
    ce = None
    if inp.derivation is not None:
        ce = tuple(cohomology(almost_abelian_algebra(inp.derivation)).betti)
    betti = invariant_betti(inp)
    return AlmostAbelianReport(
        b1=betti[1],  # kappa_1 + kappa_0 = n + 1 - rank(B - id), as in b1_lattice
        mostow=status,
        mostow_reason=reason,
        cyclotomic=inp.spectrum[1],
        order_m=order_m,
        cover_type=cover_type,
        invariant_betti=betti,
        ce_betti=ce,
        de_rham_valid=(status is MostowStatus.HOLDS),
    )
