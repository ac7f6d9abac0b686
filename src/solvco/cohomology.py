"""Cohomology of the complex of alternating forms on a Lie algebra.

The differential on degree-one generators is
    d e^k = - sum over i < j of c[k][i][j] e^i ^ e^j
and extends to higher degrees as an antiderivation.  Wedge monomials are
indexed by strictly increasing multi-indices in lexicographic order, which
fixes a basis of each exterior power and makes every matrix, kernel and
representative choice deterministic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DimensionTooLarge, JacobiViolation
from .lie import (
    LieAlgebra,
    derived_subalgebra,
    is_nilpotent,
    is_solvable,
    is_unimodular,
    validate,
)
from .matrices import Echelon, Matrix, rank_and_kernel

DEFAULT_DIM_BOUND = 12


@functools.lru_cache(maxsize=None)
def multi_indices(n: int, k: int):
    """Strictly increasing k-tuples from 1..n, lexicographically ordered."""
    return tuple(itertools.combinations(range(1, n + 1), k))


def sort_with_sign(indices):
    """(sign, sorted tuple) for distinct indices; sign 0 on repetition."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        return 0, ()
    sign = 1
    # insertion sort, counting transpositions; lists here are tiny
    for i in range(1, len(indices)):
        j = i
        while j > 0 and indices[j - 1] > indices[j]:
            indices[j - 1], indices[j] = indices[j], indices[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(indices)


def differentials(g: LieAlgebra, max_degree: Optional[int] = None):
    """Matrices d[k] : degree k -> degree k+1 for k up to max_degree (all
    degrees when None), without any validation.

    Exposed separately so tests can correlate a Jacobi failure with a
    nonzero d∘d; build_complex is the checked entry point.
    """
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    n = g.dim
    # d e^gen = - sum c[gen][i][j] e^{ij}: collect the nonzero terms once
    d_of_generator = {gen: [] for gen in range(1, n + 1)}
    for (i, j), coeffs in g.nonzero_brackets():
        for gen, c in enumerate(coeffs, start=1):
            if c != 0:
                d_of_generator[gen].append((-c, i, j))
    mats = []
    top = n if max_degree is None else min(max_degree, n)
    for k in range(top + 1):
        source = multi_indices(n, k)
        target = multi_indices(n, k + 1)
        target_pos = {idx: t for t, idx in enumerate(target)}
        entries = [[Fraction(0)] * len(source) for _ in range(len(target))]
        for col, idx in enumerate(source):
            for pos, gen in enumerate(idx):
                prefix = idx[:pos]
                suffix = idx[pos + 1 :]
                pos_sign = -1 if pos % 2 else 1
                for coeff, i, j in d_of_generator[gen]:
                    sgn, merged = sort_with_sign(prefix + (i, j) + suffix)
                    if sgn == 0:
                        continue
                    entries[target_pos[merged]][col] += coeff * pos_sign * sgn
        mats.append(Matrix.from_rows(entries) if entries else
                    Matrix.zeros(0, len(source)))
    return mats


@dataclass(frozen=True)
class CEComplex:
    """Exterior-form complex of an algebra: d[k] maps degree k to k+1."""

    algebra: LieAlgebra
    d: tuple
    max_degree: Optional[int] = None  # None means the full complex was built


def build_complex(g: LieAlgebra, max_degree: Optional[int] = None,
                  dim_bound: int = DEFAULT_DIM_BOUND) -> CEComplex:
    """Validated complex with d∘d = 0 checked exactly.

    A full complex has 2^dim basis forms, so dimensions above dim_bound are
    rejected unless max_degree limits the computation to a prefix.
    """
    if max_degree is None and g.dim > dim_bound:
        raise DimensionTooLarge(
            f"dimension {g.dim} exceeds bound {dim_bound}; use a degree cut-off")
    validate(g)
    mats = differentials(g, max_degree)
    for k in range(len(mats) - 1):
        if not (mats[k + 1] * mats[k]).is_zero():
            raise JacobiViolation((0, 0, 0), f"d o d != 0 in degree {k}")
    return CEComplex(algebra=g, d=tuple(mats), max_degree=max_degree)


@dataclass(frozen=True)
class CohomologyResult:
    """Betti numbers and deterministic representative cocycles per degree."""

    betti: tuple
    representatives: tuple  # per degree, tuple of coefficient vectors


def betti_numbers(cx: CEComplex) -> CohomologyResult:
    """b_k = dim ker d[k] - rank d[k-1]; representatives span a complement
    of the boundaries inside the cocycles, reduced against the boundary
    echelon so the output is reproducible."""
    betti = []
    reps = []
    prev_rank = 0
    for k in range(len(cx.d)):
        rank_k, kernel = rank_and_kernel(cx.d[k])
        betti.append(len(kernel) - prev_rank)
        boundary = Echelon(cx.d[k].cols)
        if k > 0:
            for j in range(cx.d[k - 1].cols):
                boundary.add(cx.d[k - 1].column(j))
        chosen = []
        for vec in kernel:
            reduced = boundary.reduce(vec)
            if any(x != 0 for x in reduced):
                lead = next(x for x in reduced if x != 0)
                normal = tuple(x / lead for x in reduced)
                boundary.add(normal)
                chosen.append(normal)
        reps.append(tuple(chosen))
        prev_rank = rank_k
    return CohomologyResult(betti=tuple(betti), representatives=tuple(reps))


@dataclass(frozen=True)
class StructuralReport:
    """Consistency diagnostics tying Betti numbers to algebra structure."""

    unimodular: bool
    duality_holds: bool
    euler_characteristic: int
    euler_ok: bool
    b1: int
    b1_expected: int
    b1_formula_ok: bool
    solvable: bool
    nilpotent: bool
    b1_bound_ok: bool

    @property
    def duality_as_expected(self) -> bool:
        """Poincare duality should hold exactly for unimodular algebras."""
        return self.duality_holds == self.unimodular

    def lines(self):
        out = [
            f"unimodular {str(self.unimodular).lower()}",
            f"duality {'holds' if self.duality_holds else 'violated'}"
            + ("" if self.duality_as_expected else " (unexpected)"),
            f"euler {self.euler_characteristic}",
            f"b1 {self.b1} (dim - dim[g,g] = {self.b1_expected})",
        ]
        if self.solvable:
            bound = 2 if self.nilpotent else 1
            out.append(f"b1-bound >= {bound} {'ok' if self.b1_bound_ok else 'violated'}")
        return out


def structural_checks(res: CohomologyResult, g: LieAlgebra) -> StructuralReport:
    """Duality vs unimodularity, Euler characteristic, and first Betti bounds.

    Only meaningful for a full complex (betti lists all degrees 0..dim).
    """
    n = g.dim
    betti = res.betti
    if len(betti) != n + 1:
        raise ValueError("structural checks require the full complex")
    uni = is_unimodular(g)
    duality = all(betti[k] == betti[n - k] for k in range(n + 1))
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    solv = is_solvable(g)
    nilp = is_nilpotent(g)
    b1 = betti[1] if n >= 1 else 0
    b1_expected = n - derived_subalgebra(g).dim
    if nilp:
        bound_ok = b1 >= 2 if n >= 1 else True
    elif solv:
        bound_ok = b1 >= 1
    else:
        bound_ok = True
    return StructuralReport(
        unimodular=uni,
        duality_holds=duality,
        euler_characteristic=euler,
        euler_ok=(euler == 0) if n >= 1 else True,
        b1=b1,
        b1_expected=b1_expected,
        b1_formula_ok=(b1 == b1_expected),
        solvable=solv,
        nilpotent=nilp,
        b1_bound_ok=bound_ok,
    )


def cohomology(g: LieAlgebra, max_degree: Optional[int] = None,
               dim_bound: int = DEFAULT_DIM_BOUND) -> CohomologyResult:
    """Convenience wrapper: build the complex and take Betti numbers."""
    return betti_numbers(build_complex(g, max_degree=max_degree, dim_bound=dim_bound))


def format_multi_index(idx) -> str:
    """e13-style label; indices above 9 are comma-separated for clarity."""
    if not idx:
        return "1"
    if all(i <= 9 for i in idx):
        return "e" + "".join(str(i) for i in idx)
    return "e" + ",".join(str(i) for i in idx)


def format_cocycle(vec, n: int, k: int) -> str:
    """`a1*e{I1} + a2*e{I2} + ...` with rational coefficients."""
    idxs = multi_indices(n, k)
    terms = [f"{c}*{format_multi_index(idx)}" for c, idx in zip(vec, idxs) if c != 0]
    if not terms:
        return "0"
    return " + ".join(terms)
