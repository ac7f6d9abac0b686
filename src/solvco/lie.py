"""Lie algebras over the rationals given by structure constants.

Basis indices are 1-based throughout, matching the e1, e2, ... naming used
in structure files.  Brackets are stored only for i < j and extended by
antisymmetry, so antisymmetry can only be violated by raw tensor input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .decompositions import (
    complex_quadratic_factors,
    jordan_chevalley,
    minimal_polynomial,
)
from .errors import (
    AntisymmetryViolation,
    DecompositionInvalid,
    JacobiViolation,
    NotSolvable,
)
from .matrices import (
    Echelon,
    Matrix,
    add_vectors,
    basis_vector,
    inverse,
    rank_and_kernel,
    scale_vector,
    solve,
    zero_vector,
)
from .polynomials import (
    Polynomial,
    rational_roots,
    squarefree_part,
    sturm_real_root_count,
)


class LieAlgebra:
    """Finite-dimensional Lie algebra with rational structure constants."""

    __slots__ = ("dim", "_table", "_terms")

    def __init__(self, dim: int, table):
        """table maps (i, j) with 1 <= i < j <= dim to a coefficient tuple
        of length dim; zero brackets may be omitted.

        Each nonzero bracket is also kept as its nonzero (k, c) terms under
        both (i, j) and (j, i), so bracket sums skip zero coefficients."""
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        clean = {}
        for (i, j), coeffs in table.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bad bracket index pair ({i},{j})")
            coeffs = tuple(Fraction(c) for c in coeffs)
            if len(coeffs) != dim:
                raise ValueError("coefficient vector length must equal dim")
            if any(c != 0 for c in coeffs):
                clean[(i, j)] = coeffs
        terms = {}
        for (i, j), coeffs in clean.items():
            terms[(i, j)] = tuple((k, c) for k, c in enumerate(coeffs, start=1) if c)
            terms[(j, i)] = tuple((k, -c) for k, c in terms[(i, j)])
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_table", clean)
        object.__setattr__(self, "_terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(dim, {})

    @classmethod
    def from_brackets(cls, dim: int, brackets) -> "LieAlgebra":
        """brackets maps (i, j) with i < j to {k: coeff} dictionaries."""
        table = {}
        for (i, j), terms in brackets.items():
            coeffs = [Fraction(0)] * dim
            for k, c in terms.items():
                if not 1 <= k <= dim:
                    raise ValueError(f"bad target index {k}")
                coeffs[k - 1] = Fraction(c)
            table[(i, j)] = tuple(coeffs)
        return cls(dim, table)

    @classmethod
    def from_tensor(cls, tensor) -> "LieAlgebra":
        """Build from a full tensor c[k][i][j] (0-based nesting, 1-based math).

        Checks antisymmetry c[k][j][i] = -c[k][i][j] and zero diagonal.
        """
        dim = len(tensor)
        table = {}
        for k in range(dim):
            if len(tensor[k]) != dim or any(len(row) != dim for row in tensor[k]):
                raise ValueError("tensor must be dim x dim x dim")
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    cij = Fraction(tensor[k][i][j])
                    cji = Fraction(tensor[k][j][i])
                    if i == j and cij != 0:
                        raise AntisymmetryViolation(
                            f"c[{k + 1}][{i + 1}][{i + 1}] = {cij} must vanish")
                    if cij != -cji:
                        raise AntisymmetryViolation(
                            f"c[{k + 1}][{i + 1}][{j + 1}] != -c[{k + 1}][{j + 1}][{i + 1}]")
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                coeffs = tuple(Fraction(tensor[k][i - 1][j - 1]) for k in range(dim))
                table[(i, j)] = coeffs
        return cls(dim, table)

    def structure_constant(self, k: int, i: int, j: int) -> Fraction:
        """c[k][i][j]: coefficient of e_k in [e_i, e_j]."""
        if i == j:
            return Fraction(0)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))[k - 1]
        return -self._table.get((j, i), zero_vector(self.dim))[k - 1]

    def bracket_basis(self, i: int, j: int):
        """[e_i, e_j] as a coefficient vector."""
        if i == j:
            return zero_vector(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vector(self.dim))
        return scale_vector(-1, self._table.get((j, i), zero_vector(self.dim)))

    def bracket(self, x, y):
        """Bilinear extension of the basis brackets."""
        out = [Fraction(0)] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y, start=1) if yj]
        for i, xi in enumerate(x, start=1):
            if xi == 0:
                continue
            for j, yj in ys:
                f = xi * yj
                for k, c in self._terms.get((i, j), ()):
                    out[k - 1] += f * c
        return tuple(out)

    def nonzero_brackets(self):
        """Sorted list of ((i, j), coeffs) with i < j and nonzero bracket."""
        return sorted(self._table.items())

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self._table == other._table)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._table.items()))))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self._table)})"


def jacobi_violation(g: LieAlgebra):
    """First triple (i, j, k) violating Jacobi, with its residual, or None.

    The residual [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    is summed over the nonzero bracket terms only."""
    terms = g._terms
    for i in range(1, g.dim + 1):
        for j in range(i + 1, g.dim + 1):
            for k in range(j + 1, g.dim + 1):
                res = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in terms.get((a, b), ()):
                        for r, y in terms.get((m, c), ()):
                            res[r] = res.get(r, 0) + x * y
                if any(res.values()):
                    out = [Fraction(0)] * g.dim
                    for r, v in res.items():
                        out[r - 1] = v
                    return (i, j, k), tuple(out)
    return None


def validate(g: LieAlgebra) -> None:
    """Raise JacobiViolation on the first failing triple; antisymmetry holds
    by construction for table-built algebras."""
    bad = jacobi_violation(g)
    if bad is not None:
        raise JacobiViolation(*bad)


def ad_matrix(g: LieAlgebra, x) -> Matrix:
    """Matrix of y -> [x, y] in the defining basis."""
    if len(x) != g.dim:
        raise ValueError("vector length must equal dim")
    cols = [g.bracket(x, basis_vector(g.dim, j)) for j in range(g.dim)]
    return Matrix.from_columns(cols) if g.dim else Matrix.zeros(0, 0)


class Subspace:
    """Subspace of the ambient coordinate space, given by an independent basis."""

    __slots__ = ("ambient_dim", "basis", "_echelon")

    def __init__(self, ambient_dim: int, basis):
        basis = tuple(tuple(Fraction(c) for c in v) for v in basis)
        ech = Echelon(ambient_dim)
        for v in basis:
            if len(v) != ambient_dim:
                raise ValueError("vector length must equal ambient dimension")
            if not ech.add(v):
                raise ValueError("basis vectors are linearly dependent")
        self._set(ambient_dim, basis, ech)

    def _set(self, ambient_dim: int, basis: tuple, ech: Echelon) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_echelon", ech)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [basis_vector(ambient_dim, i) for i in range(ambient_dim)])

    @classmethod
    def span(cls, ambient_dim: int, vectors) -> "Subspace":
        """Canonical subspace spanned by arbitrary vectors (echelon basis)."""
        ech = Echelon(ambient_dim)
        for v in vectors:
            ech.add(v)
        # the echelon rows are independent by construction: no second check
        space = cls.__new__(cls)
        space._set(ambient_dim, tuple(ech.rows), ech)
        return space

    @classmethod
    def standard(cls, ambient_dim: int, indices) -> "Subspace":
        """Span of the 1-based standard basis vectors with the given indices."""
        return cls(ambient_dim, [basis_vector(ambient_dim, i - 1) for i in sorted(indices)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, v) -> bool:
        return self._echelon.contains(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def coordinates(self, v):
        """Coefficients of v over this basis, or None when v lies outside."""
        if self.is_zero():
            return () if all(Fraction(c) == 0 for c in v) else None
        m = Matrix.from_columns(self.basis)
        return solve(m, tuple(Fraction(c) for c in v))

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.ambient_dim, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via coefficient solving on the stacked basis matrix."""
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        m = Matrix.from_columns(list(self.basis) + [scale_vector(-1, v) for v in other.basis])
        _, kernel = rank_and_kernel(m)
        vectors = []
        for w in kernel:
            combo = zero_vector(self.ambient_dim)
            for c, b in zip(w[: self.dim], self.basis):
                combo = add_vectors(combo, scale_vector(c, b))
            vectors.append(combo)
        return Subspace.span(self.ambient_dim, vectors)

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains_subspace(other))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


def bracket_subspaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise brackets of basis vectors of a and b."""
    vectors = [g.bracket(u, v) for u in a.basis for v in b.basis]
    return Subspace.span(g.dim, vectors)


def derived_series(g: LieAlgebra):
    """g = g_(0) >= [g_(0), g_(0)] >= ... until stabilization."""
    series = [Subspace.full(g.dim)]
    while True:
        nxt = bracket_subspaces(g, series[-1], series[-1])
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def lower_central_series(g: LieAlgebra):
    """g = g_0 >= [g_0, g] >= [g_1, g] >= ... until stabilization."""
    full = Subspace.full(g.dim)
    series = [full]
    while True:
        nxt = bracket_subspaces(g, series[-1], full)
        if nxt.dim == series[-1].dim:
            break
        series.append(nxt)
    return series


def is_solvable(g: LieAlgebra) -> bool:
    return derived_series(g)[-1].is_zero()


def is_nilpotent(g: LieAlgebra) -> bool:
    return lower_central_series(g)[-1].is_zero()


def is_unimodular(g: LieAlgebra) -> bool:
    """True when tr(ad e_i) = 0 for every basis vector (linearity does the rest)."""
    return all(
        ad_matrix(g, basis_vector(g.dim, i)).trace() == 0 for i in range(g.dim)
    )


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    return bracket_subspaces(g, Subspace.full(g.dim), Subspace.full(g.dim))


def restrict(g: LieAlgebra, s: Subspace) -> LieAlgebra:
    """Structure constants of a bracket-closed subspace over its own basis."""
    table = {}
    for a in range(s.dim):
        for b in range(a + 1, s.dim):
            w = g.bracket(s.basis[a], s.basis[b])
            coords = s.coordinates(w)
            if coords is None:
                raise ValueError("subspace is not closed under the bracket")
            table[(a + 1, b + 1)] = coords
    return LieAlgebra(s.dim, table)


def conjugate(g: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Algebra in the new basis f_j = sum_i p[i, j] e_i (p invertible)."""
    if p.rows != g.dim or p.cols != g.dim:
        raise ValueError("change of basis must be dim x dim")
    p_inv = inverse(p)
    table = {}
    for i in range(1, g.dim + 1):
        for j in range(i + 1, g.dim + 1):
            w = g.bracket(p.column(i - 1), p.column(j - 1))
            table[(i, j)] = p_inv.apply(w)
    return LieAlgebra(g.dim, table)


@dataclass(frozen=True)
class FlagCertificate:
    """Outcome of the search for a full rational flag of ideals."""

    status: str  # 'yes' | 'no' | 'undetermined'
    chain: Optional[tuple] = None          # nested Subspaces, dims 0..n
    witness: Optional[tuple] = None        # (basis index, Polynomial with non-real roots)


def _non_real_witness_factor(p: Polynomial):
    """A factor of p with non-real roots, or None when p is totally real.

    Prefers an irreducible negative-discriminant quadratic when one can be
    extracted rationally; otherwise returns the non-real remainder block.
    """
    f = squarefree_part(p)
    if f.degree <= 0 or sturm_real_root_count(f) == f.degree:
        return None
    quads = complex_quadratic_factors(f)
    return quads[0] if quads else f


def _quotient_operators(g: LieAlgebra, ideal: Subspace):
    """Representative indices and induced ad(e_i) matrices on g / ideal."""
    pivots = set(ideal._echelon.pivots)
    reps = [t for t in range(g.dim) if t not in pivots]

    def project(v):
        reduced = ideal._echelon.reduce(v)
        return tuple(reduced[t] for t in reps)

    ops = []
    for i in range(g.dim):
        cols = [project(g.bracket(basis_vector(g.dim, i), basis_vector(g.dim, t)))
                for t in reps]
        ops.append(Matrix.from_columns(cols) if reps else Matrix.zeros(0, 0))
    return reps, ops


def _common_rational_eigenvector(ops, dim_q):
    """DFS over rational eigenvalues for a vector fixed up to scale by all ops."""

    def eigenspaces(a: Matrix):
        return [Subspace.span(dim_q, rank_and_kernel(a - lam * Matrix.identity(dim_q))[1])
                for lam in rational_roots(minimal_polynomial(a))]

    # each distinct operator's rational eigenspaces, once per call
    spaces = {}
    for a in ops:
        if a not in spaces:
            spaces[a] = eigenspaces(a)

    def recurse(space: Subspace, idx: int):
        if space.is_zero():
            return None
        if idx == len(ops):
            return space.basis[0]
        for eig in spaces[ops[idx]]:
            found = recurse(space.intersect(eig), idx + 1)
            if found is not None:
                return found
        return None

    return recurse(Subspace.full(dim_q), 0)


def completely_solvable_flag(g: LieAlgebra) -> FlagCertificate:
    """Certificate for the existence of a full flag of ideals.

    'yes' comes with the chain; 'no' comes with a basis operator whose
    minimal polynomial has a non-real factor (sound, since a rational flag
    forces rational eigenvalues); anything else is 'undetermined', e.g.
    irrational real weights.
    """
    if not is_solvable(g):
        raise NotSolvable("flag search requires a solvable algebra")
    for i in range(g.dim):
        p = minimal_polynomial(ad_matrix(g, basis_vector(g.dim, i)))
        factor = _non_real_witness_factor(p)
        if factor is not None:
            return FlagCertificate(status="no", witness=(i + 1, factor))
    ideal = Subspace.zero(g.dim)
    chain = [ideal]
    while ideal.dim < g.dim:
        reps, ops = _quotient_operators(g, ideal)
        vec = _common_rational_eigenvector(ops, len(reps))
        if vec is None:
            return FlagCertificate(status="undetermined")
        lift = zero_vector(g.dim)
        for c, t in zip(vec, reps):
            lift = add_vectors(lift, scale_vector(c, basis_vector(g.dim, t)))
        ideal = ideal.add(Subspace.span(g.dim, [lift]))
        chain.append(ideal)
    return FlagCertificate(status="yes", chain=tuple(chain))


def verify_nilpotent_complement(g: LieAlgebra, v: Subspace, n: Subspace) -> tuple:
    """Check the decomposition g = V (+) n used by the splitting machinery.

    Clauses, first failure raised as DecompositionInvalid:
      direct_sum          V and n are complementary subspaces
      ideal               [g, n] lies in n
      nilpotent           n with its induced bracket is nilpotent
      commutator          [g, g] lies in n
      semisimple_action   the semisimple part of each ad(A), A in V, kills V

    Returns the semisimple parts of ad(A), one per basis vector A of V.
    """
    if v.ambient_dim != g.dim or n.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension must equal dim")
    if v.dim + n.dim != g.dim or v.add(n).dim != g.dim:
        raise DecompositionInvalid("direct_sum",
                                   f"dims {v.dim} + {n.dim} do not compose {g.dim}")
    for i in range(g.dim):
        for w in n.basis:
            if not n.contains(g.bracket(basis_vector(g.dim, i), w)):
                raise DecompositionInvalid("ideal", "n is not an ideal")
    if not is_nilpotent(restrict(g, n)):
        raise DecompositionInvalid("nilpotent", "n is not nilpotent")
    comm = derived_subalgebra(g)
    if not n.contains_subspace(comm):
        raise DecompositionInvalid("commutator", "[g, g] is not contained in n")
    semis = tuple(jordan_chevalley(ad_matrix(g, a)).semisimple for a in v.basis)
    for semi in semis:
        for b in v.basis:
            if any(c != 0 for c in semi.apply(b)):
                raise DecompositionInvalid(
                    "semisimple_action",
                    "semisimple part of ad(A) does not annihilate the complement")
    return semis


def nilradical_maximality_hint(g: LieAlgebra, n: Subspace) -> bool:
    """Heuristic only: no single basis-direction extension of n stays a
    nilpotent ideal.  A True answer does not prove n is the nilradical."""
    for i in range(1, g.dim + 1):
        e = basis_vector(g.dim, i - 1)
        if n.contains(e):
            continue
        bigger = n.add(Subspace.span(g.dim, [e]))
        ideal = all(
            bigger.contains(g.bracket(basis_vector(g.dim, t), w))
            for t in range(g.dim)
            for w in bigger.basis
        )
        if ideal and is_nilpotent(restrict(g, bigger)):
            return False
    return True
