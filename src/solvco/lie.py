"""Lie algebras over the rationals given by structure constants.

Basis indices are 1-based throughout, matching the e1, e2, ... naming used
in structure files.  An algebra is built from its nonzero brackets only,
`LieAlgebra(dim, {(i, j): {k: c}})` with i < j, the coefficient c of e_k
in [e_i, e_j]; the (j, i) brackets follow by antisymmetry, so antisymmetry
holds by construction and only the Jacobi identity needs a check.

The algebra keeps one table, `_terms`: the nonzero terms (k, D * c) of
each bracket, as ints over one denominator D, in one row per basis index
i that maps each j with [e_i, e_j] != 0 to the terms.  One builder makes
it, `LieAlgebra.from_integer_brackets`, from int terms over an int
denominator; the constructor clears the denominators of its `Fraction`s
once and calls the same builder.  Every invariant expands over the table
only: the series, the changes of basis and the ideal checks bracket int
rows (`_sparse_bracket`, D times the bracket, over the table rows of the
support of x), and `ad_matrix`, the Jacobi sums and the traces of
`is_unimodular` read the terms directly; a change of basis (`conjugate`,
`_in_basis`) and the flag search read coordinates as an echelon's int
remainders, so `Fraction`s appear only in what a reader returns.  Both
series are computed once per algebra, into a memo slot that every reader
of [g, g], solvability or nilpotency reads.
The flag search runs inside [g, g], on the matrices of the ad(e_i) on it,
and reads their spectra from the int form of their minimal polynomials;
only a `no` witness becomes a `Polynomial`.  Its common eigenvectors are int kernel
vectors of one echelon per search branch, and its chain is summed in
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .decompositions import (
    integer_minimal_polynomial,
    jordan_chevalley,
    rational_spectrum,
)
from .errors import DecompositionInvalid, JacobiViolation, NotSolvable
from .matrices import (
    Echelon,
    Matrix,
    basis_vector,
    clear_denominators,
    rational,
)
from .polynomials import Polynomial, split_factors


class LieAlgebra:
    """Finite-dimensional Lie algebra with rational structure constants."""

    # _series: the memo of `_series_of`, left out of ==, hash and pickling
    __slots__ = ("dim", "denominator", "_terms", "_series")

    def __init__(self, dim: int, brackets):
        """brackets maps (i, j) with 1 <= i < j <= dim to a {k: coefficient}
        dict with 1 <= k <= dim, the coefficient of e_k in [e_i, e_j]; zero
        coefficients are dropped and zero brackets may be omitted.  The
        denominators are cleared once, and the builder behind
        `from_integer_brackets` makes the table."""
        brackets = {ij: [(k, rational(c)) for k, c in coeffs.items()]
                    for ij, coeffs in brackets.items()}
        D = lcm(*[c.denominator for row in brackets.values() for _, c in row])
        self._set(dim, {ij: {k: c.numerator * (D // c.denominator) for k, c in row}
                        for ij, row in brackets.items()}, D)

    @classmethod
    def from_integer_brackets(cls, dim: int, brackets, denominator: int) -> "LieAlgebra":
        """The algebra whose [e_i, e_j] has coefficient brackets[(i, j)][k] /
        denominator at e_k: the mirror of `integer_brackets`, with the int
        terms given as a {(i, j): {k: int}} dict, i < j, over one int
        denominator > 0; zero terms may be given or omitted."""
        g = cls.__new__(cls)
        g._set(dim, brackets, denominator)
        return g

    def _set(self, dim: int, brackets, D: int) -> None:
        """The one table builder.  `_terms` keeps each nonzero bracket as
        its nonzero (k, D * c) int terms in ascending k, at [i][j] and, with
        the signs flipped, at [j][i], so bracket sums skip zero
        coefficients and a row lists the nonzero brackets of e_i; gcd(D,
        every term) is divided out, so `denominator` is the least D >= 1 with
        every D * c an integer and equal algebras have equal tables."""
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if D < 1:
            raise ValueError(f"denominator must be positive, got {D}")
        rows = {}
        for (i, j), coeffs in brackets.items():
            if not (1 <= i < j <= dim):
                raise ValueError(f"bad bracket index pair ({i},{j})")
            row = sorted(coeffs.items())
            if row and not (1 <= row[0][0] and row[-1][0] <= dim):
                bad = next(k for k, _ in row if not 1 <= k <= dim)
                raise ValueError(f"bad target index {bad}")
            row = [(k, x) for k, x in row if x]
            if row:
                rows[(i, j)] = row
        g = gcd(D, *[x for row in rows.values() for _, x in row])  # also rejects non-ints
        terms = {}
        for (i, j), row in rows.items():
            terms.setdefault(i, {})[j] = tuple((k, x // g) for k, x in row)
            terms.setdefault(j, {})[i] = tuple((k, -x // g) for k, x in row)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "denominator", D // g)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_series", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def __reduce__(self):
        return LieAlgebra.from_integer_brackets, (
            self.dim, {ij: dict(row) for ij, row in self.integer_brackets()}, self.denominator)

    @classmethod
    def abelian(cls, dim: int) -> "LieAlgebra":
        return cls(dim, {})

    def structure_constant(self, k: int, i: int, j: int) -> Fraction:
        """c[k][i][j]: coefficient of e_k in [e_i, e_j]."""
        return Fraction(dict(self._terms.get(i, {}).get(j, ())).get(k, 0), self.denominator)

    def bracket_basis(self, i: int, j: int):
        """[e_i, e_j] as a coefficient vector."""
        D = self.denominator
        return _dense(self.dim, {k - 1: Fraction(x, D)
                                 for k, x in self._terms.get(i, {}).get(j, ())})

    def bracket(self, x, y):
        """Bilinear extension of the basis brackets."""
        out = _sparse_bracket(self, *({t: c for t, c in enumerate(v) if c} for v in (x, y)))
        return _dense(self.dim, {t: Fraction(c, self.denominator) for t, c in out.items()})

    def integer_brackets(self):
        """Sorted list of ((i, j), ((k, D * c), ...)) with i < j, D =
        `denominator`: the nonzero int terms of each bracket, ascending k."""
        return sorted(((i, j), terms) for i, row in self._terms.items()
                      for j, terms in row.items() if i < j)

    def nonzero_brackets(self):
        """`integer_brackets` divided by D: ((i, j), {k: c}) in the same
        order, with the nonzero coefficients in ascending k."""
        D = self.denominator
        return [(ij, {k: Fraction(x, D) for k, x in row}) for ij, row in self.integer_brackets()]

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.denominator == other.denominator and self._terms == other._terms)

    def __hash__(self):
        return hash((self.dim, self.denominator, tuple(self.integer_brackets())))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.integer_brackets())})"


def _dense(n: int, v: dict) -> tuple:
    """Length-n coefficient vector of the sparse vector {0-based column: c}."""
    out = [Fraction(0)] * n
    for t, c in v.items():
        out[t] = c
    return tuple(out)


def _sparse_bracket(g: LieAlgebra, x: dict, y: dict) -> dict:
    """D [x, y] of sparse vectors, D = g.denominator, summed over the
    nonzero int bracket terms of the pairs in their supports (ints for
    int vectors); entries that cancel are kept as zeros.  For each i in
    the support of x, the pairs are read from the shorter of the table
    row of e_i and the support of y."""
    rows = g._terms
    out = {}
    for i, xi in x.items():
        row = rows.get(i + 1)
        if not row:
            continue
        if len(row) < len(y):
            for j, t in row.items():
                yj = y.get(j - 1)
                if yj:
                    f = xi * yj
                    for k, c in t:
                        out[k - 1] = out.get(k - 1, 0) + f * c
        else:
            for j, yj in y.items():
                t = row.get(j + 1)
                if t:
                    f = xi * yj
                    for k, c in t:
                        out[k - 1] = out.get(k - 1, 0) + f * c
    return out


def jacobi_violation(g: LieAlgebra):
    """First triple (i, j, k) violating Jacobi, with its residual, or None.

    The residual [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j]
    is summed in ints over the nonzero bracket terms only, as D^2 times
    itself, and divided by D^2 only for the returned witness."""
    rows, empty = g._terms, {}
    for i in range(1, g.dim + 1):
        for j in range(i + 1, g.dim + 1):
            for k in range(j + 1, g.dim + 1):
                res = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in rows.get(a, empty).get(b, ()):
                        for r, y in rows.get(m, empty).get(c, ()):
                            res[r] = res.get(r, 0) + x * y
                if any(res.values()):
                    return (i, j, k), _dense(g.dim, {r - 1: Fraction(v, g.denominator ** 2)
                                                     for r, v in res.items()})
    return None


def validate(g: LieAlgebra) -> None:
    """Raise JacobiViolation on the first failing triple; antisymmetry holds
    by construction."""
    bad = jacobi_violation(g)
    if bad is not None:
        raise JacobiViolation(*bad)


def ad_matrix(g: LieAlgebra, x) -> Matrix:
    """Matrix of y -> [x, y]: entry (k, j) sums x_i c[k][i][j] over the terms,
    accumulated in ints as s x_i times the int terms D c[k][i][j], over
    s * D, s the common denominator of the x_i."""
    n = g.dim
    if len(x) != n:
        raise ValueError("vector length must equal dim")
    X, s = clear_denominators(x)
    num = [0] * (n * n)
    for i, xi in X.items():
        for j, terms in g._terms.get(i + 1, {}).items():
            for k, c in terms:
                num[(k - 1) * n + j - 1] += xi * c
    return Matrix.from_numerators(n, n, num, s * g.denominator)


class Subspace:
    """Subspace of the ambient coordinate space, given by an independent
    basis, and held as the integer rows of an `Echelon`; `span` leaves the
    rational reduced rows that are its `basis` to be built on first read."""

    __slots__ = ("ambient_dim", "_basis", "_echelon")

    def __init__(self, ambient_dim: int, basis):
        basis = tuple(tuple(rational(c) for c in v) for v in basis)
        ech = Echelon(ambient_dim)
        for v in basis:
            if len(v) != ambient_dim:
                raise ValueError("vector length must equal ambient dimension")
            if ech.add(v) is None:
                raise ValueError("basis vectors are linearly dependent")
        self._set(ambient_dim, basis, ech)

    def _set(self, ambient_dim: int, basis, ech: Echelon) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_basis", basis)
        object.__setattr__(self, "_echelon", ech)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return Subspace, (self.ambient_dim, self.basis)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.span(ambient_dim, ({i: 1} for i in range(ambient_dim)))

    @classmethod
    def span(cls, ambient_dim: int, vectors) -> "Subspace":
        """Canonical subspace spanned by arbitrary dense or sparse vectors
        (echelon basis)."""
        ech = Echelon(ambient_dim)
        for v in vectors:
            ech.add(v)
        # the echelon rows are independent by construction: no second check
        space = cls.__new__(cls)
        space._set(ambient_dim, None, ech)
        return space

    @classmethod
    def standard(cls, ambient_dim: int, indices) -> "Subspace":
        """Span of the 1-based standard basis vectors with the given indices."""
        return cls(ambient_dim, [basis_vector(ambient_dim, i - 1) for i in sorted(indices)])

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(
                tuple(Fraction(R.get(c, 0), a) for c in range(self.ambient_dim))
                for R, a in self._echelon.reduced_rows()))
        return self._basis

    @property
    def dim(self) -> int:
        return self._echelon.dim

    def is_zero(self) -> bool:
        return not self._echelon.dim

    def contains(self, v) -> bool:
        return self._echelon.contains(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other._echelon.rows_from(0))

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.ambient_dim,
                             self._echelon.rows_from(0) + other._echelon.rows_from(0))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.dim == other.dim
                and self.contains_subspace(other))

    def __hash__(self):
        # the reduced echelon rows are the same for every basis of the span
        return hash((self.ambient_dim, tuple(tuple(sorted(R.items()))
                                             for R, _ in self._echelon.reduced_rows())))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient_dim})"


def bracket_subspaces(g: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """Span of all pairwise brackets of the integer rows spanning a and b;
    for [a, a] the pairs s < t suffice by antisymmetry.  A bracket that
    vanishes is not handed to the echelon."""
    xs = a._echelon.rows_from(0)
    ys = xs if b is a else b._echelon.rows_from(0)
    brackets = (_sparse_bracket(g, x, y) for s, x in enumerate(xs)
                for y in (ys[s + 1:] if b is a else ys))
    return Subspace.span(g.dim, (w for w in brackets if any(w.values())))


def _descend(series: list, step) -> list:
    """series extended by step(last), step(step(last)), ... until the
    dimension stops falling."""
    while True:
        nxt = step(series[-1])
        if nxt.dim == series[-1].dim:
            return series
        series.append(nxt)


def _series_of(g: LieAlgebra) -> tuple:
    """(derived series, lower central series) as tuples, computed on the
    first read and kept in g's memo slot; the lower one starts from the
    derived one's [g, g], and both stop at g itself when [g, g] = g."""
    if g._series is None:
        full = Subspace.full(g.dim)
        derived = _descend([full], lambda s: bracket_subspaces(g, s, s))
        lower = (_descend(derived[:2], lambda s: bracket_subspaces(g, s, full))
                 if len(derived) > 1 else derived)
        object.__setattr__(g, "_series", (tuple(derived), tuple(lower)))
    return g._series


def derived_series(g: LieAlgebra):
    """g = g_(0) >= [g_(0), g_(0)] >= ... until stabilization."""
    return list(_series_of(g)[0])


def lower_central_series(g: LieAlgebra):
    """g = g_0 >= [g_0, g] >= [g_1, g] >= ... until stabilization."""
    return list(_series_of(g)[1])


def is_solvable(g: LieAlgebra) -> bool:
    return _series_of(g)[0][-1].is_zero()


def is_nilpotent(g: LieAlgebra) -> bool:
    return _series_of(g)[1][-1].is_zero()


def is_unimodular(g: LieAlgebra) -> bool:
    """True when tr(ad e_i), the sum of c[j][i][j] over j, vanishes for
    every basis vector (linearity does the rest); read off the terms."""
    return not any(sum(c for j, terms in row.items() for k, c in terms if k == j)
                   for row in g._terms.values())


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    """[g, g], read off the derived series (g itself when [g, g] = g)."""
    derived = _series_of(g)[0]
    return derived[1] if len(derived) > 1 else derived[0]


def _coordinates(n: int, basis):
    """The map from a sparse vector of Q^n to (W, s), its coordinates W / s
    over the b_a = B_a / t_a of basis, (B_a, t_a) pairs of a sparse int
    dict and an int, or None outside their span.  The rows [B_a | e_a] are
    eliminated once, so c_a B_a reduces to [0 | -c]; a pivot in the e part
    marks a B_a that depends on those before it, and raises ValueError."""
    ech = Echelon(n + len(basis))
    for a, (B, _) in enumerate(basis):
        if ech.add({**B, n + a: 1}) >= n:
            raise ValueError("basis vectors are linearly dependent")

    def coordinates(v: dict):
        W, s = ech.remainder(v)
        return None if any(c < n for c in W) else (
            {c - n: -x * basis[c - n][1] for c, x in W.items()}, s)
    return coordinates


def _in_basis(g: LieAlgebra, basis) -> LieAlgebra:
    """g's bracket over the b_a of basis, as `_coordinates` takes them: the
    one int change of basis, behind `conjugate` and the weight basis of
    `cohomology`.
    [b_a, b_b] has the coordinates W / (t t_a t_b D) when the int D [B_a,
    B_b] has W / t.  Raises ValueError when the b_a are
    dependent or a bracket leaves their span."""
    coordinates = _coordinates(g.dim, basis)
    brackets = {}
    for a, (A, ta) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            B, tb = basis[b]
            w = coordinates(_sparse_bracket(g, A, B))
            if w is None:
                raise ValueError("subspace is not closed under the bracket")
            brackets[(a + 1, b + 1)] = (w[0], w[1] * ta * tb)
    L = lcm(*[t for _, t in brackets.values()])
    return LieAlgebra.from_integer_brackets(
        len(basis), {ij: {k + 1: x * (L // t) for k, x in W.items()}
                     for ij, (W, t) in brackets.items()}, L * g.denominator)


def conjugate(g: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Algebra in the new basis f_j = sum_i p[i, j] e_i, the int columns of
    p over its denominator; a singular or mis-shaped p raises ValueError."""
    if p.rows != g.dim or p.cols != g.dim:
        raise ValueError("change of basis must be dim x dim")
    return _in_basis(g, [({i: x for i, x in enumerate(col) if x}, p.denominator)
                         for col in zip(*p.numerator_rows())])


@dataclass(frozen=True)
class FlagCertificate:
    """Outcome of the search for a full rational flag of ideals."""

    status: str  # 'yes' | 'no' | 'undetermined'
    chain: Optional[tuple] = None          # nested Subspaces, dims 0..n
    witness: Optional[tuple] = None        # (basis index, Polynomial with non-real roots)


def _from_int_columns(keys, columns, den: int) -> Matrix:
    """The matrix whose column a holds W_a / (s_a den) at the rows keys,
    for the sparse int dicts W_a over ints s_a >= 1 in columns, built over
    their one common denominator."""
    L = lcm(*[s for _, s in columns])
    columns = [(W, L // s) for W, s in columns]
    return Matrix.from_numerators(len(keys), len(columns),
                                  [W.get(r, 0) * f for r in keys for W, f in columns], L * den)


def _common_rational_eigenvector(ops, dim_q):
    """DFS over rational eigenvalues for a vector fixed up to scale by all
    ops, (matrix, candidate eigenvalues) pairs, as a sparse int vector.
    A branch stacks in one echelon the int rows of q D (a - p/q), D =
    a.denominator, for each eigenvalue p/q it takes, so the echelon's
    kernel is the common eigenspace, and a full rank ends the branch.  The
    rows go in with their columns reversed: the last kernel vector, read
    back, is then a positive multiple of the first row of the reduced
    echelon basis of that eigenspace."""

    def recurse(ech: Echelon, idx: int):
        if idx == len(ops):
            return {dim_q - 1 - c: x for c, x in ech.kernel()[-1].items()}
        a, roots = ops[idx]
        for lam in roots:
            branch, (p, q) = ech.copy(), lam.as_integer_ratio()
            for i, row in enumerate(a.numerator_rows()):
                row = [q * x for x in row]
                row[i] -= p * a.denominator
                branch.add(row[::-1])
            found = recurse(branch, idx + 1) if branch.dim < dim_q else None
            if found is not None:
                return found
        return None

    return recurse(Echelon(dim_q), 0)


def completely_solvable_flag(g: LieAlgebra) -> FlagCertificate:
    """Certificate for the existence of a full flag of ideals.

    'yes' comes with the chain; 'no' comes with a basis operator whose
    minimal polynomial has a non-real factor; both are sound for any
    algebra.  Every subspace containing c = [g, g] is an ideal, so the flag
    is searched inside c.  ad(e_i) maps g into c and kills e_i, so x times
    the minimal polynomial of its restriction A_i to c has the radical of
    its own: one spectrum per operator gives the witness and every
    eigenvalue the search tries on each c / I.  A rest that does not split
    over Q rules a rational flag out.  That and a failed search give
    'undetermined', the only outcome that needs solvability, read off the
    A_i by Cartan's criterion: g is solvable iff tr(ad x ad y) = 0 for x in
    g and y in c, and as ad x ad y maps g into c, that is tr(A_x (ad y on
    c)).  An algebra that is not solvable raises NotSolvable there.
    """
    n = g.dim
    comm = derived_subalgebra(g)
    m = comm.dim
    basis = comm._echelon.reduced_rows()  # (B, t): comm.basis[a] = B / t
    coordinates = _coordinates(n, basis)

    def on_comm(x):  # ad(x) restricted to c, in the coordinates of comm.basis
        cols = [coordinates(_sparse_bracket(g, x, B)) for B, _ in basis]
        return _from_int_columns(
            range(m), [(W, s * t) for (W, s), (_, t) in zip(cols, basis)], g.denominator)

    roots, split = {}, True  # each distinct A_i with its rational eigenvalues
    for i in range(n):
        a = on_comm({i: 1})
        if a not in roots:
            P, scale = integer_minimal_polynomial(a)
            quads, rest, real = rational_spectrum([0] + P, scale)
            if quads or not real:  # prefer a quadratic factor as the witness
                return FlagCertificate(status="no", witness=(
                    i + 1, Polynomial.from_scaled(quads[0] if quads else rest, scale)))
            roots[a] = [Fraction(-f[0], scale) for f in split_factors(rest, scale)[0]
                        if len(f) == 2]
            split = split and len(roots[a]) == len(rest) - 1
    ideal, lifts = Echelon(m), []  # the flag inside c, in c's coordinates
    while split and ideal.dim < m:
        reps = [t for t in range(m) if t not in ideal.pivots]
        induced = {}  # the distinct operators on c / ideal; 0 fixes every vector
        for a, lams in roots.items():
            cols = list(zip(*a.numerator_rows()))
            b = _from_int_columns(reps, [ideal.remainder(cols[t]) for t in reps], a.denominator)
            if not b.is_zero():
                induced.setdefault(b, lams)
        vec = _common_rational_eigenvector(list(induced.items()), len(reps))
        if vec is None:
            break
        lifts.append({reps[c]: x for c, x in vec.items()})
        ideal.add(lifts[-1])
    if ideal.dim < m:  # Cartan's criterion on every distinct A_i
        if any(sum((a * y)[t, t] for t in range(m))
               for y in (on_comm(B) for B, _ in basis) for a in roots):
            raise NotSolvable("flag search requires a solvable algebra")
        return FlagCertificate(status="undetermined")
    # in g, as int vectors: the columns of the integer matrix of comm.basis
    # times the lifts; basis vectors complete c, and every subspace
    # containing it is an ideal
    rows = _from_int_columns(range(n), basis, 1).numerator_rows()
    vectors = ([[sum(r[a] * x for a, x in vec.items()) for r in rows] for vec in lifts]
               + [{t: 1} for t in range(n) if t not in comm._echelon.pivots])
    return FlagCertificate(status="yes", chain=tuple(
        Subspace.span(n, vectors[:k]) for k in range(n + 1)))


def _is_ideal(g: LieAlgebra, n: Subspace) -> bool:
    """[g, n] lies in n, checked on the sparse brackets [e_i, w], w the
    integer rows spanning n."""
    ns = n._echelon.rows_from(0)
    return all(n.contains(_sparse_bracket(g, {i: 1}, w)) for i in range(g.dim) for w in ns)


def verify_nilpotent_complement(g: LieAlgebra, v: Subspace, n: Subspace) -> tuple:
    """Check the decomposition g = V (+) n used by the splitting machinery.

    Clauses, first failure raised as DecompositionInvalid:
      direct_sum          V and n are complementary subspaces
      ideal               [g, n] lies in n
      nilpotent           n with its induced bracket is nilpotent
      commutator          [g, g] lies in n
      semisimple_action   the semisimple part of each ad(A), A in V, kills V

    Returns the Jordan-Chevalley decompositions of ad(A), one per basis
    vector A of V.
    """
    if v.ambient_dim != g.dim or n.ambient_dim != g.dim:
        raise ValueError("subspace ambient dimension must equal dim")
    if v.dim + n.dim != g.dim or v.add(n).dim != g.dim:
        raise DecompositionInvalid("direct_sum",
                                   f"dims {v.dim} + {n.dim} do not compose {g.dim}")
    if not _is_ideal(g, n):
        raise DecompositionInvalid("ideal", "n is not an ideal")
    # n is an ideal: its lower central series, computed inside g (g's own when n = g)
    lower = (lower_central_series(g) if n.dim == g.dim
             else _descend([n], lambda s: bracket_subspaces(g, s, n)))
    if not lower[-1].is_zero():
        raise DecompositionInvalid("nilpotent", "n is not nilpotent")
    if not n.contains_subspace(derived_subalgebra(g)):
        raise DecompositionInvalid("commutator", "[g, g] is not contained in n")
    decs = tuple(jordan_chevalley(ad_matrix(g, a)) for a in v.basis)
    for dec in decs:
        for b in v.basis:
            if any(c != 0 for c in dec.semisimple.apply(b)):
                raise DecompositionInvalid(
                    "semisimple_action",
                    "semisimple part of ad(A) does not annihilate the complement")
    return decs
