"""Exact rational matrices and Gaussian-elimination primitives.

All entries are ``fractions.Fraction``; nothing here ever rounds.  Matrices
are immutable so values can be shared freely between threads.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm

Vector = tuple  # tuple of Fraction, used informally throughout


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def basis_vector(n: int, i: int) -> Vector:
    """Standard basis vector with a 1 in 0-based position i."""
    return tuple(Fraction(1 if t == i else 0) for t in range(n))


def add_vectors(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def scale_vector(c, v: Vector) -> Vector:
    c = _frac(c)
    return tuple(c * a for a in v)


class Matrix:
    """Immutable rows x cols matrix of rationals, row-major storage."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(_frac(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def from_columns(cls, cols) -> "Matrix":
        cols = [list(c) for c in cols]
        if not cols:
            return cls(0, 0, ())
        return cls.from_rows(zip(*cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = list(values)
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return self._entries[j :: self.cols]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      (a + b for a, b in zip(self._entries, other._entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols,
                      (a - b for a, b in zip(self._entries, other._entries)))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            # accumulate rows, skipping zero entries: the complex matrices
            # this package produces are mostly sparse
            other_rows = [other.row(k) for k in range(other.rows)]
            zero = Fraction(0)
            out = []
            for i in range(self.rows):
                acc = [zero] * other.cols
                for k, a in enumerate(self.row(i)):
                    if a:
                        for j, b in enumerate(other_rows[k]):
                            if b:
                                acc[j] += a * b
                out.extend(acc)
            return Matrix(self.rows, other.cols, out)
        c = _frac(other)
        return Matrix(self.rows, self.cols, (c * a for a in self._entries))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power; use inverse() explicitly")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(self.row(i), v)) for i in range(self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      (self[i, j] for j in range(self.cols) for i in range(self.rows)))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        return self.is_square() and self == Matrix.identity(self.rows)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _echelon(width: int, rows) -> Echelon:
    """Echelon spanned by the given dense rows."""
    ech = Echelon(width)
    for row in rows:
        ech.add(row)
    return ech


def rank(m: Matrix) -> int:
    return _echelon(m.cols, map(m.row, range(m.rows))).dim


def rank_and_kernel(m: Matrix):
    """Exact rank and a basis of the right kernel.

    The kernel basis is the standard one read off the reduced echelon form:
    one vector per free column, with a 1 in the free position.
    """
    ech = _echelon(m.cols, map(m.row, range(m.rows)))
    return ech.dim, [ech._dense(v) for v in ech.kernel()]


def det(m: Matrix) -> Fraction:
    """Determinant: the product of the pivots divided out while the rows
    are inserted, signed by the permutation of the pivot columns."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    ech = Echelon(m.cols)
    result = Fraction(1)
    pivots = []
    for i in range(m.rows):
        added = ech.add(m.row(i))
        if added is None:
            return Fraction(0)
        p, lead = added
        result *= lead
        pivots.append(p)
    inversions = sum(a > b for t, a in enumerate(pivots) for b in pivots[t + 1 :])
    return -result if inversions % 2 else result


def inverse(m: Matrix) -> Matrix:
    """Exact inverse read off the reduced echelon form [I | m^-1] of
    [m | I]; raises ValueError when singular."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    ech = _echelon(2 * n, (m.row(i) + basis_vector(n, i) for i in range(n)))
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows([row[n:] for row in ech.rows])


def submatrix(m: Matrix, row_idx, col_idx) -> Matrix:
    return Matrix(len(row_idx), len(col_idx),
                  (m[i, j] for i in row_idx for j in col_idx))


def exterior_power(m: Matrix, k: int) -> Matrix:
    """k-th exterior power on the lexicographic wedge basis.

    Entry at (J, I) is the minor det m[J, I]; for k = 0 this is the 1x1
    identity.
    """
    if not m.is_square():
        raise ValueError("exterior power of a non-square matrix")
    n = m.rows
    if k < 0 or k > n:
        return Matrix.zeros(0, 0)
    if k == 0:
        return Matrix.identity(1)
    subsets = list(itertools.combinations(range(n), k))
    entries = []
    for J in subsets:
        for I in subsets:
            entries.append(det(submatrix(m, J, I)))
    size = comb(n, k)
    return Matrix(size, size, entries)


class Echelon:
    """Growable, fully reduced row echelon basis: the one Gauss-Jordan
    kernel behind every exact elimination in the package.

    A basis row is kept as a primitive integer row under its pivot column:
    a positive pivot entry and a sparse {column: int} tail, zero in the
    pivot columns of the other rows.  Divided by its pivot entry it is the
    row of the rational reduced row echelon form, so reducing a vector
    does not depend on the order of the pivots.  Vectors go in as dense
    tuples or sparse dicts of ints or Fractions; each is cleared of
    denominators once, eliminated fraction-free, and `Fraction`s appear
    only in what the methods return.  `reduce` returns the kind it was
    given.
    """

    def __init__(self, width: int):
        self.width = width
        self._piv = {}  # pivot column -> pivot entry, a positive int
        self._tails = {}  # pivot column -> row entries off the pivot, {column: int}

    @staticmethod
    def _subtract(target: dict, f: int, row: dict) -> None:
        """target -= f * row on sparse rows, dropping cancelled entries."""
        for c, x in row.items():
            y = target.get(c, 0) - f * x
            if y:
                target[c] = y
            else:
                del target[c]

    @staticmethod
    def _integral(v):
        """(V, s) with v = V / s: V the nonzero entries of the dense or
        sparse vector v as a {column: int} dict, s >= 1 their least common
        denominator.  Ints and integral Fractions pass through unscaled."""
        items = v.items() if isinstance(v, dict) else enumerate(v)
        V = {}
        fractional = []
        for c, x in items:
            if type(x) is not int:
                if not isinstance(x, Fraction):
                    x = Fraction(x)
                n = x.numerator
                if n and x.denominator != 1:
                    fractional.append((c, x))
                    continue
                x = n
            if x:
                V[c] = x
        if not fractional:
            return V, 1
        s = lcm(*[x.denominator for _, x in fractional])
        for c in V:
            V[c] *= s
        for c, x in fractional:
            V[c] = x.numerator * (s // x.denominator)
        return V, s

    def _reduce(self, v):
        """(V, s) with V / s the remainder of v modulo the span.

        With L the lcm of the pivot entries met, L * v less a multiple of
        each of those rows is integral and zero at every pivot."""
        V, s = self._integral(v)
        hits = [p for p in V if p in self._tails]
        if not hits:
            return V, s
        scale = lcm(*[self._piv[p] for p in hits])
        if scale != 1:
            V = {c: x * scale for c, x in V.items()}
            s *= scale
        for p in hits:
            f = V.pop(p)
            if scale != 1:
                f //= self._piv[p]
            self._subtract(V, f, self._tails[p])
        return V, s

    def _dense(self, v: dict) -> Vector:
        out = [Fraction(0)] * self.width
        for c, x in v.items():
            out[c] = x
        return tuple(out)

    def reduce(self, v):
        V, s = self._reduce(v)
        r = {c: Fraction(x, s) for c, x in V.items()}
        return r if isinstance(v, dict) else self._dense(r)

    def add(self, v):
        """Insert v.  When it enlarges the span, returns (pivot column,
        lead), where lead is the entry of the reduced v at the new pivot,
        the factor divided out of the new rational row; otherwise None."""
        V, s = self._reduce(v)
        if not V:
            return None
        p = min(V)
        lead = Fraction(V[p], s)
        g = gcd(*V.values())
        if V[p] < 0:
            g = -g
        if g != 1:
            V = {c: x // g for c, x in V.items()}
        piv = V.pop(p)
        # clear the new pivot column from the existing rows to stay fully
        # reduced: row <- piv * row - row[p] * v, then make it primitive
        for q, tail in self._tails.items():
            a = tail.pop(p, None)
            if a is None:
                continue
            piv_q = self._piv[q]
            if piv != 1:
                for c in tail:
                    tail[c] *= piv
                piv_q *= piv
            self._subtract(tail, a, V)
            if piv_q != 1:  # else both pivot entries were 1: nothing to divide
                g = gcd(piv_q, *tail.values())
                if g != 1:
                    for c in tail:
                        tail[c] //= g
                    piv_q //= g
                self._piv[q] = piv_q
        self._piv[p] = piv
        self._tails[p] = V
        return p, lead

    def copy(self) -> "Echelon":
        """An independent echelon with the same basis rows."""
        out = Echelon(self.width)
        out._piv = dict(self._piv)
        out._tails = {p: dict(tail) for p, tail in self._tails.items()}
        return out

    def contains(self, v) -> bool:
        return not self._reduce(v)[0]

    def kernel(self):
        """Sparse basis of the vectors orthogonal to every row, one per free
        column f in ascending order: 1 at f and -row[f] at each pivot."""
        kernel = {f: {f: Fraction(1)} for f in range(self.width) if f not in self._tails}
        for p, tail in self._tails.items():
            piv = self._piv[p]
            for f, x in tail.items():
                kernel[f][p] = Fraction(-x, piv)
        return list(kernel.values())

    @property
    def dim(self) -> int:
        return len(self._tails)

    @property
    def pivots(self):
        return sorted(self._tails)

    @property
    def rows(self):
        """Basis rows of the rational reduced form as dense tuples, ordered
        by pivot."""
        out = []
        for p in self.pivots:
            piv = self._piv[p]
            row = {c: Fraction(x, piv) for c, x in self._tails[p].items()}
            row[p] = Fraction(1)
            out.append(self._dense(row))
        return out
