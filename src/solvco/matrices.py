"""Exact rational matrices and Gaussian-elimination primitives.

Nothing here ever rounds.  `Matrix` and `Echelon` compute in Python ints
and build `Fraction`s only for what a caller reads; a float entry raises
TypeError.  Every elimination runs in an `Echelon`, which hands out int
rows only (a remainder, a kernel basis, the stored and the reduced rows).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from math import gcd, lcm

Vector = tuple  # tuple of Fraction, used informally throughout


def rational(x) -> Fraction:
    """x as a Fraction, the one conversion of given entries; a float raises
    TypeError, since its binary value is seldom the rational meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"float {x!r} is not exact; pass an int, Fraction or string")
    return Fraction(x)


def clear_denominators(v):
    """(V, s) with v = V / s: V the nonzero entries of the dense or
    sparse vector v as a {column: int} dict, s >= 1 their least common
    denominator, so s and the entries of V have no common factor.  Ints
    and integral Fractions pass through unscaled."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    V = {}
    dens = {}  # column -> denominator, for the entries that are not integral
    for c, x in items:
        if type(x) is not int:
            x, d = (x if type(x) is Fraction else rational(x)).as_integer_ratio()
            if d != 1:
                dens[c] = d
        if x:
            V[c] = x
    if not dens:
        return V, 1
    s = lcm(*dens.values())
    for c in V:
        V[c] *= s // dens.get(c, 1)
    return V, s


def basis_vector(n: int, i: int) -> Vector:
    """Standard basis vector with a 1 in 0-based position i."""
    return tuple(Fraction(1 if t == i else 0) for t in range(n))


class Matrix:
    """Immutable rows x cols matrix of rationals: row-major int numerators
    `_num` over one denominator `_den` > 0 in lowest terms, so equal
    matrices have equal storage and `==` and `hash` are rational equality.
    Arithmetic runs on the ints and reduces each result once; `m[i, j]`,
    `row`, `column` and `apply` build Fractions, `denominator` and
    `numerator_rows` hand the integer matrix D * m to the integer kernels,
    and `from_numerators` builds a matrix from such ints.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        V, den = clear_denominators(entries)  # in lowest terms already
        num = [0] * len(entries)
        for c, x in V.items():
            num[c] = x
        self._set(rows, cols, tuple(num), den)

    def _set(self, rows, cols, num, den):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @classmethod
    def from_numerators(cls, rows: int, cols: int, num, den: int) -> "Matrix":
        """The matrix num / den, num the rows * cols row-major int
        numerators over one int denominator den > 0, brought to lowest
        terms; no entry is converted."""
        if den <= 0 or len(num) != rows * cols:
            raise ValueError(f"expected {rows * cols} numerators over a positive denominator")
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        m = cls.__new__(cls)
        m._set(rows, cols, tuple(num), den)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return Matrix.from_numerators, (self.rows, self.cols, self._num, self._den)

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
        num = [0] * (n * n)
        num[:: n + 1] = [1] * n
        return cls.from_numerators(n, n, num, 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.from_numerators(rows, cols, [0] * (rows * cols), 1)

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = list(values)
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])

    @property
    def denominator(self) -> int:
        """The least D > 0 with D * m integral."""
        return self._den

    def numerator_rows(self):
        """Rows of the integer matrix D * m, D = `denominator`, as int tuples."""
        num, c = self._num, self.cols
        return [num[i * c : (i + 1) * c] for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self._num[i * self.cols + j], self._den)

    def row(self, i: int) -> Vector:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num[i * self.cols : (i + 1) * self.cols])

    def column(self, j: int) -> Vector:
        den = self._den
        return tuple(Fraction(x, den) for x in self._num[j :: self.cols])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, self._num))

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        self._check_same_shape(other)
        den = lcm(self._den, other._den)
        f, g = den // self._den, sign * (den // other._den)
        return Matrix.from_numerators(
            self.rows, self.cols, [f * a + g * b for a, b in zip(self._num, other._num)], den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matrix product")
            # accumulate rows, skipping zero entries: the matrices this
            # package produces are mostly sparse
            other_rows = [[(j, b) for j, b in enumerate(r) if b]
                          for r in other.numerator_rows()]
            out = []
            for r in self.numerator_rows():
                acc = [0] * other.cols
                for k, a in enumerate(r):
                    if a:
                        for j, b in other_rows[k]:
                            acc[j] += a * b
                out.extend(acc)
            return Matrix.from_numerators(self.rows, other.cols, out, self._den * other._den)
        c = other if type(other) is int else rational(other)
        return Matrix.from_numerators(self.rows, self.cols, [c.numerator * a for a in self._num],
                                      self._den * c.denominator)

    __rmul__ = __mul__

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
        V, s = clear_denominators(v)
        den = self._den * s
        return tuple(Fraction(sum(r[c] * x for c, x in V.items()), den)
                     for r in self.numerator_rows())

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_identity(self) -> bool:
        n, num = self.rows, self._num  # n ones on the diagonal, no other entry
        return (self.cols == n and self._den == 1
                and num[:: n + 1].count(1) == n == sum(map(abs, num)))

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
    return _echelon(m.cols, m.numerator_rows()).dim


def inverse(m: Matrix) -> Matrix:
    """Exact inverse: with M = D * m integral, the reduced echelon form of
    [M | I] is [I | M^-1], and m^-1 = D * M^-1; raises ValueError when m is
    singular.  Row p of M^-1 is the int tail of the reduced row at p over
    its pivot entry, and m^-1 is built over their lcm."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    ech = _echelon(2 * n, (row + (0,) * i + (1,) + (0,) * (n - 1 - i)
                           for i, row in enumerate(m.numerator_rows())))
    if ech.pivots != list(range(n)):
        raise ValueError("matrix is singular")
    rows = [ech._reduced(p) for p in range(n)]
    den = lcm(*[a for a, _ in rows])
    return Matrix.from_numerators(n, n, [tail.get(n + j, 0) * (den // a) * m.denominator
                                         for a, tail in rows for j in range(n)], den)


@functools.lru_cache(maxsize=None)
def wedge_positions(n: int, k: int):
    """{bitmask: index} of the k-subsets of range(n) in lexicographic order,
    the subset S keyed by the sum of 1 << i over i in S; iterating the dict
    gives the masks in that order."""
    return {sum(1 << i for i in idx): t
            for t, idx in enumerate(itertools.combinations(range(n), k))}


def exterior_power(m: Matrix, k: int) -> Matrix:
    """k-th exterior power on the lexicographic wedge basis.

    Entry at (J, I) is the minor det m[J, I]; for k = 0 this is the 1x1
    identity.  With M = D * m integral, the nonzero j-minors of M are built
    from the (j-1)-minors by Laplace expansion along the first row r of J:
    det M[J, I] = sum over c in I of (-1)^(#I below c) M[r, c]
    det M[J - r, I - c], one product per nonzero M[r, c] and nonzero
    (j-1)-minor of the rows J - r; then det m[J, I] = det M[J, I] / D^k.
    """
    if not m.is_square():
        raise ValueError("exterior power of a non-square matrix")
    n = m.rows
    if k < 0 or k > n:
        return Matrix.zeros(0, 0)
    rows = [[(1 << c, x) for c, x in enumerate(r) if x] for r in m.numerator_rows()]
    minors = {0: {0: 1}}  # row mask J -> {column mask I: det M[J, I]}, nonzero only
    for j in range(1, k + 1):
        nxt = {}
        for J in wedge_positions(n, j):
            first = J & -J
            acc = {}
            for bit, x in rows[first.bit_length() - 1]:
                for I, y in minors[J ^ first].items():
                    if not I & bit:
                        key = I | bit
                        acc[key] = acc.get(key, 0) + (
                            -x * y if (I & (bit - 1)).bit_count() & 1 else x * y)
            nxt[J] = {I: z for I, z in acc.items() if z}
        minors = nxt
    pos = wedge_positions(n, k)
    size = len(pos)
    num = [0] * (size * size)
    for J, row in minors.items():
        at = pos[J] * size
        for I, z in row.items():
            num[at + pos[I]] = z
    return Matrix.from_numerators(size, size, num, m.denominator**k)


class Echelon:
    """Growable row echelon basis: the one elimination kernel behind every
    exact elimination in the package.

    A basis row is kept as a primitive integer row under its pivot column:
    a positive pivot entry and a sparse {column: int} tail, zero before the
    pivot but not cleared at the other pivots, so inserting a row never
    touches the rows already stored.  Reducing a vector clears the pivots
    in ascending order and leaves the unique element of v + span that is
    zero at every pivot, whatever order the rows came in; the rows of the
    reduced row echelon form are computed only when read (`reduced_rows`,
    `kernel`).  Vectors go in as dense tuples or sparse dicts of ints or
    Fractions; each is cleared of denominators once and eliminated
    fraction-free.  `remainder`, `kernel`, `rows_from` and `reduced_rows`
    hand out int rows, and no `Fraction` is built.
    """

    def __init__(self, width: int):
        self.width = width
        self._piv = {}  # pivot column -> pivot entry, a positive int
        self._tails = {}  # pivot column -> row entries after the pivot, {column: int}

    def remainder(self, v):
        """(V, s): the remainder of v modulo the span as V / s, V a sparse
        {column: int} dict and s >= 1 an int.

        Pivots p are cleared in ascending order, fraction-free: with a the
        entry of row p at p, f = V[p] and g = gcd(a, f), V <- (a/g) V -
        (f/g) row and s <- (a/g) s.  A row is zero before its pivot, so it
        can fill in only later pivot columns, which join the heap."""
        V, s = clear_denominators(v)
        piv, tails = self._piv, self._tails
        heap = [p for p in V if p in piv]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)
            f = V.pop(p, 0)
            if not f:  # cancelled since it was pushed
                continue
            a = piv[p]
            if a != 1:
                g = gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    for c in V:
                        V[c] *= a
                    s *= a
            for c, x in tails[p].items():
                y = V.get(c)
                if y is None:
                    V[c] = -f * x
                    if c in piv:
                        heapq.heappush(heap, c)
                else:
                    y -= f * x
                    if y:
                        V[c] = y
                    else:
                        del V[c]
        return V, s

    def _reduced(self, p: int):
        """(a, tail): the basis row with pivot column p in reduced form, zero
        at every other pivot, as a primitive integer row with entry a > 0 at
        p.  Its tail reduced modulo the span meets only rows below p."""
        V, s = self.remainder(self._tails[p])
        a = s * self._piv[p]
        g = gcd(a, *V.values())
        if g != 1:
            V = {c: x // g for c, x in V.items()}
        return a // g, V

    def add(self, v):
        """Insert v.  Returns the new pivot column when v enlarges the span,
        otherwise None.  The new row is zero at every pivot, so it is
        reduced."""
        V, s = self.remainder(v)
        if not V:
            return None
        p = min(V)
        g = gcd(*V.values())
        if V[p] < 0:
            g = -g
        if g != 1:
            V = {c: x // g for c, x in V.items()}
        self._piv[p] = V.pop(p)
        self._tails[p] = V
        return p

    def copy(self) -> "Echelon":
        """An independent echelon with the same basis rows."""
        out = Echelon(self.width)
        out._piv = dict(self._piv)
        out._tails = {p: dict(tail) for p, tail in self._tails.items()}
        return out

    def contains(self, v) -> bool:
        return not self.remainder(v)[0]

    def kernel(self):
        """Sparse integer basis of the vectors orthogonal to every row, one
        per free column f in ascending order: the rational vector with 1 at
        f and -row[f] at each pivot, row the reduced form, times the lcm
        L > 0 of the pivot entries of the reduced rows that meet f, so L
        at f."""
        meets = {f: [] for f in range(self.width) if f not in self._tails}
        for p in self._tails:
            a, tail = self._reduced(p)
            for f, x in tail.items():
                meets[f].append((p, a, x))
        out = []
        for f, terms in meets.items():
            scale = lcm(*[a for _, a, _ in terms])
            vec = {f: scale}
            for p, a, x in terms:
                vec[p] = -x * (scale // a)
            out.append(vec)
        return out

    @property
    def dim(self) -> int:
        return len(self._tails)

    @property
    def pivots(self):
        return sorted(self._tails)

    def rows_from(self, start: int):
        """Basis rows with pivot at least start, ordered by pivot, as
        sparse integer rows shifted left by start: in echelon form they
        span the vectors of the span that are zero before column start."""
        return [{c - start: x for c, x in ((p, self._piv[p]), *self._tails[p].items())}
                for p in self.pivots if p >= start]

    def reduced_rows(self):
        """The reduced rows, ordered by pivot, as (R, a) pairs, R / a: R a
        primitive sparse int row with a > 0 at its pivot."""
        return [({p: a, **tail}, a) for p in self.pivots for a, tail in [self._reduced(p)]]
