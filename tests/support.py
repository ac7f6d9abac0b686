"""Shared helpers for the test suite: independent oracles and random
generators for algebras and matrices.

The oracles deliberately avoid the library code paths they check:
rank via brute-force minors with Laplace determinants, differentials via
the alternating-sum evaluation formula, ranks for the Betti oracle via
sympy, the reference cohomology (Betti numbers and representatives) from
the alternating-sum differentials on a Fraction Gauss-Jordan of its own,
and brackets, adjoints and series on a dense sympy model of the structure
constants.  `sympy_columns` and `apply_columns` read the library's sparse
differential columns for comparison with them; `sympy_poly` hands a
polynomial to sympy's root finding.  The package computes on int
coefficient lists and its `Polynomial` does no arithmetic, so `Poly` adds
the ring operations the tests plant polynomials with, and `ints` hands a
planted polynomial to the int-list functions.
"""

from __future__ import annotations

import importlib
import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm

import sympy

from solvco.lie import LieAlgebra
from solvco.matrices import Matrix, clear_denominators
from solvco.polynomials import Polynomial


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def laplace_det(rows):
    """Cofactor-expansion determinant over Fraction, independent of elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[t] for t in range(n) if t != j] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def minor_rank(m: Matrix) -> int:
    """Largest k with a nonzero k x k minor."""
    rows = [m.row(i) for i in range(m.rows)]
    best = 0
    for k in range(1, min(m.rows, m.cols) + 1):
        found = False
        for ridx in itertools.combinations(range(m.rows), k):
            for cidx in itertools.combinations(range(m.cols), k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                if laplace_det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def oracle_differential(g: LieAlgebra, k: int):
    """Matrix of d on degree-k forms by evaluating the alternating-sum formula

        (d w)(x_0, ..., x_k) = sum_{p<q} (-1)^{p+q} w([x_p, x_q], ..no p, q..)

    on basis wedges, as sympy rationals.  Completely separate from the
    antiderivation expansion in the library.
    """
    n = g.dim
    source = list(itertools.combinations(range(1, n + 1), k))
    target = list(itertools.combinations(range(1, n + 1), k + 1))

    def eval_basis_form(idx, arg_indices, bracket_vec, slot):
        # w = e^idx evaluated on basis vectors arg_indices with the vector
        # bracket_vec substituted in position slot; returns a Fraction
        total = Fraction(0)
        for m_idx, coeff in enumerate(bracket_vec, start=1):
            if coeff == 0:
                continue
            args = list(arg_indices)
            args[slot] = m_idx
            if len(set(args)) != len(args):
                continue
            perm_sign = 1
            order = sorted(range(len(args)), key=lambda t: args[t])
            sorted_args = tuple(args[t] for t in order)
            if sorted_args != idx:
                continue
            # parity of the sorting permutation
            seen = [False] * len(order)
            for start in range(len(order)):
                if seen[start]:
                    continue
                length = 0
                t = start
                while not seen[t]:
                    seen[t] = True
                    t = order[t]
                    length += 1
                if length % 2 == 0:
                    perm_sign = -perm_sign
            total += coeff * perm_sign
        return total

    mat = sympy.zeros(len(target), len(source))
    for col, idx in enumerate(source):
        for row, jdx in enumerate(target):
            value = Fraction(0)
            for p in range(k + 1):
                for q in range(p + 1, k + 1):
                    bracket = g.bracket_basis(jdx[p], jdx[q])
                    remaining = [jdx[t] for t in range(k + 1) if t not in (p, q)]
                    args = [0] + remaining
                    value += ((-1) ** (p + q)) * eval_basis_form(
                        idx, args, bracket, 0)
            mat[row, col] = sympy.Rational(value.numerator, value.denominator)
    return mat


def oracle_betti(g: LieAlgebra):
    """Betti numbers via the oracle differentials and sympy ranks."""
    n = g.dim
    mats = [oracle_differential(g, k) for k in range(n + 1)]
    betti = []
    prev_rank = 0
    for k in range(n + 1):
        r = mats[k].rank()
        kernel_dim = mats[k].cols - r
        betti.append(kernel_dim - prev_rank)
        prev_rank = r
    return tuple(betti)


class GaussJordan:
    """Fully reduced row echelon basis over Fraction, on dense lists: a
    reference for the library's integer `Echelon`, sharing no code with it."""

    def __init__(self, width):
        self.width = width
        self.rows = {}  # pivot column -> dense row with a 1 at the pivot

    def reduce(self, v):
        v = [Fraction(x) for x in v]
        for p, row in self.rows.items():
            if v[p]:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def add(self, v):
        v = self.reduce(v)
        p = next((c for c, x in enumerate(v) if x), None)
        if p is None:
            return False
        v = [x / v[p] for x in v]
        for q, row in self.rows.items():
            if row[p]:
                self.rows[q] = [a - row[p] * b for a, b in zip(row, v)]
        self.rows[p] = v
        return True

    def kernel(self):
        """One vector per free column f: 1 at f and -row[f] at each pivot."""
        out = []
        for f in range(self.width):
            if f not in self.rows:
                vec = [Fraction(0)] * self.width
                vec[f] = Fraction(1)
                for p, row in self.rows.items():
                    vec[p] = -row[f]
                out.append(vec)
        return out


def _fractions(entries):
    return [Fraction(int(x.p), int(x.q)) for x in entries]


def sympy_columns(columns, rows: int):
    """The rows x len(columns) sympy matrix of sparse {row: Fraction} columns."""
    return sympy.Matrix(rows, len(columns), lambda t, s: sympy.Rational(
        str(columns[s].get(t, 0))))


def sympy_poly(p):
    """A library `Polynomial` as a sympy Poly in x, for the root oracles."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], sympy.Symbol("x"))


class Poly(Polynomial):
    """A `Polynomial` with exact ring arithmetic, to write planted
    polynomials as expressions in `Poly.x()`."""

    __slots__ = ()

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @staticmethod
    def lift(p) -> "Poly":
        return Poly(p.coeffs if isinstance(p, Polynomial) else (p,))

    def __add__(self, other):
        a, b = self.coeffs, self.lift(other).coeffs
        n = max(len(a), len(b))
        return Poly(x + y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -self.lift(other)

    def __mul__(self, other):
        b = self.lift(other).coeffs
        out = [Fraction(0)] * max(0, len(self.coeffs) + len(b) - 1)
        for i, x in enumerate(self.coeffs):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __rmul__ = __mul__

    def monic(self) -> "Poly":
        return Poly(c / self.coeffs[-1] for c in self.coeffs) if self.coeffs else self


def ints(p) -> list:
    """The primitive int coefficient list that is a positive multiple of
    the nonzero polynomial p: the same roots, and the same signs."""
    V, _ = clear_denominators(p.coeffs)
    g = gcd(*V.values())
    return [V.get(i, 0) // g for i in range(len(p.coeffs))]


def int_form(p) -> tuple:
    """(P, D): the nonzero polynomial p made monic, as the monic int list P
    at scale D, D the lcm of the denominators of its monic coefficients,
    so that p is a multiple of D^(-deg) P(D x)."""
    monic = [Fraction(c) / p.coeffs[-1] for c in p.coeffs]
    scale, deg = lcm(*(c.denominator for c in monic)), len(monic) - 1
    return [int(c * scale ** (deg - i)) for i, c in enumerate(monic)], scale


def apply_columns(columns, vec):
    """Nonzero entries {row: Fraction} of the matrix with the given sparse
    columns applied to vec, a dense vector or a sparse {column: x} dict."""
    out = {}
    for s, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
        for t, y in columns[s].items():
            out[t] = out.get(t, 0) + x * y
    return {t: y for t, y in out.items() if y}


def densify(vec, width):
    """The sparse {index: Fraction} vector vec as a dense Fraction tuple."""
    out = [Fraction(0)] * width
    for t, x in vec.items():
        out[t] = x
    return tuple(out)


def dense_representatives(res, n):
    """The sparse representatives of a cohomology result on an
    n-dimensional algebra, densified degree by degree for comparison with
    `dense_cohomology`."""
    return tuple(tuple(densify(vec, comb(n, k)) for vec in reps)
                 for k, reps in enumerate(res.representatives))


def dense_cohomology(g: LieAlgebra, max_degree=None):
    """(Betti numbers, representatives) by the dense algorithm on the
    alternating-sum differentials of `oracle_differential`, over Fraction on
    `GaussJordan`: the kernel basis of each dense d[k] read off its reduced
    row echelon form, each vector reduced against a boundary echelon built
    afresh from the columns of d[k-1] and the cocycles chosen before it."""
    top = g.dim if max_degree is None else min(max_degree, g.dim)
    mats = [oracle_differential(g, k) for k in range(top + 1)]
    betti, reps, prev_rank = [], [], 0
    for k, d in enumerate(mats):
        rows = GaussJordan(d.cols)
        for i in range(d.rows):
            rows.add(_fractions(d.row(i)))
        kernel = rows.kernel()
        betti.append(len(kernel) - prev_rank)
        boundary = GaussJordan(d.cols)
        if k > 0:
            for j in range(mats[k - 1].cols):
                boundary.add(_fractions(mats[k - 1].col(j)))
        chosen = []
        for vec in kernel:
            reduced = boundary.reduce(vec)
            if any(reduced):
                lead = next(x for x in reduced if x)
                normal = tuple(x / lead for x in reduced)
                boundary.add(normal)
                chosen.append(normal)
        reps.append(tuple(chosen))
        prev_rank = len(rows.rows)
    return tuple(betti), tuple(reps)


def dense_jacobi_violation(g: LieAlgebra):
    """First Jacobi-violating triple with its residual, from dense brackets
    of basis vectors built on bracket_basis (not the sparse bracket terms)."""
    n = g.dim

    def bracket(x, y):
        out = [Fraction(0)] * n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if x[i - 1] and y[j - 1] and i != j:
                    for t, c in enumerate(g.bracket_basis(i, j)):
                        out[t] += x[i - 1] * y[j - 1] * c
        return tuple(out)

    def e(i):
        return tuple(Fraction(int(t == i - 1)) for t in range(n))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                terms = (bracket(bracket(e(a), e(b)), e(c))
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
                res = tuple(sum(col, Fraction(0)) for col in zip(*terms))
                if any(res):
                    return (i, j, k), res
    return None


class SympyLie:
    """Dense sympy model of a Lie algebra, a reference for the library's
    sparse bracket kernel: brackets, adjoints and series are built here from
    the structure constants c[k][i][j] alone (`structure_constant`, which
    reads the stored i < j table, not the sparse terms), summed over every
    index triple, with nothing from `solvco.matrices`."""

    def __init__(self, g: LieAlgebra):
        n = self.dim = g.dim
        self.c = [[[sympy.Rational(str(g.structure_constant(k, i, j)))
                    for j in range(1, n + 1)] for i in range(1, n + 1)]
                  for k in range(1, n + 1)]

    @staticmethod
    def _vec(x):
        return [sympy.Rational(str(v)) for v in x]

    def unit(self, i):
        return [sympy.Integer(int(t == i)) for t in range(self.dim)]

    def bracket(self, x, y):
        x, y, n, c = self._vec(x), self._vec(y), self.dim, self.c
        return [sum((x[i] * y[j] * c[k][i][j] for i in range(n) for j in range(n)),
                    sympy.Integer(0)) for k in range(n)]

    def ad(self, x):
        x, n = self._vec(x), self.dim
        return sympy.Matrix(n, n, lambda k, j: sum(
            (x[i] * self.c[k][i][j] for i in range(n)), sympy.Integer(0)))

    def is_unimodular(self):
        return all(self.ad(self.unit(i)).trace() == 0 for i in range(self.dim))

    def span(self, vectors):
        """Nonzero rows of sympy's rref of the vectors, as Fraction tuples."""
        vectors = [self._vec(v) for v in vectors]
        if not vectors:
            return ()
        m = sympy.Matrix(vectors).rref()[0]
        return tuple(tuple(Fraction(int(v.p), int(v.q)) for v in m.row(r))
                     for r in range(m.rows) if any(m.row(r)))

    def contains(self, basis, w):
        return len(self.span(list(basis) + [w])) == len(basis)

    def bracket_span(self, a, b):
        return self.span([self.bracket(u, v) for u in a for v in b])

    def derived_series(self):
        series = [self.span([self.unit(i) for i in range(self.dim)])]
        while True:
            nxt = self.bracket_span(series[-1], series[-1])
            if len(nxt) == len(series[-1]):
                return series
            series.append(nxt)

    def lower_central_series(self, ideal=None):
        """n >= [n, n] >= [[n, n], n] >= ... for n the span of the vectors
        ideal, an ideal of g (g itself when None)."""
        top = self.span([self.unit(i) for i in range(self.dim)] if ideal is None else ideal)
        series = [top]
        while True:
            nxt = self.bracket_span(series[-1], top)
            if len(nxt) == len(series[-1]):
                return series
            series.append(nxt)


def weight_zero_calls(monkeypatch):
    """A list that records the algebra of every call from then on that
    takes the weight-zero path of the cohomology layer."""
    path = importlib.import_module("solvco._weight_zero")
    calls, original = [], path.weight_zero_betti

    def spy(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(path, "weight_zero_betti", spy)
    return calls


def complex_builds(monkeypatch):
    """A list that records the algebra of every complex the cohomology
    layer builds from then on: each `sparse_differentials` call."""
    cohomology = importlib.import_module("solvco.cohomology")
    builds, original = [], cohomology.sparse_differentials

    def spy(g, max_degree=None):
        builds.append(g)
        return original(g, max_degree)

    monkeypatch.setattr(cohomology, "sparse_differentials", spy)
    return builds


def full_bracket_passes(monkeypatch):
    """A list that records the algebra g of every [g, g] pass from then
    on: each call `bracket_subspaces(g, a, b)` of the Lie layer with a and
    b both all of g.  Work, not calls: a series read from its memo makes
    no pass."""
    from solvco import lie

    passes, original = [], lie.bracket_subspaces

    def spy(g, a, b):
        if a.dim == b.dim == g.dim:
            passes.append(g)
        return original(g, a, b)

    monkeypatch.setattr(lie, "bracket_subspaces", spy)
    return passes


# ---------------------------------------------------------------------------
# random generators (all driven by a caller-provided random.Random)
# ---------------------------------------------------------------------------

def rand_fraction(rng, span=3, denominators=(1, 1, 1, 2)):
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def rand_matrix(rng, n, span=3):
    return Matrix(n, n, [rand_fraction(rng, span) for _ in range(n * n)])


def rand_unimodular(rng, n, ops=None):
    """Product of random elementary integer row operations; det is +-1."""
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(ops if ops is not None else 2 * n + 2):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return Matrix.from_rows(rows)


def rand_invertible_rational(rng, n):
    """Unimodular core with random nonzero rational column scalings."""
    u = rand_unimodular(rng, n)
    scales = [Fraction(rng.choice((1, 2, 3, -1)), rng.choice((1, 2)))
              for _ in range(n)]
    return u * Matrix.diagonal(scales)


def rand_large_rational(rng, n):
    """Invertible matrix with large entries: unimodular factors around a
    diagonal of rationals with ~20-bit odd numerators over denominators up
    to 10^6, so conjugating by it gives 40+-bit structure constants over
    large, mostly coprime denominators."""
    scales = [Fraction(rng.randrange(2**19, 2**20) | 1, rng.randrange(1, 10**6))
              for _ in range(n)]
    return rand_unimodular(rng, n) * Matrix.diagonal(scales) * rand_unimodular(rng, n)


def rand_derivation_algebra(rng, dim, span=2):
    """R x| R^(dim-1) for a random small derivation; always a Lie algebra."""
    n = dim - 1
    brackets = {}
    for j in range(1, n + 1):
        brackets[(1, 1 + j)] = {1 + k: rng.randint(-span, span) for k in range(1, n + 1)}
    return LieAlgebra(dim, brackets)


def oscillator4() -> LieAlgebra:
    """Rotation acting on a 3-dim Heisenberg: a solvable, non-abelian-nilradical case."""
    return LieAlgebra(
        4, {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {4: 1}})


def filiform(n) -> LieAlgebra:
    """The filiform algebra L_n: [e1, e_i] = e_(i+1) for 2 <= i < n."""
    return LieAlgebra(n, {(1, i): {i + 1: 1} for i in range(2, n)})


def heisenberg(k) -> LieAlgebra:
    """The Heisenberg algebra of dimension 2k + 1: [e_i, e_(k+i)] = e_(2k+1)."""
    return LieAlgebra(2 * k + 1, {(i, k + i): {2 * k + 1: 1} for i in range(1, k + 1)})


def base_algebras():
    """Small valid algebras the randomized suites conjugate and perturb."""
    from solvco.catalog import catalog_get

    names = ["abelian2", "abelian3", "abelian4", "heisenberg3", "sol3",
             "rot3", "hyperelliptic4"]
    algebras = [catalog_get(name).algebra for name in names]
    algebras.append(oscillator4())
    algebras.append(LieAlgebra(
        5, {(1, 2): {2: 1}, (1, 3): {3: -1}, (1, 4): {5: 1}, (1, 5): {4: -1}}))
    return algebras


def rand_valid_algebra(rng, max_dim=5):
    """Random valid Lie algebra of dimension <= max_dim in a random basis."""
    if rng.random() < 0.5:
        g = rng.choice([a for a in base_algebras() if a.dim <= max_dim])
    else:
        g = rand_derivation_algebra(rng, rng.randint(2, max_dim))
    from solvco.lie import conjugate

    return conjugate(g, rand_unimodular(rng, g.dim))


def perturb_tensor(rng, g: LieAlgebra) -> LieAlgebra:
    """Change one structure constant; usually breaks Jacobi."""
    n = g.dim
    brackets = dict(g.nonzero_brackets())
    i = rng.randint(1, n - 1)
    j = rng.randint(i + 1, n)
    k = rng.randint(1, n)
    coeffs = brackets.setdefault((i, j), {})
    coeffs[k] = coeffs.get(k, 0) + rng.choice((1, 2, -1))
    return LieAlgebra(n, brackets)


def rotation_block(a, b):
    return Matrix.from_rows([[a, b], [-b, a]])


def companion(poly_coeffs):
    """Companion matrix of a monic polynomial given low-to-high with lead 1."""
    coeffs = [Fraction(c) for c in poly_coeffs]
    if coeffs[-1] != 1:
        raise ValueError("companion matrix of a polynomial that is not monic")
    n = len(coeffs) - 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i in range(n):
        rows[i][n - 1] = -coeffs[i]
    return Matrix.from_rows(rows)


def block_diag(*blocks):
    n = sum(b.rows for b in blocks)
    rows = [[Fraction(0)] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                rows[offset + i][offset + j] = b[i, j]
        offset += b.rows
    return Matrix.from_rows(rows)


def rand_semisimple(rng, n):
    """Conjugated block-diagonal semisimple matrix of size n.

    Blocks: rational scalars, rotation-type pairs (complex spectrum), and
    real-quadratic companions; all split/compact-decomposable.
    """
    blocks = []
    size = 0
    used_scalars = set()
    while size < n:
        room = n - size
        choice = rng.randrange(3) if room >= 2 else 0
        if choice == 0:
            while True:
                c = Fraction(rng.randint(-4, 4))
                if c not in used_scalars:
                    used_scalars.add(c)
                    break
            blocks.append(Matrix.from_rows([[c]]))
            size += 1
        elif choice == 1:
            a = Fraction(rng.randint(-2, 2))
            b = Fraction(rng.randint(1, 3))
            blocks.append(rotation_block(a, b))
            size += 2
        else:
            # x^2 - px - q with positive non-square discriminant: real surds
            p, q = rng.choice(((1, 1), (3, -1), (0, 3), (1, 3)))
            blocks.append(companion((-q, -p, 1)))
            size += 2
    u = rand_unimodular(rng, n)
    from solvco.matrices import inverse

    return u * block_diag(*blocks) * inverse(u)


# ---------------------------------------------------------------------------
# solvable algebras with a known spectrum of ad x
# ---------------------------------------------------------------------------
#
# An eigenvalue is written in the Q-basis (1, i, sqrt 3, sqrt 13), linearly
# independent over Q, so a sum of eigenvalues is zero exactly when each
# coordinate sum is.

SPECTRAL_BLOCKS = {
    # name: (companion coefficients, low to high, eigenvalues)
    "one": ((-1, 1), [(1, 0, 0, 0)]),
    "minus1": ((1, 1), [(-1, 0, 0, 0)]),
    "minus4": ((4, 1), [(-4, 0, 0, 0)]),
    "i": ((1, 0, 1), [(0, 1, 0, 0), (0, -1, 0, 0)]),          # x^2 + 1
    "2i": ((4, 0, 1), [(0, 2, 0, 0), (0, -2, 0, 0)]),         # x^2 + 4
    "sqrt3": ((-3, 0, 1), [(0, 0, 1, 0), (0, 0, -1, 0)]),     # x^2 - 3
    "1+i": ((2, -2, 1), [(1, 1, 0, 0), (1, -1, 0, 0)]),       # x^2 - 2x + 2
    "-1+2i": ((5, 2, 1), [(-1, 2, 0, 0), (-1, -2, 0, 0)]),    # x^2 + 2x + 5
    "(1+sqrt13)/2": ((-3, -1, 1), [(Fraction(1, 2), 0, 0, Fraction(1, 2)),
                                   (Fraction(1, 2), 0, 0, Fraction(-1, 2))]),  # x^2 - x - 3
    # x^3 - 2: one real root and a non-real pair, none in the Q-basis above
    "cubic": ((-2, 0, 0, 1), None),
    # (x - 1)^2: a Jordan block, so ad x is not semisimple
    "jordan1": ((1, -2, 1), None),
}
DENSE14_BLOCKS = ("one", "i", "2i", "sqrt3", "1+i", "-1+2i", "(1+sqrt13)/2")


def zero_sum_betti(eigenvalues):
    """Betti numbers of R x| R^n for a semisimple derivation with the given
    eigenvalues, from the zero sums of its k-subsets z_k (the weight-zero
    k-forms on R^n): b_k = z_k + z_(k-1)."""
    n = len(eigenvalues)
    zero = (0,) * len(eigenvalues[0])
    layers = [{zero: 1}] + [{} for _ in eigenvalues]
    for e in eigenvalues:
        for k in range(n, 0, -1):
            for total, count in layers[k - 1].items():
                t = tuple(a + b for a, b in zip(total, e))
                layers[k][t] = layers[k].get(t, 0) + count
    z = [layer.get(zero, 0) for layer in layers]
    return tuple((z[k] if k <= n else 0) + (z[k - 1] if k else 0) for k in range(n + 2))


def spectral_semidirect(rng, names):
    """(R x| R^n, eigenvalues of its derivation): the companion blocks of
    the names in SPECTRAL_BLOCKS, conjugated by a random unimodular matrix,
    with the algebra then put in a random rational basis."""
    from solvco.almost_abelian import almost_abelian_algebra
    from solvco.lie import conjugate
    from solvco.matrices import inverse

    blocks = [companion(SPECTRAL_BLOCKS[name][0]) for name in names]
    u = rand_unimodular(rng, sum(b.rows for b in blocks))
    g = almost_abelian_algebra(u * block_diag(*blocks) * inverse(u))
    return (conjugate(g, rand_invertible_rational(rng, g.dim)),
            [e for name in names for e in SPECTRAL_BLOCKS[name][1] or ()])


def spectral_oscillator(rng, name):
    """R x| h_3, h_3 = span(a, b, c) with [a, b] = c, for the derivation
    that is the 2 x 2 companion block of the name in SPECTRAL_BLOCKS, in a
    random unimodular basis, on span(a, b) and its trace on c: a solvable
    algebra whose forms of weight 0 need not be cocycles."""
    from solvco.matrices import inverse

    u = rand_unimodular(rng, 2)
    a = u * companion(SPECTRAL_BLOCKS[name][0]) * inverse(u)
    brackets = {(1, j + 2): {k + 2: a[k, j] for k in range(2) if a[k, j]} for j in range(2)}
    brackets[(1, 4)] = {4: a[0, 0] + a[1, 1]}
    brackets[(2, 3)] = {4: 1}
    return LieAlgebra(4, {ij: row for ij, row in brackets.items() if row})


def dense14():
    """(dense14, its Betti numbers): R x| R^13 with the blocks scalar 1,
    rot(0, 1), rot(0, 2), quad(0, 3), rot(1, 1), rot(-1, 2) and
    quad(1, 3), in a random rational basis; 16,384 forms, 160 of weight 0."""
    g, eigenvalues = spectral_semidirect(random.Random("dense14"), DENSE14_BLOCKS)
    return g, zero_sum_betti(eigenvalues)
