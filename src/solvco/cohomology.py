"""Cohomology of the complex of alternating forms on a Lie algebra.

The differential on degree-one generators is
    d e^k = - sum over i < j of c[k][i][j] e^i ^ e^j
and extends to higher degrees as an antiderivation.  Wedge monomials are
indexed by strictly increasing multi-indices in lexicographic order, which
fixes a basis of each exterior power and makes every matrix, kernel and
representative choice deterministic.  The differentials are built on the
bitmasks of these multi-indices: a sign is the parity of a masked bit
count, and a target form's index is one dict lookup of its mask.

The complex is kept in Python ints: with D the least common denominator of
the structure constants (`LieAlgebra.denominator`), the sparse columns are
those of the integer differentials D * d[k].  Scaling by D changes no rank,
kernel or image and keeps d∘d = 0 exact, so the d∘d check, the Betti
numbers and the representatives run on ints; `Fraction`s are built only for
the nonzero coefficients of the representative cocycles returned, which
stay sparse.

The rank pass inserts each degree's columns sparsest first.  The order of
insertion changes neither the span, nor the pivot set, nor any remainder
modulo the span, so Betti numbers and representatives do not depend on it;
it changes only the fill-in, and with it the cost.

Most forms need not be built at all for a solvable, non-nilpotent g.
For x in g, Cartan's formula L_x = d i_x + i_x d (Chevalley-Eilenberg,
1948) shows that the Lie derivative L_x on forms commutes with d and acts
as 0 on cohomology.  On a generalised eigenspace of L_x with an
eigenvalue c != 0, L_x is invertible and null-homotopic, so that
subcomplex is acyclic (the mechanism of Hattori, 1960), and H*(g) = H*(F)
with F the generalised 0-eigenspace: F = ker L_s, s the semisimple part of
ad x, as L_s is the semisimple part of L_x.  On a product of powers of
the primary components of s, L_s has the weights sums of eigenvalues of
s, so `cohomology` of such g of dimension at least _WEIGHT_MIN_DIM, with
no degree cut (a cut at or above dim g is none), ranks d on F alone: x
is the first standard vector outside [g, g] whose ad is not nilpotent; s
and its components come from the Krylov chains of ad x, and the factors
of the chains' annihilators that a capped `split_factors` finds
(rational roots, quadratics of either discriminant sign) give each
component its weights, all other factors sharing one unfactored block;
one change of basis puts g in those components; a
multi-degree with no weight 0 is skipped, one with only the weight 0 is
kept whole, and the rest are cut by an int kernel of L_s (all in
`solvco._weight_zero`, which the first call to take the path imports, so
a command that never takes it does not compile it).  d o d = 0 is
checked on F, and the multi-degrees visited and the forms they hold are
bounded by 2^DEFAULT_DIM_BOUND instead of the forms of the full complex,
so a dense g of dimension 14 with a small F passes.  Representatives and
a degree cut use the full complex in the given basis; the structural
report reads solvability, nilpotency and [g, g] off the series that
`lie` keeps with g.  Mean ms over 10 seeded algebras per dim and family
(each the best of 5 runs, of 1 at dims 11-12; 2-vCPU VM), to the Betti
numbers from the full complex in the given basis and from F (called
directly below dim 8), measured by a script outside the repository that
times `_rank(build_complex(g))` and `weight_zero_betti(g)` on fresh
copies of the same algebras; dense is R x| R^(d-1), D from
`tests/support.rand_semisimple` in a `rand_invertible_rational` basis,
sparse R x| R^5 with D a block sum of the same kinds, unconjugated,
(+) R^(d-6):

    dim              5     6     7     8     9    10    11    12
    dense   full   0.34  0.70  1.76  6.55  14.1  58.6  89.0  2580
            weight 1.14  0.96  1.21  1.64  1.87  2.47  3.04  5.40
    sparse  full                     0.95  1.95  3.70  10.2  12.6
            weight                   0.96  1.07  1.52  2.94  2.05
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import CheckFailed, DimensionTooLarge, JacobiViolation
from .lie import (
    LieAlgebra,
    derived_subalgebra,
    is_nilpotent,
    is_solvable,
    is_unimodular,
    validate,
)
from .matrices import Echelon, wedge_positions

DEFAULT_DIM_BOUND = 12
_WEIGHT_MIN_DIM = 8  # 2^8 forms: the weight-zero subcomplex pays for itself from here


@functools.lru_cache(maxsize=None)
def multi_indices(n: int, k: int):
    """Strictly increasing k-tuples from 1..n, lexicographically ordered."""
    return tuple(itertools.combinations(range(1, n + 1), k))


def _generator_terms(g: LieAlgebra):
    """D d on the generators, D = g.denominator: D d e^gen = - sum D
    c[gen][a][b] e^{ab}, as (bit of gen, terms) pairs in ascending bit, each
    term (mask of {a, b}, mask of the indices strictly between a and b,
    -D c), D c the int term of the bracket table."""
    terms = {}
    for (a, b), row in g.integer_brackets():
        ab, between = (1 << (a - 1)) | (1 << (b - 1)), (1 << (b - 1)) - (1 << a)
        for gen, c in row:
            terms.setdefault(1 << (gen - 1), []).append((ab, between, -c))
    return sorted(terms.items())


def _d_of_mask(generator_terms, mask: int, target=None) -> dict:
    """D d e_I as {target mask: int}, I the indices of mask, or keyed by
    target[mask] when a {mask: index} target is given: on a basis form,
    d e_I = sum over positions p of (-1)^p e_{i_1} ^ ... ^ d e_{i_p} ^ ...
    ^ e_{i_k}.  A term e^a ^ e^b (a < b) of d e_{i_p}, sorted into the
    remaining indices R, lands on the basis form R + {a, b} with the sign
    (-1)^(p + #R below a + #R below b) = (-1)^(p + #R between a and b)."""
    col = {}
    for bit, gen_terms in generator_terms:
        if not mask & bit:
            continue
        rest = mask ^ bit
        p = (mask & (bit - 1)).bit_count()
        for ab, between, c in gen_terms:
            if rest & ab:
                continue
            t = rest | ab if target is None else target[rest | ab]
            x = col.get(t, 0) + (-c if (p + (rest & between).bit_count()) & 1 else c)
            if x:
                col[t] = x
            else:
                del col[t]
    return col


def sparse_differentials(g: LieAlgebra, max_degree: Optional[int] = None):
    """D * d[k] for k up to max_degree (all degrees when None), D =
    g.denominator, as sparse integer columns: entry s of degree k is D
    times d of the s-th degree-k basis form, as a {target index: int} dict
    of its nonzero coefficients.  No validation; build_complex is the
    checked entry point.  A basis form e_I is keyed by its bitmask, bit
    i - 1 for each i in I, and `wedge_positions` maps a mask to its index.
    """
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be non-negative, got {max_degree}")
    n = g.dim
    terms = _generator_terms(g)
    top = n if max_degree is None else min(max_degree, n)
    out = []
    for k in range(top + 1):
        target = wedge_positions(n, k + 1)
        out.append(tuple(_d_of_mask(terms, mask, target) for mask in wedge_positions(n, k)))
    return out


def _transpose(columns, rows: int):
    """Sparse rows {source index: entry} of a matrix given by sparse columns."""
    out = [{} for _ in range(rows)]
    for s, col in enumerate(columns):
        for t, x in col.items():
            out[t][s] = x
    return out


def check_square_zero(columns) -> None:
    """Raise JacobiViolation unless d[k+1] d[k] = 0 exactly for every pair
    of consecutive sparse differentials; on the integer columns D * d[k],
    (D d[k+1])(D d[k]) = D^2 d[k+1] d[k] vanishes exactly when d∘d does."""
    for k in range(len(columns) - 1):
        nxt = columns[k + 1]
        for col in columns[k]:
            acc = {}
            for t, x in col.items():
                for u, y in nxt[t].items():
                    acc[u] = acc.get(u, 0) + x * y
            if any(acc.values()):
                raise JacobiViolation((0, 0, 0), f"d o d != 0 in degree {k}")


def build_complex(g: LieAlgebra, max_degree: Optional[int] = None) -> tuple:
    """The sparse integer columns of D * d[k], as sparse_differentials
    returns them, for k up to max_degree (every degree without a cut), with
    d∘d = 0 checked exactly.

    The complex through max_degree has the basis forms of degrees up to
    max_degree + 1, 2^dim of them without a cut.  More than
    2^DEFAULT_DIM_BOUND forms are rejected, with or without a cut.  The
    Jacobi identity of g is d∘d = 0 on 1-forms, which only a complex
    through degree 2 sees: a cut below degree 2 builds a complex for any
    bracket.  `parse_structure_file` checks the Jacobi identity of every
    algebra it reads.  A nonzero d∘d raises the JacobiViolation of
    `validate`, with its triple; d∘d is a derivation, zero on every form
    once it is on 1-forms, so when g satisfies Jacobi the differentials
    are at fault and CheckFailed is raised.
    """
    top = g.dim if max_degree is None else min(max_degree + 1, g.dim)
    forms = sum(comb(g.dim, k) for k in range(top + 1))
    if forms > 2**DEFAULT_DIM_BOUND:
        raise DimensionTooLarge(
            f"dimension {g.dim} exceeds bound {DEFAULT_DIM_BOUND}; use a degree cut-off"
            if max_degree is None else f"degree cut-off {max_degree} at dimension {g.dim}"
            f" builds {forms} forms, more than 2^{DEFAULT_DIM_BOUND} = {2**DEFAULT_DIM_BOUND}")
    columns = sparse_differentials(g, max_degree)
    try:
        check_square_zero(columns)
    except JacobiViolation as exc:
        validate(g)
        raise CheckFailed(f"{exc.residual} although the Jacobi identity holds") from exc
    return tuple(columns)


@dataclass(frozen=True)
class CohomologyResult:
    """Betti numbers per degree and, from `representatives`, a tuple per
    degree of sparse {basis index: Fraction} cocycles (None from
    `cohomology`)."""

    betti: tuple
    representatives: Optional[tuple] = field(default=None, hash=False)


def _rank(n: int, columns):
    """(Betti numbers, image echelon of each d[k]) of the complex of an
    n-dimensional algebra, or of a subcomplex: b_k = dim C^k - rank d[k] -
    rank d[k-1], with each rank the dimension of the echelon spanned by the
    sparse integer columns of D * d[k] (keyed by target index, or by
    target mask on the weight-zero subcomplex), inserted in ascending order
    of their nonzero counts (sparsest first, ties in basis order), which
    keeps the fill-in of the echelon small."""
    images = []
    for k, cols in enumerate(columns):
        image = Echelon(comb(n, k + 1))
        for col in sorted(cols, key=len):
            image.add(col)
        images.append(image)
    betti = tuple(len(cols) - images[k].dim - (images[k - 1].dim if k else 0)
                  for k, cols in enumerate(columns))
    return betti, images


@dataclass(frozen=True)
class StructuralReport:
    """Consistency diagnostics tying Betti numbers to algebra structure."""

    unimodular: bool
    duality_holds: bool
    euler_characteristic: int
    b1: int
    b1_expected: int
    solvable: bool
    nilpotent: bool
    b1_bound: int  # b1 >= b1_bound; 0 when no bound applies

    def lines(self):
        out = [
            f"unimodular {str(self.unimodular).lower()}",
            f"duality {'holds' if self.duality_holds else 'violated'}",
            f"euler {self.euler_characteristic}",
            f"b1 {self.b1} (dim - dim[g,g] = {self.b1_expected})",
        ]
        if self.solvable:
            out.append(f"b1-bound >= {self.b1_bound} ok")
        return out


def structural_checks(res: CohomologyResult, g: LieAlgebra) -> StructuralReport:
    """Duality vs unimodularity, Euler characteristic, and first Betti bounds.

    Only meaningful for a full complex (betti lists all degrees 0..dim).
    Solvability, nilpotency and [g, g] are read off g's series.  Each of
    these is a theorem, and CheckFailed is raised when the Betti numbers
    break one: Poincare duality holds exactly when g is unimodular; the
    Euler characteristic is 0 for dim g >= 1; b1 >= 1 for solvable g != 0,
    b1 >= 2 for nilpotent g of dimension at least 2; and b1 = dim g - dim
    [g, g], which also cross-checks a change of basis.
    """
    n = g.dim
    betti = res.betti
    if len(betti) != n + 1:
        raise ValueError("structural checks require the full complex")
    uni = is_unimodular(g)
    duality = all(betti[k] == betti[n - k] for k in range(n + 1))
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    solv, nilp = is_solvable(g), is_nilpotent(g)
    b1 = betti[1] if n >= 1 else 0
    b1_expected = n - derived_subalgebra(g).dim
    # g/[g, g] is nonzero for solvable g != 0, and at least 2-dimensional
    # for nilpotent g of dimension >= 2
    bound = min(n, 2 if nilp else 1) if solv else 0
    if duality != uni:
        raise CheckFailed(f"Poincare duality {'holds' if duality else 'fails'} "
                          f"but g is {'' if uni else 'not '}unimodular")
    if n >= 1 and euler != 0:
        raise CheckFailed(f"Euler characteristic {euler} != 0")
    if b1 < bound:
        raise CheckFailed(f"b1 = {b1} below the bound {bound}")
    if b1 != b1_expected:
        raise CheckFailed(f"b1 = {b1} but dim g - dim [g, g] = {b1_expected}")
    return StructuralReport(
        unimodular=uni,
        duality_holds=duality,
        euler_characteristic=euler,
        b1=b1,
        b1_expected=b1_expected,
        solvable=solv,
        nilpotent=nilp,
        b1_bound=bound,
    )


def cohomology(g: LieAlgebra, max_degree: Optional[int] = None) -> CohomologyResult:
    """Betti numbers through max_degree, with no representatives: all
    degrees of a solvable, non-nilpotent g of dimension at least
    _WEIGHT_MIN_DIM from the weight-zero subcomplex, every other case from
    the full complex in the given basis.  A cut at or above dim g cuts
    nothing and is no cut."""
    if max_degree is not None and max_degree >= g.dim:
        max_degree = None
    if (max_degree is None and g.dim >= _WEIGHT_MIN_DIM
            and is_solvable(g) and not is_nilpotent(g)):
        from ._weight_zero import weight_zero_betti  # compiled by the first call only

        return CohomologyResult(weight_zero_betti(g))
    return CohomologyResult(_rank(g.dim, build_complex(g, max_degree))[0])


def representatives(g: LieAlgebra, max_degree: Optional[int] = None) -> CohomologyResult:
    """Betti numbers and representative cocycles through max_degree, from
    one complex in the given basis.  Per degree, a tuple of cocycles
    spanning a complement of the boundaries, each a sparse {basis index:
    Fraction} dict of its nonzero coefficients in ascending index order:
    the kernel basis of d[k] read off its reduced row echelon form, each
    reduced against the boundaries and the cocycles chosen before it,
    normalised to lead 1 and kept when nonzero.

    One echelon per degree, a copy of the boundary echelon, reduces each
    integer kernel vector: a nonzero remainder is zero at every pivot, so
    already reduced; it joins the echelon, and over its lead it is the
    cocycle; the rank pass's echelons are left as they are.  Their stored
    rows depend on the order the columns came in, but what is read from
    them does not: the kernel basis comes from the reduced form, and a
    remainder is the unique element of v + span zero at every pivot, so
    the output is reproducible."""
    columns = build_complex(g, max_degree)
    betti, images = _rank(g.dim, columns)
    reps = []
    for k, cols in enumerate(columns):
        width = len(cols)
        rows = Echelon(width)
        for row in _transpose(cols, comb(g.dim, k + 1)):
            rows.add(row)
        spanned = images[k - 1].copy() if k else Echelon(width)
        out = []
        for vec in rows.kernel():
            V, _ = spanned.remainder(vec)
            if V:
                spanned.add(V)
                lead = V[min(V)]
                out.append({c: Fraction(V[c], lead) for c in sorted(V)})
        reps.append(tuple(out))
    return CohomologyResult(betti, tuple(reps))


def format_multi_index(idx) -> str:
    """e13-style label; indices above 9 are comma-separated for clarity."""
    if not idx:
        return "1"
    if all(i <= 9 for i in idx):
        return "e" + "".join(str(i) for i in idx)
    return "e" + ",".join(str(i) for i in idx)


def format_cocycle(vec, n: int, k: int) -> str:
    """`a1*e{I1} + a2*e{I2} + ...` with rational coefficients, for a sparse
    degree-k cocycle on an n-dimensional algebra, a {basis index:
    coefficient} dict as `representatives` returns them; only its nonzero
    terms are written, in ascending index order, and "0" when there are
    none."""
    idxs = multi_indices(n, k)
    return " + ".join(f"{c}*{format_multi_index(idxs[t])}"
                      for t, c in sorted(vec.items()) if c) or "0"
