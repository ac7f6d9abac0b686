"""Semisimple splitting, nilshadow and torus-kill modified brackets.

Given a verified decomposition g = V (+) n (n a nilpotent ideal containing
[g, g], the semisimple part of each ad(A), A in V, killing V), the modified
bracket

    [X, Y]' = [X, Y] - K(X)(Y) + K(Y)(X)

removes the action of the chosen torus part: with K(A_i) the full
semisimple part of ad(A_i) the result is the nilshadow (a nilpotent algebra
on the same space); with K(A_i) its imaginary-spectrum (compact) part the
result is a new solvable algebra whose V-adjoints have totally real
spectrum.  The splitting itself lives on V (+) g with bracket
[(A, X), (B, Y)] = (0, [X, Y] + S(A)(Y) - S(B)(X)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .decompositions import (
    compact_pieces,
    minimal_polynomial,
)
from .errors import CheckFailed, NonCommutingTorus, NotNilpotent
from .lie import (
    LieAlgebra,
    Subspace,
    ad_matrix,
    is_nilpotent,
    validate,
    verify_nilpotent_complement,
)
from .matrices import Matrix, basis_vector, inverse
from .polynomials import is_totally_real


class KillMode(enum.Enum):
    FULL = "full"
    COMPACT = "compact"
    SELECTED = "selected"


@dataclass(frozen=True)
class SplittingInput:
    """Algebra with a verified complement V and nilpotent ideal n.

    `jordan_parts` holds the Jordan-Chevalley decomposition of ad(A) for
    each basis vector A of V, computed once by the verification."""

    algebra: LieAlgebra
    complement: Subspace
    nilpotent_ideal: Subspace
    jordan_parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "jordan_parts", verify_nilpotent_complement(
            self.algebra, self.complement, self.nilpotent_ideal))

    def v_projection(self) -> Matrix:
        """Matrix of the projection onto V along n, in V-basis coordinates."""
        k = self.complement.dim
        n_g = self.algebra.dim
        if k == 0:
            return Matrix.zeros(0, n_g)
        basis = list(self.complement.basis) + list(self.nilpotent_ideal.basis)
        change = inverse(Matrix.from_columns(basis))
        return Matrix.from_rows([change.row(i) for i in range(k)])


@dataclass(frozen=True)
class KillMap:
    """One commuting operator per V basis vector, vanishing on V."""

    operators: tuple
    mode: KillMode


def _verify_kill_operators(operators, semisimple_parts, v_basis):
    """Commutation and V-annihilation checks shared by every kill mode."""
    for idx, k_i in enumerate(operators):
        for k_j in operators[idx + 1 :]:
            if k_i * k_j != k_j * k_i:
                raise NonCommutingTorus("kill operators do not commute")
        for s_j in semisimple_parts:
            if k_i * s_j != s_j * k_i:
                raise NonCommutingTorus(
                    "kill operator does not commute with a semisimple part")
        for a in v_basis:
            if any(c != 0 for c in k_i.apply(a)):
                raise NonCommutingTorus("kill operator does not annihilate V")


def compact_components(inp: SplittingInput):
    """Per V-basis vector: list of (quadratic factor, compact piece) blocks.

    The pieces are the restrictions of the compact part of ad(A_i)_s to the
    individual imaginary-spectrum primary components (`compact_pieces`);
    Selected mode picks a subset of them per operator.
    """
    return [compact_pieces(dec.semisimple, dec.semisimple_minpoly)
            for dec in inp.jordan_parts]


def kill_map(inp: SplittingInput, mode: KillMode = KillMode.FULL,
             selection: Optional[dict] = None) -> KillMap:
    """Build the torus-kill operators K_i from the decomposition.

    FULL uses the whole semisimple part of ad(A_i); COMPACT only its
    imaginary-spectrum summand, the sum of all of compact_components(inp)[i-1];
    SELECTED takes `selection` mapping the 1-based V index to indices into
    compact_components(inp)[i-1].
    """
    semis = [dec.semisimple for dec in inp.jordan_parts]
    if mode is KillMode.FULL:
        operators = list(semis)
    elif mode in (KillMode.COMPACT, KillMode.SELECTED):
        selection = selection or {}
        operators = []
        for i, per_op in enumerate(compact_components(inp), start=1):
            chosen = (range(len(per_op)) if mode is KillMode.COMPACT
                      else selection.get(i, ()))
            total = Matrix.zeros(inp.algebra.dim, inp.algebra.dim)
            for t in chosen:
                if not 0 <= t < len(per_op):
                    raise ValueError(
                        f"operator {i} has {len(per_op)} compact components, got index {t}")
                total = total + per_op[t][1]
            operators.append(total)
    else:
        raise ValueError(f"unknown kill mode {mode!r}")
    _verify_kill_operators(operators, semis, inp.complement.basis)
    return KillMap(operators=tuple(operators), mode=mode)


@dataclass(frozen=True)
class SplittingResult:
    """Output algebra with the kill map that produced it.

    `identification` embeds the coordinates of the input algebra into the
    output: the identity for same-space constructions, the second-block
    inclusion for the splitting on V (+) g.
    """

    output: LieAlgebra
    kill: KillMap
    identification: Matrix


def modified_bracket(inp: SplittingInput, kill: KillMap) -> SplittingResult:
    """New bracket [X,Y] - K(X)(Y) + K(Y)(X) on the vector space of g.

    FULL mode output is verified nilpotent (the nilshadow); COMPACT mode
    output is verified to have totally real V-adjoint spectra.
    """
    g = inp.algebra
    n = g.dim
    proj = inp.v_projection()
    k_of_basis = []
    for t in range(n):
        coords = proj.column(t) if kill.operators else ()
        total = Matrix.zeros(n, n)
        for c, op in zip(coords, kill.operators):
            if c != 0:
                total = total + c * op
        k_of_basis.append(total)
    brackets = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            terms = zip(g.bracket_basis(i, j), k_of_basis[i - 1].column(j - 1),
                        k_of_basis[j - 1].column(i - 1))
            brackets[(i, j)] = {t: z - ki + kj for t, (z, ki, kj) in enumerate(terms, start=1)}
    out = LieAlgebra(n, brackets)
    validate(out)  # a bad kill map surfaces here as a Jacobi violation
    if kill.mode is KillMode.FULL:
        if not is_nilpotent(out):
            raise NotNilpotent("full-mode output is not nilpotent; check V and n")
    if kill.mode is KillMode.COMPACT:
        for a in inp.complement.basis:
            p = minimal_polynomial(ad_matrix(out, a))
            if not is_totally_real(p):
                raise CheckFailed(
                    "compact kill left a non-real V-adjoint spectrum")
    return SplittingResult(output=out, kill=kill,
                           identification=Matrix.identity(n))


def nilshadow(inp: SplittingInput) -> SplittingResult:
    """The fully killed, nilpotent bracket on the underlying space of g."""
    return modified_bracket(inp, kill_map(inp, KillMode.FULL))


def malcev_splitting(inp: SplittingInput) -> SplittingResult:
    """Split algebra on V (+) g with the semisimple action glued in.

    Basis order: k copies of the V basis, then the dim(g) basis of g.  The
    embedded copy {(-X_V, X)} is checked to be an ideal whose induced
    bracket is exactly the nilshadow, which `modified_bracket` has checked
    nilpotent.
    """
    kill = kill_map(inp, KillMode.FULL)
    g = inp.algebra
    k = inp.complement.dim
    n = g.dim
    dim_out = k + n

    # V copies commute: S_i(A_j) = 0 by the verified decomposition
    brackets = {(i, k + j): dict(enumerate(kill.operators[i - 1].column(j - 1), start=k + 1))
                for i in range(1, k + 1) for j in range(1, n + 1)}
    for (p, q), coeffs in g.nonzero_brackets():
        brackets[(k + p, k + q)] = {k + t: c for t, c in coeffs.items()}
    out = LieAlgebra(dim_out, brackets)
    validate(out)

    shadow = modified_bracket(inp, kill)
    proj = inp.v_projection()
    w_basis = []
    for t in range(n):
        e = basis_vector(n, t)
        v_coords = proj.column(t) if k else ()
        w_basis.append(tuple(-c for c in v_coords) + e)
    w_space = Subspace(dim_out, w_basis)
    for t in range(dim_out):
        for w in w_basis:
            if not w_space.contains(out.bracket(basis_vector(dim_out, t), w)):
                raise NotNilpotent("embedded nilshadow copy is not an ideal")
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            inside = out.bracket(w_basis[p - 1], w_basis[q - 1])
            expected = shadow.output.bracket_basis(p, q)
            # w-coordinates of a vector in the embedded copy are its g-part
            if tuple(inside[k:]) != tuple(expected):
                raise NotNilpotent("embedded bracket does not match the nilshadow")

    identification = Matrix.from_columns(
        [basis_vector(dim_out, k + t) for t in range(n)]) if n else Matrix.zeros(k, 0)
    return SplittingResult(output=out, kill=kill, identification=identification)
