"""Torus-kill modified brackets: the nilshadow and the compact kill.

Given a verified decomposition g = V (+) n (n a nilpotent ideal containing
[g, g], the semisimple part of each ad(A), A in V, killing V), the modified
bracket

    [X, Y]' = [X, Y] - K(X)(Y) + K(Y)(X)

removes the action of the chosen torus part: with K(A_i) the full
semisimple part of ad(A_i) the result is the nilshadow (a nilpotent algebra
on the same space); with K(A_i) its imaginary-spectrum (compact) part the
result is a new solvable algebra whose V-adjoints have totally real
spectrum, checked on the int form of their minimal polynomials; the
compact part is read off the int form that the Jordan-Chevalley step
kept.  Both live on the vector space of g, so the result is the
`LieAlgebra` itself.  The bracket is summed in ints, from the int rows of
the projection onto V and of the kill operators and from the int bracket
terms, over one common denominator, and built by the integer builder.
"""

from __future__ import annotations

import enum
from math import lcm
from typing import NamedTuple

from .decompositions import integer_compact_part, integer_minimal_polynomial
from .errors import CheckFailed, NonCommutingTorus, NotNilpotent
from .lie import (
    LieAlgebra,
    Subspace,
    ad_matrix,
    is_nilpotent,
    validate,
    verify_nilpotent_complement,
)
from .matrices import Matrix, inverse
from .polynomials import real_root_counter


class KillMode(enum.Enum):
    FULL = "full"
    COMPACT = "compact"


class SplittingInput:
    """Algebra with a verified complement V and nilpotent ideal n.

    `jordan_parts` holds the Jordan-Chevalley decomposition of ad(A) for
    each basis vector A of V, computed once by the verification."""

    def __init__(self, algebra: LieAlgebra, complement: Subspace, nilpotent_ideal: Subspace):
        vars(self).update(algebra=algebra, complement=complement, nilpotent_ideal=nilpotent_ideal,
                          jordan_parts=verify_nilpotent_complement(
                              algebra, complement, nilpotent_ideal))

    def __setattr__(self, name, value):
        raise AttributeError("SplittingInput is immutable")

    def v_projection(self) -> Matrix:
        """Matrix of the projection onto V along n, in V-basis coordinates."""
        k = self.complement.dim
        n_g = self.algebra.dim
        if k == 0:
            return Matrix.zeros(0, n_g)
        basis = list(self.complement.basis) + list(self.nilpotent_ideal.basis)
        change = inverse(Matrix.from_columns(basis))
        return Matrix.from_numerators(k, n_g, [x for row in change.numerator_rows()[:k]
                                               for x in row], change.denominator)


class KillMap(NamedTuple):
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


def kill_map(inp: SplittingInput, mode: KillMode = KillMode.FULL) -> KillMap:
    """Build the torus-kill operators K_i from the decomposition.

    FULL uses the whole semisimple part of ad(A_i); COMPACT only its
    imaginary-spectrum summand (`integer_compact_part`).
    """
    semis = [dec.semisimple for dec in inp.jordan_parts]
    if mode is KillMode.FULL:
        operators = semis
    else:
        operators = [integer_compact_part(dec.semisimple, *dec.minpoly_form)
                     for dec in inp.jordan_parts]
    _verify_kill_operators(operators, semis, inp.complement.basis)
    return KillMap(operators=tuple(operators), mode=mode)


def modified_bracket(inp: SplittingInput, kill: KillMap) -> LieAlgebra:
    """New bracket [X,Y] - K(X)(Y) + K(Y)(X) on the vector space of g.

    FULL mode output is verified nilpotent (the nilshadow); COMPACT mode
    output is verified to have totally real V-adjoint spectra.
    """
    g = inp.algebra
    n = g.dim
    # K(e_t) = sum_c P[c, t] K_c, with P = v_projection() as int rows over
    # its denominator and every K_c as ints over the lcm L of theirs: KD
    # K(e_t) is an int matrix, KD = denominator(P) * L
    proj = inp.v_projection()
    L = lcm(*[op.denominator for op in kill.operators])
    kill_columns = []  # per operator, the columns of L * K_c as int lists
    for op in kill.operators:
        f = L // op.denominator
        kill_columns.append([[f * x for x in col] for col in zip(*op.numerator_rows())])
    weights = proj.numerator_rows()
    KD = proj.denominator * L
    E = lcm(g.denominator, KD)  # the common denominator of the output
    fg, fk = E // g.denominator, E // KD

    def killed(t, j):  # KD * K(e_t)(e_j)
        acc = [0] * n
        for row, columns in zip(weights, kill_columns):
            if row[t]:
                for r, y in enumerate(columns[j]):
                    acc[r] += row[t] * y
        return acc

    table = dict(g.integer_brackets())
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = {k: fg * x for k, x in table.get((i + 1, j + 1), ())}
            for r, (ki, kj) in enumerate(zip(killed(i, j), killed(j, i)), start=1):
                if ki != kj:
                    coeffs[r] = coeffs.get(r, 0) + fk * (kj - ki)
            brackets[(i + 1, j + 1)] = coeffs
    out = LieAlgebra.from_integer_brackets(n, brackets, E)
    validate(out)  # a bad kill map surfaces here as a Jacobi violation
    if kill.mode is KillMode.FULL:
        if not is_nilpotent(out):
            raise NotNilpotent("full-mode output is not nilpotent; check V and n")
    else:
        for a in inp.complement.basis:
            s, count = real_root_counter(integer_minimal_polynomial(ad_matrix(out, a))[0])
            if count() != len(s) - 1:
                raise CheckFailed(
                    "compact kill left a non-real V-adjoint spectrum")
    return out


def nilshadow(inp: SplittingInput) -> LieAlgebra:
    """The fully killed, nilpotent bracket on the underlying space of g."""
    return modified_bracket(inp, kill_map(inp, KillMode.FULL))
