"""Built-in catalog of small solvable Lie algebras.

Each entry records the algebra, its classification, and a suggested
complement/nilpotent-ideal decomposition; everything is re-verified the
first time the entry is requested.  Names:

    abelianN        abelian of dimension N (abelian1 .. abelian12)
    heisenberg3     [e1,e2] = e3
    sol3            de2 = e12, de3 = -e13; the mapping torus of a hyperbolic
                    integer matrix such as [[2,1],[1,1]], basis rescaled so
                    the weights are -1 and +1
    rot3            de2 = e13, de3 = -e12; circle action on the plane with
                    the rotation speed 2*pi absorbed into e1 (cohomology
                    dimensions are invariant under that rescaling)
    hyperelliptic4  de1 = e24, de2 = -e14
    nakamura        six-dimensional complex mapping torus, split diagonal
                    action e^z, e^{-z}
    nakamura_tilde  the compact-kill modification of nakamura; constants
                    derived once via the modified bracket and cross-checked
                    against the left-invariant forms of the split matrix
                    model with diagonal e^x, then frozen here
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import CheckFailed, UnknownName
from .lie import (
    LieAlgebra,
    Subspace,
    completely_solvable_flag,
    is_nilpotent,
    is_solvable,
    validate,
    verify_nilpotent_complement,
)

NILPOTENT = "nilpotent"
COMPLETELY_SOLVABLE = "completely solvable"
SOLVABLE = "solvable"  # solvable but not completely solvable

_MAX_ABELIAN = 12


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    classification: str
    complement: Subspace
    nilpotent_ideal: Subspace
    notes: str = ""


def _heisenberg3() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(1, 2): {3: 1}})


def _sol3() -> LieAlgebra:
    # weights -1, +1 on the abelian ideal span{e2, e3}
    return LieAlgebra.from_brackets(3, {(1, 2): {2: -1}, (1, 3): {3: 1}})


def _rot3() -> LieAlgebra:
    # de2 = e13, de3 = -e12  =>  [e1,e2] = e3, [e1,e3] = -e2
    return LieAlgebra.from_brackets(3, {(1, 2): {3: 1}, (1, 3): {2: -1}})


def _hyperelliptic4() -> LieAlgebra:
    # de1 = e24, de2 = -e14  =>  [e2,e4] = -e1, [e1,e4] = e2
    return LieAlgebra.from_brackets(4, {(2, 4): {1: -1}, (1, 4): {2: 1}})


def _nakamura() -> LieAlgebra:
    # de3 = -e13 + e24, de4 = -e14 - e23, de5 = e15 - e26, de6 = e16 + e25
    return LieAlgebra.from_brackets(
        6,
        {
            (1, 3): {3: 1},
            (1, 4): {4: 1},
            (1, 5): {5: -1},
            (1, 6): {6: -1},
            (2, 3): {4: 1},
            (2, 4): {3: -1},
            (2, 5): {6: -1},
            (2, 6): {5: 1},
        },
    )


def _nakamura_tilde() -> LieAlgebra:
    # de3 = -e13, de4 = -e14, de5 = e15, de6 = e16
    return LieAlgebra.from_brackets(
        6,
        {
            (1, 3): {3: 1},
            (1, 4): {4: 1},
            (1, 5): {5: -1},
            (1, 6): {6: -1},
        },
    )


def _entry_specs():
    return {
        "heisenberg3": (
            _heisenberg3, NILPOTENT, (), (1, 2, 3), ""),
        "sol3": (
            _sol3, COMPLETELY_SOLVABLE, (1,), (2, 3),
            "mapping torus of [[2,1],[1,1]]; eigenbasis rescaled to weights -1, +1"),
        "rot3": (
            _rot3, SOLVABLE, (1,), (2, 3),
            "rotation speed 2*pi absorbed into e1; Betti numbers are invariant "
            "under rescaling a basis vector"),
        "hyperelliptic4": (
            _hyperelliptic4, SOLVABLE, (4,), (1, 2, 3), ""),
        "nakamura": (
            _nakamura, SOLVABLE, (1, 2), (3, 4, 5, 6), ""),
        "nakamura_tilde": (
            _nakamura_tilde, COMPLETELY_SOLVABLE, (1, 2), (3, 4, 5, 6),
            "compact-kill modification of nakamura; derived via the modified "
            "bracket and cross-checked against the diagonal e^x matrix model, "
            "then frozen"),
    }


def catalog_names():
    """All fixed entry names plus the abelianN family, sorted."""
    fixed = sorted(_entry_specs())
    return [f"abelian{n}" for n in range(1, _MAX_ABELIAN + 1)] + fixed


_cache: dict = {}


def catalog_get(name: str) -> CatalogEntry:
    """Entry by name; classification and decomposition re-verified on first load."""
    if name in _cache:
        return _cache[name]
    abelian = re.fullmatch(r"abelian([1-9]\d*)", name)
    if abelian:
        dim = int(abelian.group(1))
        if dim > _MAX_ABELIAN:
            raise UnknownName(f"abelian catalog entries stop at dimension {_MAX_ABELIAN}")
        entry = CatalogEntry(
            name=name,
            algebra=LieAlgebra.abelian(dim),
            classification=NILPOTENT,
            complement=Subspace.zero(dim),
            nilpotent_ideal=Subspace.full(dim),
        )
    else:
        specs = _entry_specs()
        if name not in specs:
            raise UnknownName(f"no catalog entry named {name!r}")
        build, classification, v_idx, n_idx, notes = specs[name]
        algebra = build()
        entry = CatalogEntry(
            name=name,
            algebra=algebra,
            classification=classification,
            complement=Subspace.standard(algebra.dim, v_idx),
            nilpotent_ideal=Subspace.standard(algebra.dim, n_idx),
            notes=notes,
        )
    _verify_entry(entry)
    _cache[name] = entry
    return entry


def _verify_entry(entry: CatalogEntry) -> None:
    g = entry.algebra
    validate(g)
    nilp = is_nilpotent(g)
    solv = is_solvable(g)
    if entry.classification == NILPOTENT:
        ok = nilp
    elif entry.classification == COMPLETELY_SOLVABLE:
        ok = solv and not nilp and completely_solvable_flag(g).status == "yes"
    else:
        ok = solv and completely_solvable_flag(g).status == "no"
    if not ok:
        raise CheckFailed(
            f"catalog entry {entry.name} fails its declared classification")
    verify_nilpotent_complement(g, entry.complement, entry.nilpotent_ideal)
