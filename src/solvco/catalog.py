"""Built-in catalog of small solvable Lie algebras.

Each entry is the structure-file text that `solvco catalog NAME` prints,
its classification, and a suggested complement/nilpotent-ideal
decomposition.  The text goes through `parse_structure_file`, like any
input file, and the classification and decomposition are re-verified the
first time the entry is requested.  Names:

    abelianN        abelian of dimension N (abelian1 .. abelian12)
    heisenberg3     the three-dimensional Heisenberg algebra
    sol3            mapping torus of a hyperbolic integer matrix
    rot3            circle action on the plane
    hyperelliptic4  hyperelliptic surface: e4 rotates the plane of e1, e2
    nakamura        six-dimensional complex mapping torus, action e^z, e^{-z}
    nakamura_tilde  compact-kill modification of nakamura

The notes printed with an entry say how it was rescaled or derived.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import CheckFailed, UnknownName
from .files import parse_structure_file
from .lie import (
    LieAlgebra,
    Subspace,
    completely_solvable_flag,
    is_nilpotent,
    is_solvable,
    verify_nilpotent_complement,
)

NILPOTENT = "nilpotent"
COMPLETELY_SOLVABLE = "completely solvable"
SOLVABLE = "solvable"  # solvable but not completely solvable

_MAX_ABELIAN = 12


class CatalogEntry(NamedTuple):
    name: str
    algebra: LieAlgebra
    classification: str
    complement: Subspace
    nilpotent_ideal: Subspace
    notes: str = ""


# name -> (structure file, classification, complement V and nilpotent ideal
# n as 1-based basis indices, notes)
_ENTRIES = {
    "heisenberg3": ("dim 3\nd e3 = -1 e1^e2\n", NILPOTENT, (), (1, 2, 3), ""),
    "sol3": (
        "dim 3\nd e2 = 1 e1^e2\nd e3 = -1 e1^e3\n", COMPLETELY_SOLVABLE, (1,), (2, 3),
        "mapping torus of [[2,1],[1,1]]; eigenbasis rescaled to weights -1, +1"),
    "rot3": (
        "dim 3\nd e2 = 1 e1^e3\nd e3 = -1 e1^e2\n", SOLVABLE, (1,), (2, 3),
        "rotation speed 2*pi absorbed into e1; Betti numbers are invariant "
        "under rescaling a basis vector"),
    "hyperelliptic4": (
        "dim 4\nd e1 = 1 e2^e4\nd e2 = -1 e1^e4\n", SOLVABLE, (4,), (1, 2, 3), ""),
    "nakamura": (
        "dim 6\n"
        "d e3 = -1 e1^e3 + 1 e2^e4\n"
        "d e4 = -1 e1^e4 - 1 e2^e3\n"
        "d e5 = 1 e1^e5 - 1 e2^e6\n"
        "d e6 = 1 e1^e6 + 1 e2^e5\n",
        SOLVABLE, (1, 2), (3, 4, 5, 6), ""),
    "nakamura_tilde": (
        "dim 6\nd e3 = -1 e1^e3\nd e4 = -1 e1^e4\nd e5 = 1 e1^e5\nd e6 = 1 e1^e6\n",
        COMPLETELY_SOLVABLE, (1, 2), (3, 4, 5, 6),
        "compact-kill modification of nakamura; derived via the modified "
        "bracket and cross-checked against the diagonal e^x matrix model, "
        "then frozen"),
}


def catalog_names():
    """All fixed entry names plus the abelianN family, sorted."""
    fixed = sorted(_ENTRIES)
    return [f"abelian{n}" for n in range(1, _MAX_ABELIAN + 1)] + fixed


_cache: dict = {}


def catalog_get(name: str) -> CatalogEntry:
    """Entry by name; classification and decomposition re-verified on first load."""
    if name in _cache:
        return _cache[name]
    abelian = re.fullmatch(r"abelian([1-9]\d*)", name)
    if abelian:
        digits = abelian.group(1)  # counted first: int() refuses over-long digit strings
        n = int(digits) if len(digits) <= len(str(_MAX_ABELIAN)) else _MAX_ABELIAN + 1
        if n > _MAX_ABELIAN:
            raise UnknownName(f"abelian catalog entries stop at dimension {_MAX_ABELIAN}")
        spec = (f"dim {n}", NILPOTENT, (), range(1, n + 1), "")
    elif name in _ENTRIES:
        spec = _ENTRIES[name]
    else:
        raise UnknownName(f"no catalog entry named {name!r}")
    text, classification, v_idx, n_idx, notes = spec
    algebra = parse_structure_file(text)
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
