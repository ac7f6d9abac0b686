"""Pickling and copying of the immutable value types, and the fields of
the records and checked inputs.

`Matrix`, `Subspace` and `LieAlgebra` refuse attribute assignment, so each
rebuilds through its constructor when unpickled or copied; a round trip
gives an equal, hash-equal object that is immutable again.  A
`CohomologyResult` is plain data: its Betti numbers and representative
cocycles round-trip as they are.

Each record and each checked input takes its fields by position and by
keyword, in their documented order and with their documented defaults,
and refuses attribute assignment.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from solvco.almost_abelian import AlmostAbelianReport, CoverType, HolonomyInput, MostowStatus, Scale
from solvco.catalog import CatalogEntry, catalog_get
from solvco.cohomology import CohomologyResult, StructuralReport, representatives
from solvco.decompositions import JordanDecomposition
from solvco.lie import FlagCertificate, LieAlgebra, Subspace, conjugate
from solvco.matrices import Matrix
from solvco.splitting import KillMap, KillMode, SplittingInput
from support import rand_large_rational

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _rational_algebra():
    g = catalog_get("hyperelliptic4").algebra
    return conjugate(g, rand_large_rational(random.Random(5), g.dim))


def _values():
    return [
        Matrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-7, 6)]]),
        Matrix.identity(3),
        Matrix.zeros(0, 0),
        Subspace.span(3, [(1, Fraction(1, 2), 0), (0, 0, 5)]),
        Subspace(3, [(2, 1, 0)]),
        Subspace(2, ()),
        catalog_get("nakamura").algebra,
        _rational_algebra(),
        LieAlgebra.abelian(0),
    ]


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_value_types_round_trip_equal_and_hash_equal(trip):
    for value in _values():
        out = ROUND_TRIPS[trip](value)
        assert type(out) is type(value)
        assert out == value and hash(out) == hash(value)
        with pytest.raises(AttributeError, match="immutable"):
            out.dim = 0


@pytest.mark.parametrize("trip", sorted(ROUND_TRIPS))
def test_cohomology_result_round_trips(trip):
    res = representatives(_rational_algebra())
    assert any(res.representatives)
    out = ROUND_TRIPS[trip](res)
    assert out == res and hash(out) == hash(res)
    assert out.representatives == res.representatives and out.betti == res.betti
    with pytest.raises(AttributeError):
        out.betti = ()


def _fields(name):
    """(type, a value for each field in the documented order, the defaults
    of the optional fields) for the record or checked input named."""
    sol3 = catalog_get("sol3")
    anosov = Matrix.from_rows([[2, 1], [1, 1]])
    return {
        "FlagCertificate": (FlagCertificate, {
            "status": "no", "chain": (), "witness": (1, None)},
            {"chain": None, "witness": None}),
        "CohomologyResult": (CohomologyResult, {
            "betti": (1, 1), "representatives": ((), ())}, {"representatives": None}),
        "StructuralReport": (StructuralReport, {
            "unimodular": True, "duality_holds": True, "euler_characteristic": 0,
            "b1": 1, "b1_expected": 1, "solvable": True, "nilpotent": False,
            "b1_bound": 1}, {}),
        "JordanDecomposition": (JordanDecomposition, {
            "semisimple": anosov, "nilpotent": Matrix.zeros(2, 2),
            "minpoly_form": ((1, -3, 1), 1)}, {}),
        "CatalogEntry": (CatalogEntry, {
            "name": "sol3", "algebra": sol3.algebra, "classification": sol3.classification,
            "complement": sol3.complement, "nilpotent_ideal": sol3.nilpotent_ideal,
            "notes": "rescaled"}, {"notes": ""}),
        "KillMap": (KillMap, {"operators": (anosov,), "mode": KillMode.COMPACT}, {}),
        "AlmostAbelianReport": (AlmostAbelianReport, {
            "b1": 1, "mostow": MostowStatus.HOLDS, "mostow_reason": "real spectrum",
            "cyclotomic": (), "order_m": None, "cover_type": CoverType.OTHER,
            "invariant_betti": (1, 1, 1, 1), "ce_betti": None, "de_rham_valid": True}, {}),
        "HolonomyInput": (HolonomyInput, {
            "holonomy": anosov, "derivation": Matrix.diagonal([1, -1]), "scale": Scale.PI},
            {"derivation": None, "scale": Scale.ONE}),
        "SplittingInput": (SplittingInput, {
            "algebra": sol3.algebra, "complement": sol3.complement,
            "nilpotent_ideal": sol3.nilpotent_ideal}, {}),
    }[name]


@pytest.mark.parametrize("name", [
    "FlagCertificate", "CohomologyResult", "StructuralReport", "JordanDecomposition",
    "CatalogEntry", "KillMap", "AlmostAbelianReport", "HolonomyInput", "SplittingInput"])
def test_records_take_their_fields_in_order_with_defaults_and_refuse_assignment(name):
    cls, values, defaults = _fields(name)
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    bare = cls(**{field: v for field, v in values.items() if field not in defaults})
    for field, value in values.items():
        assert getattr(by_position, field) is value and getattr(by_keyword, field) is value
        assert getattr(bare, field) == defaults.get(field, value)
    for out in (by_position, bare):
        for field in (next(iter(values)), "undeclared"):
            with pytest.raises(AttributeError):
                setattr(out, field, None)
