"""Pickling and copying of the immutable value types.

`Matrix`, `Subspace` and `LieAlgebra` refuse attribute assignment, so each
rebuilds through its constructor when unpickled or copied; a round trip
gives an equal, hash-equal object that is immutable again.  A
`CohomologyResult` is plain data: its Betti numbers and representative
cocycles round-trip as they are.
"""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from solvco.catalog import catalog_get
from solvco.cohomology import representatives
from solvco.lie import LieAlgebra, Subspace, conjugate
from solvco.matrices import Matrix
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
