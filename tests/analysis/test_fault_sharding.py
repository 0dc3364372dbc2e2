"""The sharded fault analysis's scenario split: two units, the cofactors on
the scenario key's top bit.

The split must partition the valid-key domain exactly (class counts merge
by summation), the transform's membership predicate must select the same
keys as the analysis's BDD restriction, and the merged report — classes,
counts and witnesses — must equal the unsharded analysis on generated
networks, not only on the 3-node fixtures (whose node ids have 2 bits)."""

import pytest

import repro
from repro.analysis.fault import (SCENARIO_UNITS, _factory_for_backend,
                                  fault_tolerance_analysis,
                                  fault_tolerance_sharded, unit_restriction)
from repro.eval.interp import Interpreter
from repro.eval.maps import MapContext
from repro.lang import ast as A
from repro.topology import uscarrier_like, wan_program
from repro.transform.fault_tolerance import (_scenario_in_cofactor,
                                             scenario_key_type)

from tests.analysis.test_parallel_equivalence import normalize_fault

KEY_KINDS = {
    "edge": (1, False),
    "edge*edge": (2, False),
    "node*edge": (1, True),
    "node": (0, True),
}


def _ring(n):
    """Context for an ``n``-node bidirectional ring."""
    edges = []
    for u in range(n):
        v = (u + 1) % n
        edges += [(u, v), (v, u)]
    return MapContext(n, tuple(edges))


@pytest.mark.parametrize("kind", sorted(KEY_KINDS))
@pytest.mark.parametrize("n", [3, 4, 5, 60])
def test_unit_restrictions_partition_domain(kind, n):
    ctx = _ring(n)
    mgr = ctx.manager
    key_ty = scenario_key_type(*KEY_KINDS[kind])
    width = ctx.encoder.width(key_ty)
    low, high = (unit_restriction(ctx, key_ty, b) for b in SCENARIO_UNITS)
    assert mgr.band(low, high) == mgr.false
    counts = [mgr.sat_count(r, width) for r in (low, high)]
    assert all(c > 0 for c in counts)
    assert sum(counts) == mgr.sat_count(ctx.domain(key_ty), width)


@pytest.mark.parametrize("kind", sorted(KEY_KINDS))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_transform_membership_matches_top_bit(kind, n):
    """The transform's ``<`` on the leading node selects exactly the keys
    whose first encoded bit is the unit's."""
    ctx = _ring(n)
    enc = ctx.encoder
    key_ty = scenario_key_type(*KEY_KINDS[kind])
    interp = Interpreter(ctx)
    preds = {b: _scenario_in_cofactor(A.EVar("__sc"), key_ty,
                                      enc.node_width, b)
             for b in SCENARIO_UNITS}
    for key in enc.enumerate_values(key_ty):
        top = int(enc.encode(key_ty, key)[0])
        for b, pred in preds.items():
            assert interp._eval(pred, {"__sc": key}) == (b == top), (key, b)


@pytest.fixture(scope="module")
def wan12():
    return repro.load(wan_program(uscarrier_like(12, 18)))


class TestShardedMatchesBaseOnWan:
    @pytest.mark.parametrize("backend", ["interp", "native"])
    def test_two_link_failures(self, wan12, backend):
        base = fault_tolerance_analysis(
            wan12, num_link_failures=2, with_witnesses=True,
            functions_factory=_factory_for_backend(backend))
        assert not base.fault_tolerant and base.witnesses
        sharded = fault_tolerance_sharded(wan12, num_link_failures=2,
                                          with_witnesses=True,
                                          backend=backend, jobs=1)
        assert normalize_fault(sharded) == normalize_fault(base)

    @pytest.mark.parametrize("links", [0, 1])
    def test_node_failures(self, wan12, links):
        base = fault_tolerance_analysis(wan12, num_link_failures=links,
                                        node_failures=True,
                                        with_witnesses=True)
        assert not base.fault_tolerant
        sharded = fault_tolerance_sharded(wan12, num_link_failures=links,
                                          node_failures=True,
                                          with_witnesses=True, jobs=2)
        assert normalize_fault(sharded) == normalize_fault(base)


def test_rejects_zero_failures(wan12):
    with pytest.raises(ValueError):
        fault_tolerance_sharded(wan12, num_link_failures=0, jobs=2)
