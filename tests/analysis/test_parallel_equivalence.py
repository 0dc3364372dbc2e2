"""Parallel-vs-serial equivalence: the sharded drivers must produce results
identical to their serial counterparts (the ``jobs=1`` path literally runs
the same code in-process, and ``jobs>1`` must change nothing but wall
clock).  These are the acceptance properties of the sharded analysis
engine."""

import pytest

import repro
from repro.analysis.fault import (fault_tolerance_analysis,
                                  fault_tolerance_sharded, freeze_fault_report,
                                  naive_fault_tolerance)
from repro.analysis.simulation import run_simulation, run_simulations
from repro.analysis.verify import verify, verify_many
from repro.eval.maps import freeze_value
from repro.topology import sp_program

from tests.helpers import RIP_TRIANGLE

# A BGP chain: routes carry a ``comms`` map, so cross-process transport
# exercises the FrozenMap snapshot path, not just plain values.
BGP_CHAIN = """
include bgp
let nodes = 4
let edges = {0n=1n; 1n=2n; 2n=3n}
let trans e x = transBgp e x
let merge u x y = mergeBgp u x y
let init (u : node) =
  if u = 0n then Some {length=0; lp=100; med=80; comms={}; origin=0n}
  else None
let assert (u : node) (x : attribute) = true
"""

RIP_BROKEN = RIP_TRIANGLE.replace("h <= 1u8", "h <= 0u8")


def normalize_fault(report):
    """Order-insensitive, process-transportable view of a fault report."""
    frozen = freeze_fault_report(report)
    per_node = []
    for node in frozen.nodes:
        per_node.append((node.node,
                         sorted(((repr(v), c, ok) for v, c, ok in node.classes))))
    return (frozen.num_link_failures, frozen.node_failures, per_node,
            {u: repr(w) for u, w in frozen.witnesses.items()},
            frozen.fault_tolerant)


class TestFaultEquivalence:
    @pytest.mark.parametrize("source", [RIP_TRIANGLE, BGP_CHAIN])
    def test_sharded_matches_base(self, source):
        net = repro.load(source)
        base = fault_tolerance_analysis(net, with_witnesses=True)
        sharded = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        assert normalize_fault(sharded) == normalize_fault(base)

    @pytest.mark.parametrize("source", [RIP_TRIANGLE, BGP_CHAIN])
    def test_jobs_invariant(self, source):
        net = repro.load(source)
        serial = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        fanned = fault_tolerance_sharded(net, with_witnesses=True, jobs=2)
        assert normalize_fault(fanned) == normalize_fault(serial)

    def test_violating_network_witnesses_agree(self):
        net = repro.load(RIP_BROKEN)
        serial = fault_tolerance_sharded(net, with_witnesses=True, jobs=1)
        fanned = fault_tolerance_sharded(net, with_witnesses=True, jobs=2)
        assert not serial.fault_tolerant
        assert normalize_fault(fanned) == normalize_fault(serial)

    def test_scenario_count_conserved(self):
        # The two units partition the scenario space exactly: per-node
        # scenario counts must sum to the base analysis's counts.
        net = repro.load(RIP_TRIANGLE)
        base = fault_tolerance_analysis(net)
        sharded = fault_tolerance_sharded(net, jobs=2)
        for b, s in zip(base.nodes, sharded.nodes):
            assert sum(c for _, c, _ in b.classes) == \
                sum(c for _, c, _ in s.classes)

    def test_naive_jobs_invariant(self):
        net = repro.load(RIP_TRIANGLE)
        assert naive_fault_tolerance(net, jobs=1) == \
            naive_fault_tolerance(net, jobs=2)
        broken = repro.load(RIP_BROKEN)
        tolerant1, n1 = naive_fault_tolerance(broken, jobs=1)
        tolerant2, n2 = naive_fault_tolerance(broken, jobs=2)
        assert (tolerant1, n1) == (tolerant2, n2)
        assert not tolerant1


class TestSimulationEquivalence:
    def test_jobs_invariant_per_prefix(self):
        nets = [repro.load(sp_program(4, d)) for d in (0, 1, 2)]
        serial = run_simulations(nets, jobs=1)
        fanned = run_simulations(nets, jobs=2)
        for a, b in zip(serial, fanned):
            assert a.solution.labels == b.solution.labels
            assert a.violations == b.violations
            assert a.solution.iterations == b.solution.iterations
            assert a.solution.messages == b.solution.messages
            assert a.solution.stats == b.solution.stats

    def test_sharded_matches_direct(self):
        net = repro.load(BGP_CHAIN)
        direct = run_simulation(net)
        [sharded] = run_simulations([net], jobs=2)
        assert [freeze_value(v) for v in direct.solution.labels] == \
            sharded.solution.labels
        assert direct.violations == sharded.violations

    def test_native_backend_jobs_invariant(self):
        nets = [repro.load(sp_program(4, d)) for d in (0, 1)]
        serial = run_simulations(nets, backend="native", jobs=1)
        fanned = run_simulations(nets, backend="native", jobs=2)
        for a, b in zip(serial, fanned):
            assert a.solution.labels == b.solution.labels
            assert a.violations == b.violations


class TestVerificationEquivalence:
    def test_jobs_invariant(self):
        nets = [repro.load(RIP_TRIANGLE), repro.load(RIP_BROKEN)]
        serial = verify_many(nets, jobs=1)
        fanned = verify_many(nets, jobs=2)
        assert [r.status for r in serial] == [r.status for r in fanned]
        assert [r.verified for r in serial] == [r.verified for r in fanned]
        assert [r.status for r in serial] == ["verified", "counterexample"]
        # Counterexamples are models, so only the verdict is canonical; but
        # any returned model must violate the assertion (status says so).
        assert fanned[1].counterexample is not None

    def test_sharded_matches_direct(self):
        net = repro.load(RIP_TRIANGLE)
        direct = verify(net)
        [sharded] = verify_many([net], jobs=2)
        assert direct.status == sharded.status
        assert direct.verified == sharded.verified
        assert direct.smt.num_clauses == sharded.smt.num_clauses
