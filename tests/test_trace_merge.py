"""Merged-trace invariants for sharded analysis runs (satellite of the
cross-process tracing work): the jobs=2 merge of per-worker traces must be
structurally equivalent to the serial trace — same span-tree shape by
name, in the JSONL sink and in the in-memory tree ``--trace`` renders —
with unique remapped ids, resolvable parent links, and worker records
stamped with their lane."""

import json
from collections import Counter

import pytest

import repro
from repro import metrics, obs, perf
from repro.analysis.fault import fault_tolerance_sharded
from repro.analysis.simulation import run_simulations
from repro.report import load_trace
from repro.topology import sp_program

from tests.helpers import RIP_TRIANGLE


@pytest.fixture(autouse=True)
def clean_registries():
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()
    yield
    for mod in (obs, metrics, perf):
        mod.disable()
        mod.reset()


def _sim_run(jobs):
    """The fig13c-style per-prefix simulation smoke."""
    return lambda: run_simulations(
        [repro.load(sp_program(4, d)) for d in (0, 1, 2)], jobs=jobs,
        unit_labels=[f"prefix{d}.nv" for d in (0, 1, 2)])


def _fault_run(jobs):
    """The sharded fig 5 fault analysis of the RIP triangle."""
    return lambda: fault_tolerance_sharded(
        repro.load(RIP_TRIANGLE), with_witnesses=True, jobs=jobs)


def _trace_roots(tmp_path, name, run):
    """Trace ``run()``; return the JSONL path and the in-memory roots."""
    trace = tmp_path / f"{name}.jsonl"
    obs.enable(jsonl=str(trace))
    run()
    obs.disable()
    roots = obs.roots()
    obs.reset()
    return trace, roots


def _run_traced(tmp_path, jobs, name):
    return _trace_roots(tmp_path, name, _sim_run(jobs))[0]


def _edge_multiset(roots):
    """(parent name, child name) edges of the span forest, as a multiset."""
    edges = Counter()

    def walk(sp):
        for c in sp.children:
            edges[(sp.name, c.name)] += 1
            walk(c)

    for r in roots:
        edges[("<root>", r.name)] += 1
        walk(r)
    return edges


class TestSpanTreeEquivalence:
    def test_serial_and_sharded_trees_match_by_name(self, tmp_path):
        serial_roots, _ = load_trace(_run_traced(tmp_path, 1, "serial"))
        fanned_roots, _ = load_trace(_run_traced(tmp_path, 2, "fanned"))
        assert _edge_multiset(serial_roots) == _edge_multiset(fanned_roots)

    @pytest.mark.parametrize("run", [_sim_run, _fault_run])
    def test_serial_and_sharded_text_trees_match_by_name(self, tmp_path, run):
        _, serial = _trace_roots(tmp_path, "serial", run(1))
        _, fanned = _trace_roots(tmp_path, "fanned", run(2))
        assert _edge_multiset(serial) == _edge_multiset(fanned)

    @pytest.mark.parametrize("run", [_sim_run, _fault_run])
    def test_text_tree_matches_jsonl_tree(self, tmp_path, run):
        trace, roots = _trace_roots(tmp_path, "fanned", run(2))
        assert _edge_multiset(roots) == _edge_multiset(load_trace(trace)[0])
        assert ".unit" in obs.render_tree(roots)

    def test_unit_spans_under_dispatch(self, tmp_path):
        roots, _ = load_trace(_run_traced(tmp_path, 2, "t"))
        (dispatch,) = [r for r in roots if r.name == "sim.sharded"]
        units = [c for c in dispatch.children if c.name == "sim.unit"]
        assert len(units) == 3
        assert sorted(u.attrs["unit_label"] for u in units) == \
            ["prefix0.nv", "prefix1.nv", "prefix2.nv"]


class TestMergedRecordInvariants:
    def test_ids_unique_and_parents_resolve(self, tmp_path):
        trace = _run_traced(tmp_path, 2, "inv")
        recs = [json.loads(line) for line in
                trace.read_text().splitlines() if line]
        spans = [r for r in recs if r.get("type") == "span"
                 and not r.get("partial")]
        ids = [r["id"] for r in spans]
        assert len(ids) == len(set(ids))
        id_set = set(ids)
        for r in spans:
            assert r["parent"] == 0 or r["parent"] in id_set, r["name"]
        for r in recs:
            if r.get("type") == "event" and r.get("name") != "parallel.ledger":
                assert r["span"] == 0 or r["span"] in id_set

    def test_worker_records_stamped_with_proc(self, tmp_path):
        trace = _run_traced(tmp_path, 2, "proc")
        recs = [json.loads(line) for line in
                trace.read_text().splitlines() if line]
        units = [r for r in recs if r.get("name") == "sim.unit"
                 and not r.get("partial")]
        assert len(units) == 3
        assert all(isinstance(r["attrs"].get("proc"), int) for r in units)

    def test_ledger_covers_shard_plan(self, tmp_path):
        trace = _run_traced(tmp_path, 2, "ledger")
        recs = [json.loads(line) for line in
                trace.read_text().splitlines() if line]
        (led,) = [r for r in recs if r.get("name") == "parallel.ledger"]
        assert led["attrs"]["units"] == 3
        assert led["attrs"]["units_done"] == 3
