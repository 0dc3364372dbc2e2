"""One benchmark sample, run in a fresh process by ``run.py``.

Reads a job from stdin as JSON::

    {"mode": "fault"|"sim"|"smt", "sources": [...], "jobs": 1,
     "setup_only": false, "perf": false, "trace": false}

times ``import repro`` plus ``repro.load`` of every source (set-up), then
one analysis through the public API (verdict), and prints one JSON object
on its last stdout line: timings, resource use, the verdict's known-answer
fields and the counts the public results carry.  With ``perf`` the
``repro.perf`` registry is on; with ``trace`` the ``repro.obs`` spans are
recorded into memory and summarised per layer.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import sys
from time import perf_counter
from typing import Any

#: Span-name prefix -> layer (first match wins).  ``bench.verdict`` is the
#: benchmark's own root span; its self time is the unattributed remainder.
LAYERS = (
    ("bench.", None),
    ("fault.transform", "transform"), ("transform.", "transform"),
    ("fault.setup", "eval"), ("sim.setup", "eval"),
    ("sim.simulate", "srp"),
    ("fault.classes", "analysis"), ("sim.assertions", "analysis"),
    ("smt.", "smt"),
)


def layer_of(name: str) -> str | None:
    if name.endswith((".sharded", ".unit")):
        return "parallel"
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def trace_summary(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-span-name inclusive and self seconds, plus per-layer self time.

    A span's self time is its duration minus the part of its interval that
    its children cover; children are merged as intervals because sharded
    runs nest the spans of concurrent workers under one dispatch span.
    Worker spans arrive as partial snapshots and then complete; only
    complete records count.
    """
    spans = {r["id"]: r for r in records
             if r.get("type") == "span" and not r.get("partial")}
    kids: dict[int, list[tuple[float, float]]] = {}
    for sp in spans.values():
        kids.setdefault(sp["parent"], []).append(
            (sp["t0"], sp["t0"] + sp["dur"]))
    names: dict[str, dict[str, float]] = {}
    layers: dict[str, float] = {}
    for sid, sp in spans.items():
        lo, hi = sp["t0"], sp["t0"] + sp["dur"]
        inner = [(max(a, lo), min(b, hi)) for a, b in kids.get(sid, ())
                 if b > lo and a < hi]
        own = max(0.0, sp["dur"] - _covered(inner))
        entry = names.setdefault(sp["name"], {"n": 0, "incl": 0.0,
                                              "self": 0.0})
        entry["n"] += 1
        entry["incl"] += sp["dur"]
        entry["self"] += own
        layer = layer_of(sp["name"]) or "unattributed"
        layers[layer] = layers.get(layer, 0.0) + own
    return {"spans": names, "layers": layers}


def analyse(job: dict[str, Any], nets: list[Any]) -> Any:
    """Run the job's analysis through the public API (the timed part)."""
    import repro

    mode, jobs = job["mode"], job["jobs"]
    if mode == "fault":
        from workloads import LINK_FAILURES
        return repro.check_fault_tolerance(
            nets[0], link_failures=LINK_FAILURES, jobs=jobs)
    if mode == "sim":
        return repro.simulate(nets[0], backend="native")
    if mode == "smt":
        return [repro.verify(net, jobs=jobs) for net in nets]
    raise ValueError(f"unknown mode {mode!r}")


def describe(mode: str, result: Any) -> dict[str, Any]:
    """The verdict's known-answer fields and the counts and seconds its
    public result carries (computed after timing stops)."""
    from workloads import fault_digest, labels_digest

    if mode == "fault":
        return {"violations": result.total_violations,
                "max_classes": result.max_classes,
                "digest": fault_digest(result),
                "transform_s": result.transform_seconds,
                "simulate_s": result.simulate_seconds}
    if mode == "sim":
        return {"violations": len(result.violations),
                "digest": labels_digest(result.solution.labels),
                "compile_s": result.setup_seconds,
                "simulate_s": result.simulate_seconds,
                "activations": result.solution.iterations,
                "messages": result.solution.messages}
    return {"verified": [r.verified for r in result],
            "encode_s": sum(r.encode_seconds for r in result),
            "solve_s": sum(r.smt.solve_seconds for r in result),
            "clauses": sum(r.smt.num_clauses for r in result),
            "clauses_out": sum(r.smt.stats.get("pre.clauses_out", 0)
                               for r in result),
            "conflicts": sum(r.smt.conflicts for r in result),
            "propagations": sum(r.smt.propagations for r in result)}


def _cpu_seconds() -> float:
    """User plus system seconds of this process and its reaped children
    (pool workers are joined before an analysis returns)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> None:
    job = json.loads(sys.stdin.read())
    t0 = perf_counter()
    import repro
    import_s = perf_counter() - t0
    nets, load_s = [], 0.0
    for source in job["sources"]:
        t0 = perf_counter()
        nets.append(repro.load(source))
        load_s += perf_counter() - t0
    out: dict[str, Any] = {"setup_s": import_s + load_s, "load_s": load_s}
    if job.get("setup_only"):
        print(json.dumps(out))
        return

    from repro import bdd, obs, perf
    if job.get("perf"):
        perf.enable()
    sink = None
    if job.get("trace"):
        sink = io.StringIO()
        obs.enable(jsonl=sink)
    c0 = _cpu_seconds()
    w0 = perf_counter()
    if sink is not None:
        with obs.span("bench.verdict"):
            result = analyse(job, nets)
    else:
        result = analyse(job, nets)
    out["verdict_s"] = perf_counter() - w0
    out["cpu_s"] = _cpu_seconds() - c0
    out["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    if sink is not None:
        obs.disable()
        records = [json.loads(line) for line in sink.getvalue().splitlines()]
        out["trace"] = trace_summary(records)
    out.update(describe(job["mode"], result))
    if job.get("perf"):
        out["perf"] = {k: v for k, v in perf.snapshot().items()
                       if isinstance(v, (int, float))}

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    out["env"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                  "numpy": numpy_version,
                  "bdd_engine": bdd.engine_name()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
