"""NV time-to-verdict benchmark: four workloads through the public API.

    python3 perfbench/run.py --workload fault-wan-jobs2 --seed 0 --seconds 60 --trace 0

Each sample is one fresh ``python3 perfbench/child.py`` process with every
``NV_*`` variable removed, so the program runs at its defaults; ``jobs`` is
passed explicitly.  A run keeps timing samples of the workload's input
while the next one is expected to end within ``--seconds`` of the run's
start (at least ``MIN_SAMPLES``), checks every verdict against a known
answer, and prints one JSON object as its last stdout line.

``--trace 0`` reports the end-to-end metrics, medians over the timed
samples.  ``--trace 1`` runs the samples in pairs, one with the
``repro.perf`` counters on and one also recording ``repro.obs`` spans, and
reports the per-layer metrics: seconds and counts read from the public
results and the counter registry, span self times from the traced sample,
the tracing overhead, and any per-layer count that differs between samples
of the same input (named on stderr).

The fault workloads time the fig 13b WAN.  The seed picks a second WAN
from a committed pool (see ``workloads.py``), which the run analyses first,
untimed, and checks against its committed answer.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
#: Stop starting samples after this many seconds so a run on a slow host
#: still ends well inside three minutes.
DEADLINE_S = 140.0
#: Timed samples (pairs with ``--trace 1``) a run takes even when they
#: overrun ``--seconds``.
MIN_SAMPLES = {False: 3, True: 2}
SETUP_SAMPLES = 9
#: Per-layer counts that must repeat exactly on the same input.
EXACT_COUNTS = ("bdd.apply_calls", "bdd.nodes", "srp.activations",
                "smt.conflicts", "smt.clauses_out", "parallel.units")


class SampleError(Exception):
    pass


def clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NV_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(job: dict[str, Any], timeout: float) -> dict[str, Any]:
    """One sample in a fresh process group, so that a timeout, or this
    process being stopped, kills the child and its pool workers together."""
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=clean_env(), cwd=str(ROOT), start_new_session=True)

    def stop(signum: int, frame: Any) -> None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, err = proc.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleError(f"timed out after {timeout:.0f}s")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise SampleError(f"exit {proc.returncode}: {tail[0]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SampleError("no result line") from None


def check_answer(wl: Any, res: dict[str, Any], expected: dict[str, Any],
                 instance: int | None) -> str | None:
    """Why ``res`` is wrong, or None when it matches the known answer."""
    if wl.mode == "smt":
        return None if all(res["verified"]) else f"verified={res['verified']}"
    if wl.mode == "sim":
        want = expected.get("fattree_labels")
        if res["violations"]:
            return f"{res['violations']} nodes violate the assertion"
        if res["digest"] != want:
            return f"labels digest {res['digest']} != interpreter's {want}"
        return None
    want = expected.get("wan", {}).get(str(instance))
    got = {k: res[k] for k in ("violations", "max_classes", "digest")}
    return None if got == want else f"{got} != expected {want}"


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def med(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_counts(res: dict[str, Any]) -> dict[str, float]:
    """The per-layer counts and ratios one sample exposes."""
    p = res.get("perf", {})
    out: dict[str, float] = {}
    if p:
        calls = p.get("bdd.apply_cache_hits", 0) + p.get(
            "bdd.apply_cache_misses", 0)
        out.update({
            "bdd.apply_calls": calls,
            "bdd.apply_cache_hit_ratio": ratio(
                p.get("bdd.apply_cache_hits", 0), calls),
            "bdd.op_cache_hit_ratio": ratio(
                p.get("bdd.op_cache_hits", 0),
                p.get("bdd.op_cache_hits", 0)
                + p.get("bdd.op_cache_misses", 0)),
            "bdd.nodes": p.get("bdd.nodes", 0),
            "bdd.leaves": p.get("bdd.leaves", 0),
            "srp.activations": p.get("sim.activations", 0),
            "srp.messages": p.get("sim.messages", 0),
            "srp.merge_cache_hit_ratio": ratio(
                p.get("sim.merge_cache_hits", 0),
                p.get("sim.merge_cache_hits", 0)
                + p.get("sim.merge_cache_misses", 0)),
            "parallel.units": p.get("parallel.units", 0),
        })
    if "activations" in res:
        out["srp.activations"] = res["activations"]
        out["srp.messages"] = res["messages"]
    if "conflicts" in res:
        out.update({k: res[k.split(".", 1)[1]] for k in (
            "smt.clauses", "smt.clauses_out", "smt.conflicts",
            "smt.propagations")})
    return out


def drifting(samples: list[tuple[Any, dict[str, Any]]]) -> dict[str, list]:
    """Exact counts that differ between samples of the same input."""
    seen: dict[tuple[Any, str], set] = {}
    for key, res in samples:
        for name, value in layer_counts(res).items():
            if name in EXACT_COUNTS:
                seen.setdefault((key, name), set()).add(value)
    return {f"{name}@{key}": sorted(values)
            for (key, name), values in seen.items() if len(values) > 1}


def end_to_end(runs: list[dict[str, Any]], setups: list[float],
               attempted: int, failed: int) -> dict[str, tuple[float, str]]:
    return {
        "verdict_s": (med([r["verdict_s"] for r in runs]), "s"),
        "cpu_s": (med([r["cpu_s"] for r in runs]), "s"),
        "setup_s": (med(setups), "s"),
        "peak_rss_mb": (med([r["peak_rss_mb"] for r in runs]), "MB"),
        "ok_ratio": (ratio(attempted - failed, attempted), "ratio"),
    }


def per_layer(wl: Any, plain: list[dict[str, Any]],
              traced: list[dict[str, Any]], loads: list[float],
              drift: dict[str, list]) -> dict[str, tuple[float, str]]:
    def field(name: str) -> float:
        return med([r[name] for r in plain if name in r])

    def span(name: str, kind: str) -> float:
        return med([r["trace"]["spans"].get(name, {}).get(kind, 0.0)
                    for r in traced])

    counts = layer_counts(plain[0]) if plain else {}
    verdict = field("verdict_s")
    solve_s = field("solve_s")
    busy = (field("transform_s") + field("simulate_s")) if wl.jobs > 1 else 0.0
    coverage = med([1.0 - ratio(r["trace"]["layers"].get("unattributed", 0.0)
                                + r["trace"]["layers"].get("other", 0.0),
                                r["verdict_s"]) for r in traced])
    overhead = med([ratio(t["verdict_s"], p["verdict_s"])
                    for p, t in zip(plain, traced)])
    out = {
        "lang.load_s": (med(loads), "s"),
        "transform.fault_s": (field("transform_s"), "s"),
        "eval.compile_s": (field("compile_s"), "s"),
        "eval.fault_setup_s": (span("fault.setup", "incl"), "s"),
        "srp.simulate_s": (field("simulate_s"), "s"),
        "analysis.classes_s": (span("fault.classes", "self"), "s"),
        "smt.encode_s": (field("encode_s"), "s"),
        "smt.bitblast_s": (span("smt.bitblast", "incl"), "s"),
        "smt.preprocess_s": (span("smt.preprocess", "incl"), "s"),
        "smt.solve_s": (solve_s, "s"),
        "smt.propagations_per_s": (
            ratio(counts.get("smt.propagations", 0), solve_s), "1/s"),
        "parallel.busy_s": (busy, "s"),
        "parallel.efficiency": (ratio(busy, wl.jobs * verdict), "ratio"),
        "obs.overhead_ratio": (overhead, "ratio"),
        "obs.coverage": (coverage, "ratio"),
        "counts.drifted": (len(drift), "count"),
    }
    for name in ("srp.activations", "srp.messages", "bdd.apply_calls",
                 "bdd.nodes", "bdd.leaves", "smt.clauses", "smt.clauses_out",
                 "smt.conflicts", "smt.propagations", "parallel.units"):
        out[name] = (counts.get(name, 0), "count")
    for name in ("srp.merge_cache_hit_ratio", "bdd.apply_cache_hit_ratio",
                 "bdd.op_cache_hit_ratio"):
        out[name] = (counts.get(name, 0.0), "ratio")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no NV sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = W.WORKLOADS[args.workload]
    expected = W.load_expected()
    if wl.mode == "fault":
        timed = (W.POOL_BASE, [W.wan_source(W.POOL_BASE)])
        probe = W.probe_seed(args.seed)
        probes = [(probe, [W.wan_source(probe)])]
    else:
        timed = (None, W.smt_sources() if wl.mode == "smt"
                 else [W.fattree_source()])
        probes = []

    t_start = perf_counter()
    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    setups: list[float] = []
    loads: list[float] = []
    counted: list[tuple[Any, dict[str, Any]]] = []
    attempted = failed = 0
    env: dict[str, Any] = {}

    def sample(key: Any, sources: list[str], **flags: bool
               ) -> dict[str, Any] | None:
        nonlocal attempted, failed, env
        if perf_counter() - t_start > DEADLINE_S:
            return None
        attempted += 1
        job = {"mode": wl.mode, "sources": sources, "jobs": wl.jobs,
               "perf": bool(args.trace), **flags}
        try:
            res = run_child(job, max(10.0, 170.0 - (perf_counter() - t_start)))
        except SampleError as exc:
            failed += 1
            print(f"perfbench: {args.workload} sample {key}: {exc}",
                  file=sys.stderr)
            return None
        why = None if flags.get("setup_only") else check_answer(
            wl, res, expected, key)
        if why:
            # A wrong answer still took its time; it is timed and failed.
            failed += 1
            print(f"perfbench: {args.workload} sample {key}: wrong answer: "
                  f"{why}", file=sys.stderr)
        setups.append(res["setup_s"])
        loads.append(res["load_s"])
        env = env or res.get("env", {})
        if not flags.get("setup_only"):
            counted.append((key, res))
        return res

    for probe in probes:
        sample(*probe)
    # Seconds each step (one sample, or one pair) took; the next step starts
    # only if a step of median length would still end within --seconds.
    steps: list[float] = []
    while len(steps) < MIN_SAMPLES[bool(args.trace)] or (
            perf_counter() - t_start + med(steps) <= args.seconds):
        if perf_counter() - t_start > DEADLINE_S:
            break
        t_step = perf_counter()
        if not args.trace:
            res = sample(*timed)
            if res is not None:
                plain.append(res)
        else:
            # Alternate which member of a pair runs first, so a drift in
            # host speed does not bias the tracing overhead one way.
            order = (False, True) if len(steps) % 2 == 0 else (True, False)
            pair = {on: sample(*timed, trace=on) for on in order}
            if None not in pair.values():
                plain.append(pair[False])
                traced.append(pair[True])
        steps.append(perf_counter() - t_step)
    while len(setups) < SETUP_SAMPLES:
        if sample(*timed, setup_only=True) is None:
            break

    drift = drifting(counted)
    for name, values in sorted(drift.items()):
        print(f"perfbench: count drift {name}: {values}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(wl, plain, traced, loads, drift)
    else:
        metrics = end_to_end(plain, setups, attempted, failed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "verdicts_s": [r["verdict_s"] for r in plain],
                      "traced_verdicts_s": [r["verdict_s"] for r in traced],
                      "timed_input": timed[0],
                      "checked_inputs": [k for k, _ in probes],
                      "env": env}))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and bool(plain),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
