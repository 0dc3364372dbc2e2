"""Generate and cross-check the benchmark's committed known answers.

    PYTHONPATH=src python3 perfbench/crosscheck.py [--pool] [--enumerate] [--sim]

``--pool`` analyses every WAN of the pool serially and sharded over 2
workers, asserts that both agree on the violation count, the largest class
count and the per-node class digest, and records them.  ``--enumerate``
re-derives pool instance 0's answer by independent enumeration: one
concrete simulation per failure scenario, each key of the scenario space
weighted by how many keys name that scenario; it also checks the 1-link
verdict against ``naive_fault_tolerance``.  ``--sim`` records the digest of
FatTree(12)'s converged labels computed by the *interpreter* backend, which
the benchmark compares against the compiled backend it times.  Results are
merged into ``perfbench/expected.json`` after every step.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import Any

import workloads as W


def _save(expected: dict[str, Any]) -> None:
    W.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True)
                               + "\n")


def fault_answer(report: Any) -> dict[str, Any]:
    return {"violations": report.total_violations,
            "max_classes": report.max_classes,
            "digest": W.fault_digest(report)}


def pool(expected: dict[str, Any]) -> None:
    import repro

    wan = expected.setdefault("wan", {})
    for j in range(W.POOL_SIZE):
        seed = W.POOL_BASE + j
        net = repro.load(W.wan_source(seed))
        t0 = time.perf_counter()
        serial = fault_answer(repro.check_fault_tolerance(
            net, link_failures=W.LINK_FAILURES, jobs=1))
        sharded = fault_answer(repro.check_fault_tolerance(
            net, link_failures=W.LINK_FAILURES, jobs=2))
        if serial != sharded:
            sys.exit(f"seed {seed}: serial {serial} != sharded {sharded}")
        wan[str(seed)] = serial
        _save(expected)
        print(f"seed {seed}: {serial} ({time.perf_counter() - t0:.1f}s)",
              flush=True)


def enumerate_scenarios(expected: dict[str, Any]) -> None:
    import repro
    from repro.analysis.fault import naive_fault_tolerance
    from repro.srp.network import functions_from_program
    from repro.srp.simulate import simulate

    seed = W.POOL_BASE
    net = repro.load(W.wan_source(seed))
    links = sorted({(min(u, v), max(u, v)) for u, v in net.edges})
    # A key is an ordered pair of directed edges; {a} is named by 2x2 keys,
    # {a, b} (a != b) by 2 orders x 2 x 2 orientations.
    scenarios = [((a,), 4) for a in links] + [
        ((a, b), 8) for a, b in itertools.combinations(links, 2)]
    classes: list[dict[str, list[Any]]] = [{} for _ in range(net.num_nodes)]
    t0 = time.perf_counter()
    for failed, weight in scenarios:
        funcs = functions_from_program(net)
        base = funcs.trans
        dead = set(failed) | {(v, u) for u, v in failed}

        def trans(edge, x, _base=base, _dead=dead):
            return None if edge in _dead else _base(edge, x)

        funcs.trans, funcs.trans_many = trans, None
        solution = simulate(funcs)
        bad = set(solution.check_assertions(funcs.assert_fn))
        for u, label in enumerate(solution.labels):
            entry = classes[u].setdefault(W.canon(label), [0, u not in bad])
            entry[0] += weight
    answer = {
        "violations": sum(n for node in classes for n, ok in node.values()
                          if not ok),
        "max_classes": max(len(node) for node in classes),
        "digest": W.digest([sorted((v, n, ok) for v, (n, ok) in node.items())
                            for node in classes]),
    }
    recorded = expected.get("wan", {}).get(str(seed))
    print(f"enumerated {len(scenarios)} scenarios in "
          f"{time.perf_counter() - t0:.1f}s: {answer}", flush=True)
    if recorded is not None and recorded != answer:
        sys.exit(f"enumeration {answer} != recorded {recorded}")

    tolerant, count = naive_fault_tolerance(net, num_link_failures=1)
    mtbdd = repro.check_fault_tolerance(net, link_failures=1, jobs=1)
    if tolerant != mtbdd.fault_tolerant:
        sys.exit(f"1-link: naive tolerant={tolerant}, "
                 f"MTBDD tolerant={mtbdd.fault_tolerant}")
    expected["enumerated"] = {"seed": seed, "scenarios": len(scenarios),
                              **answer, "naive_1link_tolerant": tolerant,
                              "naive_1link_scenarios": count}
    _save(expected)


def sim(expected: dict[str, Any]) -> None:
    import repro

    report = repro.simulate(repro.load(W.fattree_source()), backend="interp")
    if report.violations:
        sys.exit(f"FatTree({W.FATTREE_K}) violates at {report.violations}")
    expected["fattree_labels"] = W.labels_digest(report.solution.labels)
    _save(expected)
    print(f"fattree labels digest {expected['fattree_labels']}", flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pool", action="store_true")
    ap.add_argument("--enumerate", action="store_true")
    ap.add_argument("--sim", action="store_true")
    args = ap.parse_args()
    expected = W.load_expected()
    if args.sim:
        sim(expected)
    if args.pool:
        pool(expected)
    if args.enumerate:
        enumerate_scenarios(expected)


if __name__ == "__main__":
    main()
