"""Workload inputs and known answers for the NV time-to-verdict benchmark.

Everything here is shared by the orchestrator (``run.py``), the one-sample
worker (``child.py``) and the known-answer generator (``crosscheck.py``).
Only ``repro.topology`` is used to *generate* NV source; the program under
test receives nothing but that source text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

#: The fault workloads time the fig 13b WAN, ``uscarrier_like``'s default
#: seed (200 violating scenario keys, at most 7 classes per node).  One
#: WAN's analysis time varies 2.6x across seeds, so the seed instead picks a
#: second WAN from a pool of ``POOL_SIZE - 1`` others, which every run
#: analyses once and checks but does not time.  Pool entry ``j`` is
#: ``uscarrier_like(60, 100, seed=POOL_BASE + j)``; ``expected.json``
#: holds the answer for each.
POOL_BASE = 20200615
POOL_SIZE = 40
WAN_NODES, WAN_LINKS, LINK_FAILURES = 60, 100, 2
FATTREE_K = 12


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str          # "fault" | "sim" | "smt"
    jobs: int          # worker processes the analysis is given


WORKLOADS = {w.name: w for w in (
    Workload("fault-wan", "fault", 1),
    Workload("fault-wan-jobs2", "fault", 2),
    Workload("sim-fattree", "sim", 1),
    Workload("smt-verify", "smt", 1),
)}


def probe_seed(run_seed: int) -> int:
    """The ``uscarrier_like`` seed of the WAN a run checks untimed."""
    return POOL_BASE + 1 + run_seed % (POOL_SIZE - 1)


def wan_source(seed: int) -> str:
    from repro.topology import uscarrier_like, wan_program
    return wan_program(uscarrier_like(WAN_NODES, WAN_LINKS, seed=seed))


def fattree_source() -> str:
    from repro.topology import all_prefixes_program
    return all_prefixes_program(FATTREE_K, "fat")


def smt_sources() -> list[str]:
    from repro.topology import fat_program, sp_program
    return [sp_program(4, narrow=True), fat_program(4, narrow=True)]


# ----------------------------------------------------------------------
# Canonical digests of analysis outputs
# ----------------------------------------------------------------------

def canon(value: Any) -> str:
    """A canonical string for an NV value, live or frozen.

    Maps are frozen first and hashed by their canonical MTBDD blob plus the
    canonical strings of their leaves, so nested maps (route communities)
    are compared by content rather than by ``FrozenMap.__repr__``'s sizes.
    """
    from repro.eval.maps import FrozenMap, NVMap, freeze_value
    from repro.eval.values import VRecord, VSome

    if isinstance(value, NVMap):
        value = freeze_value(value)
    if isinstance(value, FrozenMap):
        blob = hashlib.sha256(value.nodes).hexdigest()
        leaves = ",".join(canon(leaf) for leaf in value.leaves)
        return f"M<{value.key_ty}>({blob};{leaves})"
    if isinstance(value, VSome):
        return f"Some({canon(value.value)})"
    if isinstance(value, VRecord):
        return "{" + ";".join(f"{k}={canon(v)}" for k, v in value.fields) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canon(v) for v in value) + ")"
    return repr(value)


def digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def fault_digest(report: Any) -> str:
    """Per-node class digest of a ``FaultReport``: each node's classes as
    sorted ``(route, scenario keys, ok)`` triples, so serial and sharded
    reports (which list classes in different orders) compare equal."""
    return digest([sorted((canon(v), n, ok) for v, n, ok in node.classes)
                   for node in report.nodes])


def labels_digest(labels: list[Any]) -> str:
    return digest([canon(label) for label in labels])


def load_expected() -> dict[str, Any]:
    try:
        return json.loads(EXPECTED_PATH.read_text())
    except FileNotFoundError:
        return {}
