"""Hash-consed BDD/MTBDD engine (paper §5.1, fig 11).

One engine, :class:`~repro.bdd.manager.BddManager`: parallel node lists,
a dict-keyed unique table, per-operation memo dicts with packed-int keys,
a canonical flat int32 ``snapshot`` blob for transport, and cross-call
``sat_count``/``leaf_groups`` memos.  Its dict/list hot paths run on
CPython's C internals.  ``tests/bdd/test_oracle.py`` checks it against a
brute-force truth-table oracle over every assignment of 8 variables.
"""

from .manager import BddManager, LEAF_LEVEL

__all__ = ["BddManager", "LEAF_LEVEL", "engine_name"]


def engine_name() -> str:
    """Name of the BDD engine, recorded in RunRecord env fingerprints so
    records from before and after an engine change stay distinguishable."""
    return "object"
