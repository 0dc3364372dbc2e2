"""Arena-backed BDD/MTBDD manager: flat int arrays, open-addressed tables.

This is the structure-of-arrays rewrite of :class:`repro.bdd.manager.BddManager`
(the NV §5.1 hash-consed diagram semantics are the unchanged contract; the
object engine remains the executable spec and the two are cross-checked by
``tests/bdd/test_arena_equivalence.py``).  Differences are purely
representational:

* A node is an index into three parallel ``array('i')`` columns ``var``,
  ``lo``, ``hi``.  Internal nodes store the tested level and two child ids;
  leaves store ``LEAF_LEVEL`` in ``var``, a packed reference into the leaf
  value list in ``lo`` and ``-1`` in ``hi``.  Contiguous int32 storage is
  cache-friendly (node ids are dense and children always precede parents)
  and snapshots of a diagram are two ``bytes`` blobs plus a leaf list.
* The unique table and the per-operation memo caches are open-addressed
  linear-probe int arrays with power-of-two capacity, multiplicative
  hashing and amortised rehash on load factor — no Python dicts, no tuple
  keys, no per-entry allocation on the hot path.
* There is one scalar kernel per MTBDD operation.  ``apply1``/``map_ite``
  and the boolean ops are closure-recursive and ``apply2`` is an explicit
  stack loop, all over locals bound to the arena columns: per node-pair
  they execute a handful of index/compare bytecodes, with the unique-table
  probe inlined.
* Bulk passes (reachability marking, ``sat_count``, ``leaves``,
  ``node_count`` and the unique-table rehash of a large arena) run
  vectorised over transient zero-copy ``numpy`` views of the arena when
  numpy is importable, with a pure-``array`` fallback so ``dependencies =
  []`` installs keep working (force the fallback with ``NV_BDD_NUMPY=0``).

Select the engine with ``NV_BDD_ENGINE=object|arena`` (see
:func:`repro.bdd.make_manager`).
"""

from __future__ import annotations

import itertools
import os
from array import array
from typing import Any, Callable, Iterator

from .. import metrics, obs
from .manager import GROWTH_SAMPLE_INTERVAL, LEAF_LEVEL, snapshot_bytes

__all__ = ["ArenaBddManager", "LEAF_LEVEL", "numpy_or_none"]

_manager_ids = itertools.count(1)

#: Node ids are packed two (or three) to an int key; 30 bits each.
_KEY_SHIFT = 30
_KEY_MASK = (1 << _KEY_SHIFT) - 1

#: Multipliers for the open-addressed tables.  Two constraints: they must
#: stay below 2**30 so ``id * mult`` keeps both operands on CPython's
#: single-digit fast multiply path, and their *low* 20+ bits must be well
#: mixed, because the slot index is the masked low bits of the sum — a
#: multiplier congruent to a small constant mod the capacity (e.g. the
#: classic 12582917, which is 5 mod 2**20) degenerates to a tiny stride on
#: dense sequential node ids and clusters the linear probes.
_MULT_A = 0x1B873593
_MULT_B = 0x19D699A5
_MULT_C = 741457

#: Smallest table capacities (power of two).  Managers are created per
#: analysis context, so the empty footprint stays a few KiB.
_UNIQUE_INIT_CAP = 1 << 10
_CACHE_INIT_CAP = 1 << 8

#: Sub-DAGs at or below this size use the Python reachability walk even when
#: numpy is present: the vectorised marking pass costs O(arena), which dwarfs
#: a small traversal (``leaf_groups`` issues many tiny ``sat_count`` calls).
_NP_REACHABLE_CUTOFF = 8192

#: Arena size above which a unique-table rehash uses the vectorised
#: claim-round rebuild instead of the scalar reinsertion loop.
_NP_REHASH_CUTOFF = 4096


def numpy_or_none():
    """The ``numpy`` module when importable and not disabled via
    ``NV_BDD_NUMPY=0``, else ``None`` (pure-``array`` fallback paths)."""
    if os.environ.get("NV_BDD_NUMPY", "").strip() == "0":
        return None
    try:
        import numpy
    except ImportError:  # optional dependency: dependencies = [] installs
        return None
    return numpy


def _live_gauges(m: "ArenaBddManager") -> dict[str, float]:
    """Heartbeat gauges: structural sizes plus the arena-specific capacity
    and load-factor signals the growth samples also carry."""
    return {
        "bdd.nodes": len(m._var),
        "bdd.unique_entries": m._unique_n,
        "bdd.unique_capacity": m._unique_cap,
        "bdd.unique_load": m._unique_n / m._unique_cap,
        "bdd.leaves": len(m._leaf_values),
        "bdd.op_cache_entries": m.op_cache_size(),
        "bdd.op_cache_capacity": m.op_cache_capacity(),
        "bdd.op_ops": m.op_hits + m.op_misses,
        "bdd.apply_ops": m.apply_hits + m.apply_misses,
    }


class ArenaBddManager:
    """Drop-in replacement for :class:`~repro.bdd.manager.BddManager` over a
    flat integer arena (see module docstring).  Public API, node-id
    semantics (hash-consing, canonical reduction, leaf sharing) and
    instrumentation counters match the object engine exactly."""

    def __init__(self, op_cache_limit: int = 1 << 20) -> None:
        # Node arena: parallel int32 columns.
        self._var = array("i")
        self._lo = array("i")
        self._hi = array("i")
        # Leaf store: values are arbitrary hashable Python objects, so they
        # live outside the int arena; _lo[n] is the index in here.
        self._leaf_values: list[Any] = []
        self._leaf_table: dict[Any, int] = {}
        # Open-addressed unique table: slots hold node ids (-1 = empty);
        # keys are compared against the arena columns, so nothing besides
        # the id is stored per entry.
        self._unique_cap = _UNIQUE_INIT_CAP
        self._unique = array("i", [-1]) * self._unique_cap
        self._unique_n = 0
        # Per-op memo caches: parallel key/value int arrays (-1 = empty).
        # band/bxor pack (a, b) into one int64 key; bite splits (c, t, e)
        # across an int64 and an int32 column; bnot keys on the operand.
        self.op_cache_limit = op_cache_limit
        self._init_op_caches()
        # Analysis caches (plain dicts, cold path): sat counts per
        # (root, num_vars) and the cross-call leaf_groups product memos.
        self._satcount_cache: dict[tuple[int, int], int] = {}
        self._leaf_groups_memo: dict[int, dict[int, dict[Any, int]]] = {}
        # Callbacks run by clear_caches so owners of derived caches (e.g.
        # MapContext's frozen-snapshot cache) can drop them in lockstep.
        self._clear_hooks: list[Callable[[], None]] = []
        # Instrumentation (same counters as the object engine).
        self.op_hits = 0
        self.op_misses = 0
        self.apply_hits = 0
        self.apply_misses = 0
        # Table-health telemetry (flushed by repro.telemetry when
        # NV_TELEMETRY is on): rehash/clear events are rare, so these plain
        # increments are free; probe-length histograms are *recomputed* by
        # scanning the tables on demand, never recorded per lookup.
        self.unique_rehashes = 0
        self.op_rehashes = 0
        self.op_cache_clears = 0
        # numpy for the large-arena unique-table rehash (None: the stdlib
        # reinsertion loop), captured once per manager.
        self._np = numpy_or_none()
        self._next_growth_sample = GROWTH_SAMPLE_INTERVAL
        metrics.register_weak_provider(
            f"bdd.arena.{next(_manager_ids)}", self, _live_gauges)
        self.false = self.leaf(False)
        self.true = self.leaf(True)

    def _init_op_caches(self) -> None:
        cap = _CACHE_INIT_CAP
        self._not_keys = array("i", [-1]) * cap
        self._not_vals = array("i", [0]) * cap
        self._not_cap, self._not_n = cap, 0
        self._and_keys = array("q", [-1]) * cap
        self._and_vals = array("i", [0]) * cap
        self._and_cap, self._and_n = cap, 0
        self._xor_keys = array("q", [-1]) * cap
        self._xor_vals = array("i", [0]) * cap
        self._xor_cap, self._xor_n = cap, 0
        self._ite_keys1 = array("q", [-1]) * cap
        self._ite_keys2 = array("i", [0]) * cap
        self._ite_vals = array("i", [0]) * cap
        self._ite_cap, self._ite_n = cap, 0

    # ------------------------------------------------------------------
    # Growth sampling (obs timeline)
    # ------------------------------------------------------------------

    def _growth_sample(self) -> None:
        self._next_growth_sample = len(self._var) + GROWTH_SAMPLE_INTERVAL
        if obs.is_enabled():
            obs.event("bdd.growth", nodes=len(self._var),
                      unique_entries=self._unique_n,
                      unique_capacity=self._unique_cap,
                      unique_load=round(self._unique_n / self._unique_cap, 3),
                      leaves=len(self._leaf_values),
                      op_cache_entries=self.op_cache_size(),
                      op_cache_capacity=self.op_cache_capacity(),
                      op_cache_hits=self.op_hits,
                      op_cache_misses=self.op_misses)

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def leaf(self, value: Any) -> int:
        """Return the hash-consed leaf node carrying ``value``."""
        try:
            node = self._leaf_table.get(value)
        except TypeError as exc:  # unhashable value
            raise TypeError(
                f"MTBDD leaf values must be hashable, got {value!r}") from exc
        if node is not None:
            return node
        node = len(self._var)
        self._var.append(LEAF_LEVEL)
        self._lo.append(len(self._leaf_values))
        self._hi.append(-1)
        self._leaf_values.append(value)
        self._leaf_table[value] = node
        return node

    def mk(self, level: int, lo: int, hi: int) -> int:
        """Return the (reduced, hash-consed) node testing ``level``."""
        if lo == hi:
            return lo
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        table = self._unique
        mask = self._unique_cap - 1
        h = (lo * 461845907 + hi * 433494437 + level) & mask
        while True:
            n = table[h]
            if n < 0:
                break
            if lo_a[n] == lo and hi_a[n] == hi and var_a[n] == level:
                return n
            h = (h + 1) & mask
        node = len(var_a)
        var_a.append(level)
        lo_a.append(lo)
        hi_a.append(hi)
        table[h] = node
        self._unique_n += 1
        if 3 * self._unique_n > 2 * self._unique_cap:
            self._grow_unique()
        if node >= self._next_growth_sample:
            self._growth_sample()
        return node

    def _grow_unique(self) -> None:
        self.unique_rehashes += 1
        cap = self._unique_cap * 2
        np = self._np
        if np is not None and len(self._var) > _NP_REHASH_CUTOFF:
            self._grow_unique_np(np, cap)
            return
        table = array("i", [-1]) * cap
        mask = cap - 1
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        for n in range(len(var_a)):
            if var_a[n] == LEAF_LEVEL:
                continue
            h = (lo_a[n] * 461845907 + hi_a[n] * 433494437 + var_a[n]) & mask
            while table[h] >= 0:
                h = (h + 1) & mask
            table[h] = n
        self._unique = table
        self._unique_cap = cap

    def _grow_unique_np(self, np, cap: int) -> None:
        """Vectorised rehash: every internal node re-inserts via parallel
        claim rounds — gather each pending node's slot, winners (first
        occurrence per empty slot, ``np.unique``) claim it, losers advance
        one step along their probe chain.  All nodes are distinct, so no
        key comparison is needed; the linear-probing reachability invariant
        holds because a node only ever steps past slots that are occupied
        by the time the round ends.

        The arena columns are read through zero-copy ``frombuffer`` views,
        dropped as soon as the hashes are gathered: a live buffer export
        would make the next ``array.append`` raise ``BufferError``."""
        var = np.frombuffer(self._var, dtype=np.int32)
        lo = np.frombuffer(self._lo, dtype=np.int32)
        hi = np.frombuffer(self._hi, dtype=np.int32)
        ids = np.nonzero(var != LEAF_LEVEL)[0]
        mask = np.int64(cap - 1)
        h = (lo[ids].astype(np.int64) * 461845907
             + hi[ids].astype(np.int64) * 433494437
             + var[ids]) & mask
        del var, lo, hi
        table = np.full(cap, -1, np.int32)
        done = np.zeros(ids.size, bool)
        pending = np.arange(ids.size)
        one = np.int64(1)
        while pending.size:
            slots = h[pending]
            empty = table[slots] < 0
            em = pending[empty]
            if em.size:
                uq, first = np.unique(slots[empty], return_index=True)
                win = em[first]
                table[uq] = ids[win].astype(np.int32)
                done[win] = True
            pending = pending[~done[pending]]
            h[pending] = (h[pending] + one) & mask
        out = array("i")
        out.frombytes(table.tobytes())
        self._unique = out
        self._unique_cap = cap

    def var(self, level: int) -> int:
        return self.mk(level, self.false, self.true)

    def nvar(self, level: int) -> int:
        return self.mk(level, self.true, self.false)

    # ------------------------------------------------------------------
    # Node inspection
    # ------------------------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        return self._var[node] == LEAF_LEVEL

    def leaf_value(self, node: int) -> Any:
        if self._var[node] != LEAF_LEVEL:
            raise ValueError(f"node {node} is not a leaf")
        return self._leaf_values[self._lo[node]]

    def level(self, node: int) -> int:
        return self._var[node]

    def lo(self, node: int) -> int:
        if self._var[node] == LEAF_LEVEL:
            return -1
        return self._lo[node]

    def hi(self, node: int) -> int:
        return self._hi[node]

    def size(self) -> int:
        return len(self._var)

    def node_count(self, root: int) -> int:
        """Number of distinct nodes (incl. leaves) reachable from ``root``."""
        return len(self._reachable(root))

    # ------------------------------------------------------------------
    # Reachability marking (numpy-vectorised with array fallback)
    # ------------------------------------------------------------------

    def _reachable(self, root: int):
        """Ids of nodes reachable from ``root``, ascending.  Children always
        precede parents in the arena, so ascending id order is a topological
        order of the sub-DAG (leaves first).

        The vectorised marking pass costs O(arena) regardless of the
        sub-DAG, so small diagrams (the common ``leaf_groups`` case) walk a
        capped Python DFS first and only fall through to numpy when the
        sub-DAG turns out to be large.
        """
        np = numpy_or_none()
        if np is None:
            return self._reachable_py(root)
        small = self._reachable_py_capped(root, _NP_REACHABLE_CUTOFF)
        if small is not None:
            return np.array(small, dtype=np.int64)
        var = np.frombuffer(self._var, dtype=np.int32)
        lo = np.frombuffer(self._lo, dtype=np.int32)
        hi = np.frombuffer(self._hi, dtype=np.int32)
        marked = np.zeros(len(self._var), dtype=bool)
        marked[root] = True
        frontier = np.array([root], dtype=np.int64)
        while frontier.size:
            # Only internal nodes have child edges: a leaf's lo column holds
            # a leaf-store index, not a node id, and must not be followed.
            inner = frontier[var[frontier] != LEAF_LEVEL]
            if inner.size == 0:
                break
            kids = np.concatenate((lo[inner], hi[inner])).astype(np.int64)
            kids = kids[~marked[kids]]
            if kids.size == 0:
                break
            marked[kids] = True
            frontier = np.unique(kids)
        return np.nonzero(marked)[0]

    def _reachable_py(self, root: int) -> list[int]:
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        seen = {root}
        stack = [root]
        push = stack.append
        pop = stack.pop
        add = seen.add
        while stack:
            n = pop()
            if var_a[n] != LEAF_LEVEL:
                c = lo_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                c = hi_a[n]
                if c not in seen:
                    add(c)
                    push(c)
        return sorted(seen)

    def _reachable_py_capped(self, root: int, cap: int) -> list[int] | None:
        """Like :meth:`_reachable_py`, but give up (return None) once more
        than ``cap`` nodes are discovered."""
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        seen = {root}
        stack = [root]
        push = stack.append
        pop = stack.pop
        add = seen.add
        while stack:
            n = pop()
            if var_a[n] != LEAF_LEVEL:
                c = lo_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                c = hi_a[n]
                if c not in seen:
                    add(c)
                    push(c)
                if len(seen) > cap:
                    return None
        return sorted(seen)

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def bnot(self, a: int) -> int:
        keys = self._not_keys
        mask = self._not_cap - 1
        h = a * _MULT_A & mask
        while True:
            k = keys[h]
            if k == a:
                self.op_hits += 1
                return self._not_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        if self._var[a] == LEAF_LEVEL:
            result = self.leaf(not self._leaf_values[self._lo[a]])
        else:
            result = self.mk(self._var[a], self.bnot(self._lo[a]),
                             self.bnot(self._hi[a]))
        self._not_store(a, result)
        return result

    def _not_store(self, key: int, value: int) -> None:
        if self._not_n >= self.op_cache_limit:
            cap = self._not_cap
            self._not_keys = array("i", [-1]) * cap
            self._not_n = 0
            self.op_cache_clears += 1
        elif 3 * self._not_n > 2 * self._not_cap:
            self.op_rehashes += 1
            self._not_keys, self._not_vals, self._not_cap = _rehash(
                self._not_keys, self._not_vals, self._not_cap, "i")
        keys = self._not_keys
        mask = self._not_cap - 1
        h = key * _MULT_A & mask
        while keys[h] >= 0:
            if keys[h] == key:
                self._not_vals[h] = value
                return
            h = (h + 1) & mask
        keys[h] = key
        self._not_vals[h] = value
        self._not_n += 1

    def band(self, a: int, b: int) -> int:
        if a == b:
            return a
        false = self.false
        if a == false or b == false:
            return false
        if a == self.true:
            return b
        if b == self.true:
            return a
        if a > b:
            a, b = b, a
        key = (a << _KEY_SHIFT) | b
        keys = self._and_keys
        mask = self._and_cap - 1
        h = (a * _MULT_A + b * _MULT_B) & mask
        while True:
            k = keys[h]
            if k == key:
                self.op_hits += 1
                return self._and_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        var_a = self._var
        la, lb = var_a[a], var_a[b]
        if la < lb:
            lvl = la
            r = self.mk(lvl, self.band(self._lo[a], b),
                        self.band(self._hi[a], b))
        elif lb < la:
            lvl = lb
            r = self.mk(lvl, self.band(a, self._lo[b]),
                        self.band(a, self._hi[b]))
        else:
            r = self.mk(la, self.band(self._lo[a], self._lo[b]),
                        self.band(self._hi[a], self._hi[b]))
        self._and_store(key, r)
        return r

    def _and_store(self, key: int, value: int) -> None:
        if self._and_n >= self.op_cache_limit:
            self._and_keys = array("q", [-1]) * self._and_cap
            self._and_n = 0
            self.op_cache_clears += 1
        elif 3 * self._and_n > 2 * self._and_cap:
            self.op_rehashes += 1
            self._and_keys, self._and_vals, self._and_cap = _rehash(
                self._and_keys, self._and_vals, self._and_cap, "q")
        keys = self._and_keys
        mask = self._and_cap - 1
        h = ((key >> _KEY_SHIFT) * _MULT_A + (key & _KEY_MASK) * _MULT_B) & mask
        while keys[h] >= 0:
            if keys[h] == key:
                self._and_vals[h] = value
                return
            h = (h + 1) & mask
        keys[h] = key
        self._and_vals[h] = value
        self._and_n += 1

    def bor(self, a: int, b: int) -> int:
        return self.bnot(self.band(self.bnot(a), self.bnot(b)))

    def bxor(self, a: int, b: int) -> int:
        if a == b:
            return self.false
        if a == self.false:
            return b
        if b == self.false:
            return a
        if a == self.true:
            return self.bnot(b)
        if b == self.true:
            return self.bnot(a)
        if a > b:
            a, b = b, a
        key = (a << _KEY_SHIFT) | b
        keys = self._xor_keys
        mask = self._xor_cap - 1
        h = (a * _MULT_A + b * _MULT_B) & mask
        while True:
            k = keys[h]
            if k == key:
                self.op_hits += 1
                return self._xor_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        var_a = self._var
        la, lb = var_a[a], var_a[b]
        lvl = la if la < lb else lb
        a0, a1 = (self._lo[a], self._hi[a]) if la == lvl else (a, a)
        b0, b1 = (self._lo[b], self._hi[b]) if lb == lvl else (b, b)
        r = self.mk(lvl, self.bxor(a0, b0), self.bxor(a1, b1))
        self._xor_store(key, r)
        return r

    def _xor_store(self, key: int, value: int) -> None:
        if self._xor_n >= self.op_cache_limit:
            self._xor_keys = array("q", [-1]) * self._xor_cap
            self._xor_n = 0
            self.op_cache_clears += 1
        elif 3 * self._xor_n > 2 * self._xor_cap:
            self.op_rehashes += 1
            self._xor_keys, self._xor_vals, self._xor_cap = _rehash(
                self._xor_keys, self._xor_vals, self._xor_cap, "q")
        keys = self._xor_keys
        mask = self._xor_cap - 1
        h = ((key >> _KEY_SHIFT) * _MULT_A + (key & _KEY_MASK) * _MULT_B) & mask
        while keys[h] >= 0:
            if keys[h] == key:
                self._xor_vals[h] = value
                return
            h = (h + 1) & mask
        keys[h] = key
        self._xor_vals[h] = value
        self._xor_n += 1

    def bimplies(self, a: int, b: int) -> int:
        return self.bor(self.bnot(a), b)

    def biff(self, a: int, b: int) -> int:
        return self.bnot(self.bxor(a, b))

    def bite(self, c: int, t: int, e: int) -> int:
        if c == self.true:
            return t
        if c == self.false:
            return e
        if t == e:
            return t
        key1 = (c << _KEY_SHIFT) | t
        keys1 = self._ite_keys1
        keys2 = self._ite_keys2
        mask = self._ite_cap - 1
        h = (c * _MULT_A + t * _MULT_B + e * _MULT_C) & mask
        while True:
            k = keys1[h]
            if k == key1 and keys2[h] == e:
                self.op_hits += 1
                return self._ite_vals[h]
            if k < 0:
                break
            h = (h + 1) & mask
        self.op_misses += 1
        var_a = self._var
        lvl = min(var_a[c], var_a[t], var_a[e])
        c0, c1 = self._cof(c, lvl)
        t0, t1 = self._cof(t, lvl)
        e0, e1 = self._cof(e, lvl)
        r = self.mk(lvl, self.bite(c0, t0, e0), self.bite(c1, t1, e1))
        self._ite_store(key1, e, r)
        return r

    def _ite_store(self, key1: int, key2: int, value: int) -> None:
        if self._ite_n >= self.op_cache_limit:
            cap = self._ite_cap
            self._ite_keys1 = array("q", [-1]) * cap
            self._ite_keys2 = array("i", [0]) * cap
            self._ite_n = 0
            self.op_cache_clears += 1
        elif 3 * self._ite_n > 2 * self._ite_cap:
            self.op_rehashes += 1
            cap = self._ite_cap * 2
            mask = cap - 1
            k1 = array("q", [-1]) * cap
            k2 = array("i", [0]) * cap
            vals = array("i", [0]) * cap
            old1, old2, oldv = self._ite_keys1, self._ite_keys2, self._ite_vals
            for i in range(self._ite_cap):
                ok = old1[i]
                if ok < 0:
                    continue
                h = ((ok >> _KEY_SHIFT) * _MULT_A
                     + (ok & _KEY_MASK) * _MULT_B + old2[i] * _MULT_C) & mask
                while k1[h] >= 0:
                    h = (h + 1) & mask
                k1[h] = ok
                k2[h] = old2[i]
                vals[h] = oldv[i]
            self._ite_keys1, self._ite_keys2, self._ite_vals = k1, k2, vals
            self._ite_cap = cap
        keys1 = self._ite_keys1
        mask = self._ite_cap - 1
        h = ((key1 >> _KEY_SHIFT) * _MULT_A
             + (key1 & _KEY_MASK) * _MULT_B + key2 * _MULT_C) & mask
        while keys1[h] >= 0:
            if keys1[h] == key1 and self._ite_keys2[h] == key2:
                self._ite_vals[h] = value
                return
            h = (h + 1) & mask
        keys1[h] = key1
        self._ite_keys2[h] = key2
        self._ite_vals[h] = value
        self._ite_n += 1

    def _cof(self, node: int, lvl: int) -> tuple[int, int]:
        if self._var[node] == lvl:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------
    # MTBDD operations (closure-recursive kernels)
    # ------------------------------------------------------------------

    def apply1(self, fn: Callable[[Any], Any], root: int,
               memo: dict[int, int] | None = None) -> int:
        """Map ``fn`` over every leaf of ``root`` (invoked once per distinct
        leaf; ``memo`` is keyed by node id and shareable across calls with
        the same ``fn``)."""
        if memo is None:
            memo = {}
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        leaf_values = self._leaf_values
        memo_get = memo.get
        mk = self.mk
        leaf = self.leaf
        utable = self._unique
        umask = self._unique_cap - 1
        hits = 0
        misses = 0

        # Memo lookups happen *before* recursing, so the number of Python
        # calls is proportional to cache misses, not to visited edges; the
        # unique-table probe is inlined (see mk) so the hot path constructs
        # nodes without a method call.
        def rec(n: int) -> int:
            nonlocal hits, misses, utable, umask
            misses += 1
            if var_a[n] == LEAF_LEVEL:
                r = leaf(fn(leaf_values[lo_a[n]]))
            else:
                c = lo_a[n]
                r0 = memo_get(c)
                if r0 is None:
                    r0 = rec(c)
                else:
                    hits += 1
                c = hi_a[n]
                r1 = memo_get(c)
                if r1 is None:
                    r1 = rec(c)
                else:
                    hits += 1
                if r0 == r1:
                    r = r0
                else:
                    v = var_a[n]
                    h = (r0 * 461845907 + r1 * 433494437 + v) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(v, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == v:
                            r = u
                            break
                        h = (h + 1) & umask
            memo[n] = r
            return r

        out = memo_get(root)
        if out is None:
            out = rec(root)
        else:
            hits += 1
        self.apply_hits += hits
        self.apply_misses += misses
        return out

    def apply2(self, fn: Callable[[Any, Any], Any], a: int, b: int,
               memo: dict[int, int] | None = None) -> int:
        """Combine two diagrams leaf-wise with ``fn``.  ``memo`` is keyed by
        the packed pair ``(x << 30) | y``; share it only between calls with
        the same ``fn``."""
        if memo is None:
            memo = {}
        key0 = (a << _KEY_SHIFT) | b
        out = memo.get(key0)
        if out is not None:
            self.apply_hits += 1
            return out
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        var_app = var_a.append
        lo_app = lo_a.append
        hi_app = hi_a.append
        leaf_values = self._leaf_values
        memo_get = memo.get
        leaf = self.leaf
        utable = self._unique
        umask = self._unique_cap - 1
        hits = 0
        misses = 0
        # Iterative kernel: no Python call per node-pair.  Memos are probed
        # *before* a child frame is pushed, so hit edges cost one dict probe
        # and no frame; node construction (unique probe + arena append) is
        # inlined.  Frames: (0, x, y) expand a pair known absent from the
        # memo; (1, key, lvl) combine the two results below; (2, r, 0)
        # re-emit a memo-hit result in post-order position.
        stack: list[tuple[int, int, int]] = [(0, a, b)]
        results: list[int] = []
        push = stack.append
        emit = results.append
        pop_r = results.pop
        while stack:
            tag, f1, f2 = stack.pop()
            if tag == 0:
                # Re-probe: a sibling's subtree may have resolved this pair
                # between the pre-push probe and now.
                r = memo_get((f1 << _KEY_SHIFT) | f2)
                if r is not None:
                    hits += 1
                    emit(r)
                    continue
                misses += 1
                lx = var_a[f1]
                ly = var_a[f2]
                if lx < ly:
                    lvl = lx
                    x0 = lo_a[f1]
                    x1 = hi_a[f1]
                    y0 = y1 = f2
                elif ly < lx:
                    lvl = ly
                    x0 = x1 = f1
                    y0 = lo_a[f2]
                    y1 = hi_a[f2]
                elif lx != LEAF_LEVEL:
                    lvl = lx
                    x0 = lo_a[f1]
                    x1 = hi_a[f1]
                    y0 = lo_a[f2]
                    y1 = hi_a[f2]
                else:
                    r = leaf(fn(leaf_values[lo_a[f1]], leaf_values[lo_a[f2]]))
                    if self._unique is not utable:
                        # fn re-entered the manager (merge functions over
                        # map-valued routes build nodes) and forced a
                        # rehash; the inline inserts below must probe the
                        # live table or duplicate ids break hash-consing.
                        utable = self._unique
                        umask = self._unique_cap - 1
                    memo[(f1 << _KEY_SHIFT) | f2] = r
                    emit(r)
                    continue
                k0 = (x0 << _KEY_SHIFT) | y0
                r0 = memo_get(k0)
                k1 = (x1 << _KEY_SHIFT) | y1
                r1 = memo_get(k1)
                if r0 is not None:
                    hits += 1
                    if r1 is not None:
                        # Both children cached: combine in place.
                        hits += 1
                        if r0 == r1:
                            r = r0
                        else:
                            h = (r0 * 461845907 + r1 * 433494437 + lvl) & umask
                            while True:
                                u = utable[h]
                                if u < 0:
                                    r = len(var_a)
                                    var_app(lvl)
                                    lo_app(r0)
                                    hi_app(r1)
                                    utable[h] = r
                                    n = self._unique_n + 1
                                    self._unique_n = n
                                    if 3 * n > 2 * self._unique_cap:
                                        self._grow_unique()
                                        utable = self._unique
                                        umask = self._unique_cap - 1
                                    if r >= self._next_growth_sample:
                                        self._growth_sample()
                                    break
                                if lo_a[u] == r0 and hi_a[u] == r1 \
                                        and var_a[u] == lvl:
                                    r = u
                                    break
                                h = (h + 1) & umask
                        memo[(f1 << _KEY_SHIFT) | f2] = r
                        emit(r)
                        continue
                    push((1, (f1 << _KEY_SHIFT) | f2, lvl))
                    emit(r0)
                    push((0, x1, y1))
                elif r1 is not None:
                    hits += 1
                    push((1, (f1 << _KEY_SHIFT) | f2, lvl))
                    push((2, r1, 0))
                    push((0, x0, y0))
                else:
                    push((1, (f1 << _KEY_SHIFT) | f2, lvl))
                    push((0, x1, y1))
                    push((0, x0, y0))
            elif tag == 1:
                r1 = pop_r()
                r0 = pop_r()
                if r0 == r1:
                    r = r0
                else:
                    h = (r0 * 461845907 + r1 * 433494437 + f2) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = len(var_a)
                            var_app(f2)
                            lo_app(r0)
                            hi_app(r1)
                            utable[h] = r
                            n = self._unique_n + 1
                            self._unique_n = n
                            if 3 * n > 2 * self._unique_cap:
                                self._grow_unique()
                                utable = self._unique
                                umask = self._unique_cap - 1
                            if r >= self._next_growth_sample:
                                self._growth_sample()
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 \
                                and var_a[u] == f2:
                            r = u
                            break
                        h = (h + 1) & umask
                memo[f1] = r
                emit(r)
            else:
                emit(f1)
        self.apply_hits += hits
        self.apply_misses += misses
        return results[0]

    def map_ite(self, pred: int, fn_true: Callable[[Any], Any],
                fn_false: Callable[[Any], Any], root: int,
                memo: dict[int, int] | None = None,
                memo_true: dict[int, int] | None = None,
                memo_false: dict[int, int] | None = None) -> int:
        """The NV ``mapIte`` primitive (fig 11 of the paper).

        ``memo`` (packed ``(pred << 30) | node`` keys) plus the two branch
        memos (``apply1`` keying) may be shared across calls with the same
        function pair — the simulator applies the same route policies every
        round, so cross-call sharing turns repeat rounds into cache hits.
        """
        if memo is None:
            memo = {}
        if memo_true is None:
            memo_true = {}
        if memo_false is None:
            memo_false = {}
        var_a = self._var
        lo_a = self._lo
        hi_a = self._hi
        leaf_values = self._leaf_values
        memo_get = memo.get
        true = self.true
        false = self.false
        mk = self.mk
        leaf = self.leaf
        hits = 0
        misses = 0

        memo_true_get = memo_true.get
        memo_false_get = memo_false.get
        utable = self._unique
        umask = self._unique_cap - 1

        # All three kernels look memos up *before* recursing (Python calls
        # ∝ cache misses, not visited edges) and inline the unique-table
        # probe (see mk) so node construction needs no method call.
        def rec_t(n: int) -> int:  # apply1(fn_true) specialised
            nonlocal hits, misses, utable, umask
            misses += 1
            if var_a[n] == LEAF_LEVEL:
                r = leaf(fn_true(leaf_values[lo_a[n]]))
            else:
                c = lo_a[n]
                r0 = memo_true_get(c)
                if r0 is None:
                    r0 = rec_t(c)
                else:
                    hits += 1
                c = hi_a[n]
                r1 = memo_true_get(c)
                if r1 is None:
                    r1 = rec_t(c)
                else:
                    hits += 1
                if r0 == r1:
                    r = r0
                else:
                    v = var_a[n]
                    h = (r0 * 461845907 + r1 * 433494437 + v) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(v, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == v:
                            r = u
                            break
                        h = (h + 1) & umask
            memo_true[n] = r
            return r

        def rec_f(n: int) -> int:  # apply1(fn_false) specialised
            nonlocal hits, misses, utable, umask
            misses += 1
            if var_a[n] == LEAF_LEVEL:
                r = leaf(fn_false(leaf_values[lo_a[n]]))
            else:
                c = lo_a[n]
                r0 = memo_false_get(c)
                if r0 is None:
                    r0 = rec_f(c)
                else:
                    hits += 1
                c = hi_a[n]
                r1 = memo_false_get(c)
                if r1 is None:
                    r1 = rec_f(c)
                else:
                    hits += 1
                if r0 == r1:
                    r = r0
                else:
                    v = var_a[n]
                    h = (r0 * 461845907 + r1 * 433494437 + v) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(v, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == v:
                            r = u
                            break
                        h = (h + 1) & umask
            memo_false[n] = r
            return r

        def rec(p: int, m: int, key: int) -> int:
            nonlocal hits, utable, umask
            if p == true:
                r = memo_true_get(m)
                if r is None:
                    r = rec_t(m)
                else:
                    hits += 1
            elif p == false:
                r = memo_false_get(m)
                if r is None:
                    r = rec_f(m)
                else:
                    hits += 1
            else:
                lp = var_a[p]
                lm = var_a[m]
                if lp < lm:
                    lvl = lp
                    p0, p1 = lo_a[p], hi_a[p]
                    m0 = m1 = m
                elif lm < lp:
                    lvl = lm
                    p0 = p1 = p
                    m0, m1 = lo_a[m], hi_a[m]
                else:
                    lvl = lp
                    p0, p1 = lo_a[p], hi_a[p]
                    m0, m1 = lo_a[m], hi_a[m]
                k = (p0 << _KEY_SHIFT) | m0
                r0 = memo_get(k)
                if r0 is None:
                    r0 = rec(p0, m0, k)
                k = (p1 << _KEY_SHIFT) | m1
                r1 = memo_get(k)
                if r1 is None:
                    r1 = rec(p1, m1, k)
                if r0 == r1:
                    r = r0
                else:
                    h = (r0 * 461845907 + r1 * 433494437 + lvl) & umask
                    while True:
                        u = utable[h]
                        if u < 0:
                            r = mk(lvl, r0, r1)
                            if self._unique is not utable:  # rehashed
                                utable = self._unique
                                umask = self._unique_cap - 1
                            break
                        if lo_a[u] == r0 and hi_a[u] == r1 and var_a[u] == lvl:
                            r = u
                            break
                        h = (h + 1) & umask
            memo[key] = r
            return r

        key0 = (pred << _KEY_SHIFT) | root
        out = memo_get(key0)
        if out is None:
            out = rec(pred, root, key0)
        self.apply_hits += hits
        self.apply_misses += misses
        return out

    # ------------------------------------------------------------------
    # Path evaluation
    # ------------------------------------------------------------------

    def restrict_eval(self, root: int, assignment: Callable[[int], bool]) -> Any:
        var_a = self._var
        n = root
        while var_a[n] != LEAF_LEVEL:
            n = self._hi[n] if assignment(var_a[n]) else self._lo[n]
        return self._leaf_values[self._lo[n]]

    def set_path(self, root: int, bits: list[tuple[int, bool]],
                 value_leaf: int) -> int:
        var_a = self._var

        def rec(n: int, i: int) -> int:
            if i == len(bits):
                return value_leaf
            lvl, bit = bits[i]
            nl = var_a[n]
            if nl == lvl:
                lo, hi = self._lo[n], self._hi[n]
            elif nl > lvl:  # variable absent: both children are n itself
                lo, hi = n, n
            else:
                raise ValueError(
                    "set_path bits must cover all levels above the map's leaves")
            if bit:
                return self.mk(lvl, lo, rec(hi, i + 1))
            return self.mk(lvl, rec(lo, i + 1), hi)

        return rec(root, 0)

    def get_path(self, root: int, bits: dict[int, bool]) -> Any:
        var_a = self._var
        n = root
        while var_a[n] != LEAF_LEVEL:
            n = self._hi[n] if bits.get(var_a[n], False) else self._lo[n]
        return self._leaf_values[self._lo[n]]

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def leaves(self, root: int) -> list[Any]:
        """Distinct leaf values reachable from ``root``."""
        var_a = self._var
        lo_a = self._lo
        np = numpy_or_none()
        if np is not None:
            ids = self._reachable(root)
            var = np.frombuffer(var_a, dtype=np.int32)
            return [self._leaf_values[lo_a[int(n)]]
                    for n in ids[var[ids] == LEAF_LEVEL]]
        return [self._leaf_values[lo_a[n]] for n in self._reachable_py(root)
                if var_a[n] == LEAF_LEVEL]

    def sat_count(self, root: int, num_vars: int) -> int:
        return self.sat_count_from(root, 0, num_vars)

    def sat_count_from(self, root: int, lvl: int, num_vars: int) -> int:
        """Assignments over variables ``lvl..num_vars-1`` reaching a truthy
        leaf.  Vectorised bottom-up over the reachable sub-DAG when numpy is
        available (ascending ids are a topological order); pure-Python
        otherwise, and always when counts could overflow int64."""
        var_a = self._var
        top = var_a[root]
        start = num_vars if top == LEAF_LEVEL else top
        if start < lvl:
            raise ValueError("diagram tests variables above the requested range")
        # Counts depend only on the (immutable) sub-DAG, so they are cached
        # across calls — ``leaf_groups`` re-counts the same domain regions
        # for every map it is asked about.
        cache = self._satcount_cache
        count = cache.get((root, num_vars))
        if count is None:
            # Small sub-DAGs (the common leaf_groups case) are counted with
            # a plain dict sweep; large ones use the vectorised per-level
            # pass.
            ids = self._reachable_py_capped(root, _NP_REACHABLE_CUTOFF)
            np = numpy_or_none()
            if ids is None and np is not None and num_vars < 62:
                count = self._sat_count_np(np, root, num_vars)
            else:
                if ids is None:
                    ids = self._reachable_py(root)
                count = self._sat_count_py(ids, root, num_vars)
            cache[(root, num_vars)] = count
        return count << (start - lvl)

    def _sat_count_np(self, np, root: int, num_vars: int) -> int:
        """Counts over variables strictly below each node's own level,
        computed level-by-level: children sit at strictly higher levels than
        their parents, so sweeping levels bottom-up resolves every child
        dependency with one vectorised shift-and-add per level."""
        ids = np.asarray(self._reachable(root), dtype=np.int64)
        var = np.frombuffer(self._var, dtype=np.int32)[ids].astype(np.int64)
        lo = np.frombuffer(self._lo, dtype=np.int32)[ids]
        hi = np.frombuffer(self._hi, dtype=np.int32)[ids]
        # Effective level: leaves count from num_vars.
        eff = np.where(var == LEAF_LEVEL, num_vars, var)
        # Dense renumbering of the sub-DAG (ids ascending -> topological).
        slot = np.full(int(ids[-1]) + 1, -1, dtype=np.int64)
        slot[ids] = np.arange(ids.size)
        counts = np.zeros(ids.size, dtype=np.int64)
        is_leaf = var == LEAF_LEVEL
        truthy = [bool(self._leaf_values[int(r)]) for r in lo[is_leaf]]
        counts[is_leaf] = np.array(truthy, dtype=np.int64)
        internal = np.nonzero(~is_leaf)[0]
        if internal.size:
            lo_slot = slot[lo[internal]]
            hi_slot = slot[hi[internal]]
            lvl = var[internal]
            lo_skip = eff[lo_slot] - (lvl + 1)
            hi_skip = eff[hi_slot] - (lvl + 1)
            for level in np.unique(lvl)[::-1]:
                sel = np.nonzero(lvl == level)[0]
                counts[internal[sel]] = (
                    np.left_shift(counts[lo_slot[sel]], lo_skip[sel])
                    + np.left_shift(counts[hi_slot[sel]], hi_skip[sel]))
        return int(counts[slot[root]])

    def _sat_count_py(self, ids: list[int], root: int, num_vars: int) -> int:
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        leaf_values = self._leaf_values
        counts: dict[int, int] = {}
        for n in ids:
            v = var_a[n]
            if v == LEAF_LEVEL:
                counts[n] = 1 if leaf_values[lo_a[n]] else 0
            else:
                lo, hi = lo_a[n], hi_a[n]
                lo_eff = num_vars if var_a[lo] == LEAF_LEVEL else var_a[lo]
                hi_eff = num_vars if var_a[hi] == LEAF_LEVEL else var_a[hi]
                counts[n] = (counts[lo] << (lo_eff - v - 1)) + \
                            (counts[hi] << (hi_eff - v - 1))
        return counts[root]

    def leaf_groups(self, root: int, num_vars: int,
                    domain: int | None = None) -> dict[Any, int]:
        """Each distinct leaf value with the number of (valid) keys reaching
        it — the paper's dynamically discovered failure-equivalence classes."""
        if domain is None:
            domain = self.true
        var_a = self._var
        lo_a = self._lo
        leaf_values = self._leaf_values
        false = self.false
        # The (map node, domain node) product memo is shared across calls:
        # an analysis reports every network node's map against one domain,
        # and converged maps share most of their structure.  Entries are
        # never mutated after insertion, so cross-call reuse is safe.
        memo = self._leaf_groups_memo.setdefault(num_vars, {})

        def top(n: int, d: int) -> int:
            t = min(var_a[n], var_a[d])
            return num_vars if t == LEAF_LEVEL else t

        def rec(n: int, d: int) -> dict[Any, int]:
            if d == false:
                return {}
            key = (n << _KEY_SHIFT) | d
            cached = memo.get(key)
            if cached is not None:
                return cached
            if var_a[n] == LEAF_LEVEL:
                cnt = self.sat_count_from(d, top(n, d), num_vars)
                result = {leaf_values[lo_a[n]]: cnt} if cnt else {}
            else:
                lvl = top(n, d)
                n0, n1 = self._cof(n, lvl)
                d0, d1 = self._cof(d, lvl)
                result = {}
                for nn, dd in ((n0, d0), (n1, d1)):
                    sub = rec(nn, dd)
                    scale = top(nn, dd) - (lvl + 1)
                    for value, cnt in sub.items():
                        result[value] = result.get(value, 0) + (cnt << scale)
            memo[key] = result
            return result

        base = rec(root, domain)
        scale = top(root, domain)
        return {value: cnt << scale for value, cnt in base.items()}

    def any_sat(self, root: int, num_vars: int) -> dict[int, bool] | None:
        if root == self.false:
            return None
        var_a = self._var
        assignment: dict[int, bool] = {}
        n = root
        while var_a[n] != LEAF_LEVEL:
            lvl = var_a[n]
            if self._lo[n] != self.false:
                assignment[lvl] = False
                n = self._lo[n]
            else:
                assignment[lvl] = True
                n = self._hi[n]
        if not self._leaf_values[self._lo[n]]:
            return None
        for lvl in range(num_vars):
            assignment.setdefault(lvl, False)
        return assignment

    def iter_paths(self, root: int, num_vars: int
                   ) -> Iterator[tuple[dict[int, bool], Any]]:
        var_a = self._var
        path: dict[int, bool] = {}

        def rec(n: int) -> Iterator[tuple[dict[int, bool], Any]]:
            if var_a[n] == LEAF_LEVEL:
                yield dict(path), self._leaf_values[self._lo[n]]
                return
            lvl = var_a[n]
            path[lvl] = False
            yield from rec(self._lo[n])
            path[lvl] = True
            yield from rec(self._hi[n])
            del path[lvl]

        yield from rec(root)

    # ------------------------------------------------------------------
    # Snapshots (FrozenMap transport)
    # ------------------------------------------------------------------

    def snapshot(self, root: int) -> tuple[bytes, list[Any]]:
        """Canonical flat snapshot of the sub-DAG rooted at ``root``.

        Nodes are renumbered in DFS preorder (lo before hi, root = 0) into
        one ``array('i')`` of ``(var, lo, hi)`` triples; leaves store ``-1``
        in var and an index into the returned leaf list.  Equal diagrams —
        across engines and across processes — produce byte-identical blobs,
        so :class:`~repro.eval.maps.FrozenMap` equality stays structural.
        """
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        leaf_values = self._leaf_values
        out = array("i")
        leaves: list[Any] = []
        renum: dict[int, int] = {}

        def rec(n: int) -> int:
            new = renum.get(n)
            if new is not None:
                return new
            new = len(renum)
            renum[n] = new
            base = len(out)
            out.extend((0, 0, 0))  # placeholder triple at slot `new`
            if var_a[n] == LEAF_LEVEL:
                out[base] = -1
                out[base + 1] = len(leaves)
                out[base + 2] = -1
                leaves.append(leaf_values[lo_a[n]])
            else:
                out[base] = var_a[n]
                out[base + 1] = rec(lo_a[n])
                out[base + 2] = rec(hi_a[n])
            return new

        rec(root)
        return snapshot_bytes(out), leaves

    # ------------------------------------------------------------------
    # Cache management and instrumentation
    # ------------------------------------------------------------------

    def register_clear_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` whenever :meth:`clear_caches` drops the memo tables
        (used by owners of caches derived from this manager's nodes)."""
        self._clear_hooks.append(hook)

    def clear_caches(self) -> None:
        """Drop operation memo tables and their load counters.  Unique and
        leaf tables are untouched, so hash-consed node identity survives."""
        self._init_op_caches()
        self._satcount_cache.clear()
        self._leaf_groups_memo.clear()
        for hook in self._clear_hooks:
            hook()

    def op_cache_size(self) -> int:
        """Live entries across the operation memo tables (load counters are
        reset by :meth:`clear_caches`, so gauges never report stale sizes)."""
        return self._not_n + self._and_n + self._xor_n + self._ite_n

    def op_cache_capacity(self) -> int:
        """Total slots allocated across the operation memo tables."""
        return self._not_cap + self._and_cap + self._xor_cap + self._ite_cap

    def stats(self) -> dict[str, int]:
        return {
            "nodes": len(self._var),
            "unique_entries": self._unique_n,
            "unique_capacity": self._unique_cap,
            "leaves": len(self._leaf_values),
            "op_cache_entries": self.op_cache_size(),
            "op_cache_capacity": self.op_cache_capacity(),
            "op_cache_hits": self.op_hits,
            "op_cache_misses": self.op_misses,
            "apply_cache_hits": self.apply_hits,
            "apply_cache_misses": self.apply_misses,
        }

    # ------------------------------------------------------------------
    # Kernel telemetry (NV_TELEMETRY; see repro.telemetry)
    # ------------------------------------------------------------------

    def probe_length_counts(self) -> dict[str, dict[int, int]]:
        """Exact probe-length distributions (``length -> entries``) of the
        unique table and every op cache, recomputed by scanning the tables.

        Linear probing with stride 1 and no deletions means an entry at
        slot ``s`` whose key hashes to home slot ``h`` is found after
        ``((s - h) mod cap) + 1`` probes — so the distribution is
        recoverable from the table alone, with zero hot-path bookkeeping.
        The home-slot computations below must mirror the probe sites
        (``mk``/``bnot``/``band``/``bxor``/``bite``) exactly;
        ``tests/bdd/test_telemetry.py`` cross-checks them against a
        brute-force re-probe of every stored key.
        """
        counts: dict[int, int] = {}
        table = self._unique
        cap = self._unique_cap
        mask = cap - 1
        var_a, lo_a, hi_a = self._var, self._lo, self._hi
        for s in range(cap):
            n = table[s]
            if n < 0:
                continue
            h = (lo_a[n] * 461845907 + hi_a[n] * 433494437 + var_a[n]) & mask
            d = ((s - h) & mask) + 1
            counts[d] = counts.get(d, 0) + 1
        return {
            "unique": counts,
            "op_not": _probe_counts_single(self._not_keys, self._not_cap),
            "op_and": _probe_counts_packed(self._and_keys, self._and_cap),
            "op_xor": _probe_counts_packed(self._xor_keys, self._xor_cap),
            "op_ite": _probe_counts_ite(self._ite_keys1, self._ite_keys2,
                                        self._ite_cap),
        }

    def telemetry(self) -> tuple[dict[str, int], dict[str, Any]]:
        """``(counters, histograms)`` for :func:`repro.telemetry.flush_manager`:
        rehash/clear event counts plus log2 probe-length histograms."""
        from .. import telemetry as _telemetry

        counters = {
            "unique_rehashes": self.unique_rehashes,
            "op_rehashes": self.op_rehashes,
            "op_cache_clears": self.op_cache_clears,
        }
        hists = {
            f"{name}_probe_len": _telemetry.histogram_from_counts(c)
            for name, c in self.probe_length_counts().items() if c
        }
        return counters, hists


def _probe_counts_single(keys, cap: int) -> dict[int, int]:
    """Probe-length counts of a single-int-key op table (home slot
    ``key * _MULT_A & mask`` — the ``bnot`` probe site)."""
    mask = cap - 1
    counts: dict[int, int] = {}
    for s in range(cap):
        k = keys[s]
        if k < 0:
            continue
        h = k * _MULT_A & mask
        d = ((s - h) & mask) + 1
        counts[d] = counts.get(d, 0) + 1
    return counts


def _probe_counts_packed(keys, cap: int) -> dict[int, int]:
    """Probe-length counts of a packed-pair op table (home slot
    ``(a * _MULT_A + b * _MULT_B) & mask`` — the ``band``/``bxor`` sites)."""
    mask = cap - 1
    counts: dict[int, int] = {}
    for s in range(cap):
        k = keys[s]
        if k < 0:
            continue
        h = ((k >> _KEY_SHIFT) * _MULT_A + (k & _KEY_MASK) * _MULT_B) & mask
        d = ((s - h) & mask) + 1
        counts[d] = counts.get(d, 0) + 1
    return counts


def _probe_counts_ite(keys1, keys2, cap: int) -> dict[int, int]:
    """Probe-length counts of the three-operand ite table (home slot
    ``(c * _MULT_A + t * _MULT_B + e * _MULT_C) & mask``)."""
    mask = cap - 1
    counts: dict[int, int] = {}
    for s in range(cap):
        k1 = keys1[s]
        if k1 < 0:
            continue
        h = ((k1 >> _KEY_SHIFT) * _MULT_A + (k1 & _KEY_MASK) * _MULT_B
             + keys2[s] * _MULT_C) & mask
        d = ((s - h) & mask) + 1
        counts[d] = counts.get(d, 0) + 1
    return counts


def _rehash(keys, vals, cap: int, key_typecode: str):
    """Double an open-addressed key/value table (single-key variant).

    ``'i'`` tables key on one node id, ``'q'`` tables on a packed pair —
    the hash must match the probe sites exactly, or lookups walk the wrong
    chain and silently miss."""
    new_cap = cap * 2
    mask = new_cap - 1
    new_keys = array(key_typecode, [-1]) * new_cap
    new_vals = array("i", [0]) * new_cap
    packed = key_typecode == "q"
    for i in range(cap):
        k = keys[i]
        if k < 0:
            continue
        if packed:
            h = ((k >> _KEY_SHIFT) * _MULT_A + (k & _KEY_MASK) * _MULT_B) & mask
        else:
            h = k * _MULT_A & mask
        while new_keys[h] >= 0:
            h = (h + 1) & mask
        new_keys[h] = k
        new_vals[h] = vals[i]
    return new_keys, new_vals, new_cap
