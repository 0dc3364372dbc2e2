"""Property tests: the BDD manager against a brute-force truth-table oracle.

Each randomly generated op program is interpreted twice: once on a
:class:`~repro.bdd.manager.BddManager`, and once as plain truth tables —
one tuple of ``2**NUM_VARS`` leaf values per diagram, indexed by the
assignment whose bit ``l`` is the value of the variable at level ``l``.
Every observable of every diagram the program built is then compared at
every assignment: ``restrict_eval``/``get_path``, ``sat_count``,
``leaf_groups`` (with and without a domain), ``leaves``, ``any_sat`` and
the coverage of ``iter_paths``.  Canonicity is checked over the whole
pool: equal truth tables ⇔ equal node ids ⇔ equal ``snapshot`` blobs, and
blobs are identical across managers with different allocation histories
(the FrozenMap transport relies on that).  Runs with ``op_cache_limit=1``
and with ``clear_caches`` interleaved mid-run must pass too: memo tables
are semantically transparent.
"""

import itertools
import pickle
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BddManager, LEAF_LEVEL

NUM_VARS = 8
SPACE = range(1 << NUM_VARS)

FN1 = {
    "id": lambda v: v,
    "tag": lambda v: ("t", v),
    "str": lambda v: str(v),
    "neg": lambda v: not v,
}
FN2 = {
    "pair": lambda a, b: (a, b),
    "or": lambda a, b: bool(a) or bool(b),
    "left": lambda a, b: a,
}

_values = st.sampled_from([False, True, 0, 1, 2, 7, "a", "b"])
_levels = st.integers(0, NUM_VARS - 1)
_idx = st.integers(0, 63)
_fn1 = st.sampled_from(sorted(FN1))
_fn2 = st.sampled_from(sorted(FN2))

_op = st.one_of(
    st.tuples(st.just("leaf"), _values),
    st.tuples(st.just("var"), _levels),
    st.tuples(st.just("nvar"), _levels),
    st.tuples(st.just("bnot"), _idx),
    st.tuples(st.sampled_from(["band", "bor", "bxor", "biff", "bimplies"]),
              _idx, _idx),
    st.tuples(st.just("bite"), _idx, _idx, _idx),
    st.tuples(st.just("apply1"), _fn1, _idx),
    st.tuples(st.just("apply2"), _fn2, _idx, _idx),
    st.tuples(st.just("map_ite"), _idx, _fn1, _fn1, _idx),
    st.tuples(st.just("set_path"), _idx,
              st.lists(st.booleans(), min_size=NUM_VARS, max_size=NUM_VARS),
              _values),
    st.tuples(st.just("mk"), _levels, _idx, _idx),
)
_programs = st.lists(_op, min_size=1, max_size=24)


def _bit(a, lvl):
    return bool((a >> lvl) & 1)


def _index(bits):
    """The assignment index of a total ``level -> bool`` mapping."""
    return sum(1 << lvl for lvl, b in bits.items() if b)


def _top_level(t):
    """The top level of the reduced diagram of table ``t``: its least
    support variable."""
    for lvl in range(NUM_VARS):
        if any(t[a] != t[a ^ (1 << lvl)] for a in SPACE):
            return lvl
    return LEAF_LEVEL


class TruthTables:
    """The oracle: the manager API over explicit truth tables.

    A diagram *is* its table.  Leaf values are interned the way the
    manager's leaf table interns them (``0 == False``, ``1 == True``,
    first-seen representative wins; the manager mints ``False`` and
    ``True`` first), so callbacks such as ``str`` see the same value on
    both sides."""

    def __init__(self):
        self._interned = {False: False, True: True}
        self.false = self.leaf(False)
        self.true = self.leaf(True)

    def leaf(self, value):
        return (self._interned.setdefault(value, value),) * len(SPACE)

    def _table(self, fn):
        return tuple(self._interned.setdefault(v, v)
                     for v in (fn(a) for a in SPACE))

    level = staticmethod(_top_level)

    def var(self, lvl):
        return self._table(lambda a: _bit(a, lvl))

    def nvar(self, lvl):
        return self._table(lambda a: not _bit(a, lvl))

    def bnot(self, x):
        return self._table(lambda a: not x[a])

    def band(self, x, y):
        return self._table(lambda a: x[a] and y[a])

    def bor(self, x, y):
        return self._table(lambda a: x[a] or y[a])

    def bxor(self, x, y):
        return self._table(lambda a: x[a] != y[a])

    def biff(self, x, y):
        return self._table(lambda a: x[a] == y[a])

    def bimplies(self, x, y):
        return self._table(lambda a: (not x[a]) or y[a])

    def bite(self, c, t, e):
        return self._table(lambda a: t[a] if c[a] else e[a])

    def apply1(self, fn, x):
        return self._table(lambda a: fn(x[a]))

    def apply2(self, fn, x, y):
        return self._table(lambda a: fn(x[a], y[a]))

    def map_ite(self, p, f, g, x):
        return self._table(lambda a: f(x[a]) if p[a] else g(x[a]))

    def set_path(self, x, bits, value):
        target = _index(dict(bits))
        return self._table(lambda a: value[a] if a == target else x[a])

    def mk(self, lvl, lo, hi):
        return self._table(lambda a: hi[a] if _bit(a, lvl) else lo[a])


def _run(mgr, program, clear_every=None):
    """Interpret ``program``, returning the boolean and MTBDD roots built.

    Register indices are taken modulo the current pool size, so any index
    stream is valid; every choice depends only on diagram semantics, hence
    runs identically on the manager and on :class:`TruthTables`.
    """
    bools = [mgr.false, mgr.true]
    maps = [mgr.leaf(0)]
    for step, op in enumerate(program):
        if clear_every is not None and step % clear_every == clear_every - 1:
            mgr.clear_caches()
        kind = op[0]
        if kind == "leaf":
            maps.append(mgr.leaf(op[1]))
        elif kind == "var":
            bools.append(mgr.var(op[1]))
        elif kind == "nvar":
            bools.append(mgr.nvar(op[1]))
        elif kind == "bnot":
            bools.append(mgr.bnot(bools[op[1] % len(bools)]))
        elif kind in ("band", "bor", "bxor", "biff", "bimplies"):
            a = bools[op[1] % len(bools)]
            b = bools[op[2] % len(bools)]
            bools.append(getattr(mgr, kind)(a, b))
        elif kind == "bite":
            c, t, e = (bools[i % len(bools)] for i in op[1:])
            bools.append(mgr.bite(c, t, e))
        elif kind == "apply1":
            maps.append(mgr.apply1(FN1[op[1]], maps[op[2] % len(maps)]))
        elif kind == "apply2":
            maps.append(mgr.apply2(FN2[op[1]], maps[op[2] % len(maps)],
                                   maps[op[3] % len(maps)]))
        elif kind == "map_ite":
            maps.append(mgr.map_ite(bools[op[1] % len(bools)],
                                    FN1[op[2]], FN1[op[3]],
                                    maps[op[4] % len(maps)]))
        elif kind == "set_path":
            # A full key assignment: set_path must cover every level the
            # map tests on the way to the rewritten leaf.
            maps.append(mgr.set_path(maps[op[1] % len(maps)],
                                     list(enumerate(op[2])),
                                     mgr.leaf(op[3])))
        elif kind == "mk":
            lvl = op[1]
            lo = maps[op[2] % len(maps)]
            hi = maps[op[3] % len(maps)]
            if mgr.level(lo) <= lvl or mgr.level(hi) <= lvl:
                lo, hi = mgr.leaf("L"), mgr.leaf("H")  # keep it canonical
            maps.append(mgr.mk(lvl, lo, hi))
        else:  # pragma: no cover - strategy and interpreter out of sync
            raise AssertionError(f"unknown op {kind}")
    return bools, maps


def _same(x, y):
    """Leaf-value equality that also tells ``0`` from ``False``."""
    return x == y and repr(x) == repr(y)


def _groups(counts):
    """``value -> count`` with repr keys, so ``0`` and ``False`` differ."""
    return {repr(v): n for v, n in counts.items()}


def _check_diagram(mgr, node, table, domains, is_bool):
    """Every observable of one diagram against its truth table."""
    assert mgr.level(node) == _top_level(table)
    for a in SPACE:
        bits = {lvl: _bit(a, lvl) for lvl in range(NUM_VARS)}
        assert _same(mgr.restrict_eval(node, bits.__getitem__), table[a])
        assert _same(mgr.get_path(node, bits), table[a])
    assert mgr.sat_count(node, NUM_VARS) == sum(1 for v in table if v)
    assert sorted(map(repr, mgr.leaves(node))) == sorted(set(map(repr, table)))
    assert _groups(mgr.leaf_groups(node, NUM_VARS)) == _groups(Counter(table))
    for d_node, d_table in domains:
        assert _groups(mgr.leaf_groups(node, NUM_VARS, d_node)) == _groups(
            Counter(v for v, keep in zip(table, d_table) if keep))
    covered = Counter()
    for partial, value in mgr.iter_paths(node, NUM_VARS):
        free = [lvl for lvl in range(NUM_VARS) if lvl not in partial]
        for choice in itertools.product((False, True), repeat=len(free)):
            a = _index({**partial, **dict(zip(free, choice))})
            assert _same(value, table[a])
            covered[a] += 1
    assert covered == Counter(SPACE)  # the paths partition the key space
    if is_bool:
        sat = mgr.any_sat(node, NUM_VARS)
        if sat is None:
            assert not any(table)
        else:
            assert sorted(sat) == list(range(NUM_VARS))
            assert table[_index(sat)] is True


def _check(program, mgr, clear_every=None):
    oracle = TruthTables()
    o_bools, o_maps = _run(oracle, program)
    bools, maps = _run(mgr, program, clear_every)
    # A second manager with a different allocation history: node ids
    # differ, canonical snapshot blobs may not.
    other = BddManager()
    for lvl in reversed(range(NUM_VARS)):
        other.mk(lvl, other.leaf(("pad", lvl)), other.true)
    other_nodes = sum(_run(other, program), [])

    nodes = bools + maps
    tables = o_bools + o_maps
    domains = list(zip(bools, o_bools))[-3:]
    for i, (node, table) in enumerate(zip(nodes, tables)):
        _check_diagram(mgr, node, table, domains, i < len(bools))
    snaps = [mgr.snapshot(n) for n in nodes]
    for i, j in itertools.combinations(range(len(nodes)), 2):
        same_table = tables[i] == tables[j]
        assert same_table == (nodes[i] == nodes[j]) == (snaps[i] == snaps[j])
    for snap, n in zip(snaps, other_nodes):
        assert other.snapshot(n) == snap


@settings(max_examples=60, deadline=None)
@given(_programs)
def test_manager_matches_truth_tables(program):
    _check(program, BddManager())


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_oracle_survives_cache_limit_one(program):
    # A one-entry op cache thrashes every memo table; results must not move.
    _check(program, BddManager(op_cache_limit=1))


@settings(max_examples=25, deadline=None)
@given(_programs)
def test_oracle_survives_mid_run_clear_caches(program):
    _check(program, BddManager(), clear_every=3)


def _all_functions(mgr, num_vars):
    """Every boolean function of levels ``0..num_vars-1``, built through
    ``mk`` from its truth table (same indexing as :class:`TruthTables`)."""

    def build(table, lvl):
        if lvl == num_vars:
            return mgr.leaf(table[0])
        return mgr.mk(lvl, build(table[0::2], lvl + 1),
                      build(table[1::2], lvl + 1))

    return {table: build(table, 0)
            for table in itertools.product((False, True),
                                           repeat=1 << num_vars)}


def test_boolean_ops_exhaustive():
    """Random programs rarely hand a binary kernel two operands that test
    the same top variable, the only case in which both cofactor pairs
    differ.  Sweep every operand pair (every triple for ``bite``) of the
    boolean functions of 3 (2) variables; by canonicity each result must
    be the very node built from the expected table."""
    mgr = BddManager()
    funcs = _all_functions(mgr, 3)
    space = range(8)
    for table, node in funcs.items():
        assert [mgr.restrict_eval(node, lambda lvl: _bit(a, lvl))
                for a in space] == list(table)
        assert funcs[tuple(not v for v in table)] == mgr.bnot(node)
    binary = {"band": lambda x, y: x and y, "bor": lambda x, y: x or y,
              "bxor": lambda x, y: x != y, "biff": lambda x, y: x == y,
              "bimplies": lambda x, y: (not x) or y}
    for (tx, x), (ty, y) in itertools.product(funcs.items(), repeat=2):
        for name, op in binary.items():
            want = tuple(op(tx[a], ty[a]) for a in space)
            assert getattr(mgr, name)(x, y) == funcs[want], (name, tx, ty)
    small = _all_functions(mgr, 2)
    for (tc, c), (tt, t), (te, e) in itertools.product(small.items(),
                                                       repeat=3):
        want = tuple(tt[a] if tc[a] else te[a] for a in range(4))
        assert mgr.bite(c, t, e) == small[want]


def test_snapshot_blob_format():
    """The blob layout is part of the transport format: DFS preorder, lo
    before hi, root = 0, one ``(var, lo, hi)`` int32 triple per node and
    ``(-1, leaf index, -1)`` for leaves, little-endian."""
    mgr = BddManager()
    node = mgr.mk(0, mgr.leaf("a"), mgr.mk(2, mgr.leaf("b"), mgr.leaf("a")))
    blob, leaves = mgr.snapshot(node)
    triples = [0, 1, 2, -1, 0, -1, 2, 3, 1, -1, 1, -1]
    assert blob == b"".join(v.to_bytes(4, "little", signed=True)
                            for v in triples)
    assert leaves == ["a", "b"]


def test_snapshots_are_cross_manager_identical():
    """The FrozenMap transport relies on byte-identical canonical blobs,
    whatever node ids each manager happened to allocate, and through a
    pickle round trip."""
    program = [("leaf", 3), ("var", 0), ("var", 2), ("band", 2, 3),
               ("apply2", "pair", 1, 0), ("map_ite", 4, "tag", "id", 2),
               ("set_path", 2, [True, False, True, False, False, True,
                                False, False], "z")]
    _check(program, BddManager())  # compares blobs across two managers
    mgr = BddManager()
    for node in sum(_run(mgr, program), []):
        blob, _leaves = mgr.snapshot(node)
        assert pickle.loads(pickle.dumps(blob)) == blob


def test_apply2_reentrant_callback_keeps_canonicity():
    """A combine callback may re-enter the manager (merge functions over
    map-valued routes build nodes mid-apply2).  The kernel must keep
    hash-consing identity intact across the re-entry: a cold re-run finds
    the consed nodes instead of minting duplicates, and the result matches
    the oracle at every assignment."""
    mgr = BddManager()
    tags = itertools.count()

    def fn(a, b):
        for _ in range(800):
            mgr.mk(5, mgr.false, mgr.leaf(("pad", next(tags))))
        return (a, b)

    def build(m):
        m1 = m.mk(0, m.leaf("x0"), m.mk(1, m.leaf("x1"), m.leaf("x2")))
        m2 = m.mk(0, m.leaf("y0"), m.mk(1, m.leaf("y1"), m.leaf("y2")))
        return m1, m2

    m1, m2 = build(mgr)
    r = mgr.apply2(fn, m1, m2)
    # Re-running with a cold memo must reuse the consed nodes, not re-mint.
    assert mgr.apply2(fn, m1, m2) == r
    # Rebuilding the result's top node through mk finds the same id.
    assert mgr.mk(mgr.level(r), mgr.lo(r), mgr.hi(r)) == r
    # Global canonicity: no two internal nodes share a (level, lo, hi).
    seen = {}
    for n in range(mgr.size()):
        if not mgr.is_leaf(n):
            key = (mgr.level(n), mgr.lo(n), mgr.hi(n))
            assert key not in seen, \
                f"duplicate nodes {seen[key]} and {n} for {key}"
            seen[key] = n
    oracle = TruthTables()
    t1, t2 = build(oracle)
    _check_diagram(mgr, r, oracle.apply2(lambda a, b: (a, b), t1, t2),
                   [], is_bool=False)
