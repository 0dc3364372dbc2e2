"""The fault-tolerance meta-protocol (paper fig 5, §2.7).

An NV-to-NV transformation: given a network program over attribute type α,
produce a program over ``dict[scenario, α]`` where every map key is one
failure scenario.  The transfer function drops the route in the entry whose
scenario fails the edge being traversed; the merge function combines maps
pointwise.  Simulating the transformed program computes the routes of *all*
scenarios at once, with MTBDD leaf-sharing collapsing equivalent scenarios —
the paper's key insight.

Scenario key types:

* ``k = 1`` link failure → key is ``edge``;
* ``k >= 2`` link failures → key is a k-tuple of edges (a scenario's failed
  set is the set of its components, so tuples with repeats model scenarios
  with fewer failures — every combination of ≤ k failures is covered);
* ``node_failures=True`` adds a failed node: key is ``(node, edge...)``
  (just ``node`` when ``k = 0``); the route is dropped when the traversed
  edge leaves or enters the failed node.

A second entry point, :func:`symbolic_failures_program`, produces the
SMT-oriented variant: one symbolic boolean per physical link with a
``require`` bounding how many may fail — the encoding MineSweeper-style SMT
fault-tolerance checking uses (compared against in fig 13a).
"""

from __future__ import annotations

from ..eval.encoding import node_width
from ..lang import ast as A
from ..lang import types as T
from ..srp.network import Network


def _var(name: str) -> A.EVar:
    return A.EVar(name)


def _eq(a: A.Expr, b: A.Expr) -> A.Expr:
    return A.EOp("eq", (a, b))


def _or_all(parts: list[A.Expr]) -> A.Expr:
    e = parts[0]
    for p in parts[1:]:
        e = A.EOp("or", (e, p))
    return e


def check_failure_counts(num_link_failures: int, node_failures: bool) -> None:
    """Reject fault models with no failure to enumerate."""
    if num_link_failures < 0 or (num_link_failures == 0 and not node_failures):
        raise ValueError("at least one link or node failure is required")


def scenario_key_type(num_link_failures: int, node_failures: bool) -> T.Type:
    parts: list[T.Type] = []
    if node_failures:
        parts.append(T.TNode())
    parts.extend([T.TEdge()] * num_link_failures)
    if len(parts) == 1:
        return parts[0]
    return T.TTuple(tuple(parts))


def _edge_matches(scenario_edge: A.Expr, edge_var: str) -> A.Expr:
    """AST for "the scenario's failed edge is this physical link, in either
    orientation": a failed link kills both directed edges.

    ``let (su, sv) = sc in let (eu, ev) = e in
      (su = eu && sv = ev) || (su = ev && sv = eu)``
    """
    body = A.EOp("or", (
        A.EOp("and", (_eq(_var("__su"), _var("__eu")),
                      _eq(_var("__sv"), _var("__ev")))),
        A.EOp("and", (_eq(_var("__su"), _var("__ev")),
                      _eq(_var("__sv"), _var("__eu")))),
    ))
    inner = A.ELetPat(A.PTuple((A.PVar("__eu"), A.PVar("__ev"))),
                      _var(edge_var), body)
    return A.ELetPat(A.PTuple((A.PVar("__su"), A.PVar("__sv"))),
                     scenario_edge, inner)


def _scenario_fails_edge(scenario: A.Expr, key_ty: T.Type, edge_var: str,
                         num_link_failures: int, node_failures: bool) -> A.Expr:
    """AST for "this scenario fails the edge bound to ``edge_var``"."""
    if isinstance(key_ty, T.TEdge):
        return _edge_matches(scenario, edge_var)
    if isinstance(key_ty, T.TNode):
        return _node_hits_edge(scenario, edge_var)
    assert isinstance(key_ty, T.TTuple)
    arity = len(key_ty.elts)
    parts: list[A.Expr] = []
    index = 0
    if node_failures:
        failed_node = A.ETupleGet(scenario, 0, arity)
        # The edge fails if either endpoint is the failed node.
        parts.append(_node_hits_edge(failed_node, edge_var))
        index = 1
    for i in range(index, arity):
        parts.append(_edge_matches(A.ETupleGet(scenario, i, arity), edge_var))
    return _or_all(parts)


def _scenario_in_cofactor(scenario: A.Expr, key_ty: T.Type, node_bits: int,
                          top_bit: int) -> A.Expr:
    """AST for "the scenario key's top bit is ``top_bit``".

    The key's first encoded bit is the MSB of its leading node: the failed
    node when one leads the tuple, else the first failed edge's source (see
    :mod:`repro.eval.encoding`).  That bit is clear iff the leading node is
    below ``2^(node_bits - 1)``, so membership is one ``<`` on that node.
    """
    lead = scenario
    if isinstance(key_ty, T.TTuple):
        lead = A.ETupleGet(scenario, 0, len(key_ty.elts))
        key_ty = key_ty.elts[0]
    if isinstance(key_ty, T.TEdge):
        lead = A.ELetPat(A.PTuple((A.PVar("__lu"), A.PVar("__lv"))),
                         lead, _var("__lu"))
    low = A.EOp("lt", (lead, A.ENode(1 << (node_bits - 1))))
    return A.EOp("not", (low,)) if top_bit else low


def _node_hits_edge(failed_node: A.Expr, edge_var: str) -> A.Expr:
    """``let (u, v) = e in n = u || n = v`` as an AST."""
    return A.ELetPat(
        A.PTuple((A.PVar("__fu"), A.PVar("__fv"))),
        _var(edge_var),
        A.EOp("or", (_eq(failed_node, _var("__fu")),
                     _eq(failed_node, _var("__fv")))),
    )


def fault_tolerance_transform(net: Network, num_link_failures: int = 1,
                              node_failures: bool = False,
                              drop_body: A.Expr | None = None,
                              top_bit: int | None = None) -> Network:
    """Apply the fig 5 meta-protocol to a network program.

    The returned network's attribute type is ``dict[scenario, α]``; its
    ``assert`` is dropped (the analysis driver checks the base assertion on
    every map leaf instead, since NV deliberately has no map folds).

    ``drop_body`` is the "dropped route" expression, with the pre-failure
    route bound to ``__v``.  It defaults to ``None``, matching fig 5's
    option-typed attributes; non-option attributes (e.g. the RIB maps of
    config-translated networks) must supply their own — the generalisation
    the paper's fig 5 caption calls out.

    ``top_bit`` (0 or 1) restricts the meta-protocol to one cofactor of
    the scenario key's first encoded bit, the MSB of its leading node: the
    transfer predicate becomes ``in_cofactor(sc) && fails(sc, e)``, so
    scenarios of the other cofactor never drop a route and all collapse onto
    the no-failure leaves.  Routes of in-cofactor scenarios are exactly
    those of the unrestricted transform, and because the split follows the
    key's variable order, each restricted map is one half of the
    unrestricted MTBDD: the sub-diagrams shared under that half are built
    once, as in the serial run.  This is the decomposition
    :func:`repro.analysis.fault.fault_tolerance_sharded` fans out over
    worker processes.  It splits on one bit, into two units, and no
    further: every unit rebuilds the no-failure and shared sub-diagrams,
    so 8 units on the key's leading bits do about twice the serial work,
    which only more than about 4 workers could win back.
    """
    check_failure_counts(num_link_failures, node_failures)
    if drop_body is None:
        if not isinstance(net.attr_ty, T.TOption):
            raise ValueError(
                f"attribute type {net.attr_ty} is not an option; pass drop_body "
                "to define what a dropped route looks like")
        drop_body = A.ENone()
    key_ty = scenario_key_type(num_link_failures, node_failures)
    attr_ty = net.attr_ty
    dict_ty = T.TDict(key_ty, attr_ty)

    decls: list[A.Decl] = []
    for d in net.program.decls:
        if isinstance(d, A.DLet) and d.name in ("init", "trans", "merge", "assert"):
            new_name = {"init": "initBase", "trans": "transBase",
                        "merge": "mergeBase", "assert": "assertBase"}[d.name]
            decls.append(A.DLet(new_name, d.expr, annot=d.annot))
        else:
            decls.append(d)

    # let init u = createDict (initBase u)
    decls.append(A.DLet(
        "init",
        A.EFun("u", A.EOp("mcreate", (A.EApp(_var("initBase"), _var("u")),)),
               param_ty=T.TNode()),
        annot=T.TArrow(T.TNode(), dict_ty),
    ))

    # let trans e x = mapIte (fun sc -> fails sc e) (fun v -> drop) (transBase e) x
    fails = _scenario_fails_edge(
        _var("__sc"), key_ty, "e", num_link_failures, node_failures)
    if top_bit is not None:
        fails = A.EOp("and", (
            _scenario_in_cofactor(_var("__sc"), key_ty,
                                  node_width(net.num_nodes), top_bit),
            fails))
    pred = A.EFun("__sc", fails, param_ty=key_ty)
    drop_fn = A.EFun("__v", drop_body)
    trans_body = A.EOp("mmapite", (
        pred, drop_fn, A.EApp(_var("transBase"), _var("e")), _var("x")))
    decls.append(A.DLet(
        "trans",
        A.EFun("e", A.EFun("x", trans_body), param_ty=T.TEdge()),
        annot=T.TArrow(T.TEdge(), T.TArrow(dict_ty, dict_ty)),
    ))

    # let merge u x y = combine (mergeBase u) x y
    merge_body = A.EOp("mcombine", (
        A.EApp(_var("mergeBase"), _var("u")), _var("x"), _var("y")))
    decls.append(A.DLet(
        "merge",
        A.EFun("u", A.EFun("x", A.EFun("y", merge_body)), param_ty=T.TNode()),
        annot=T.TArrow(T.TNode(), T.TArrow(dict_ty, T.TArrow(dict_ty, dict_ty))),
    ))

    return Network.from_program(A.Program(decls))


def symbolic_failures_program(net: Network, max_failures: int = 1) -> A.Program:
    """The SMT-oriented fault model: a symbolic boolean per physical link,
    ``require`` bounding the number of failed links, and a transfer function
    that drops routes crossing failed links.

    This is the encoding whose scaling fig 13a contrasts with the MTBDD
    meta-protocol: the SMT solver must case-split over failure combinations.
    """
    links = net.links if net.links else tuple(net.edges)
    decls: list[A.Decl] = []
    fail_names = []
    for i, _ in enumerate(links):
        name = f"fail{i}"
        fail_names.append(name)
        decls.append(A.DSymbolic(name, T.TBool()))

    # require (sum of failures) <= max_failures
    count: A.Expr = A.EInt(0)
    for name in fail_names:
        count = A.EOp("add", (count, A.EIf(_var(name), A.EInt(1), A.EInt(0))))
    decls.append(A.DRequire(A.EOp("le", (count, A.EInt(max_failures)))))

    for d in net.program.decls:
        if isinstance(d, A.DLet) and d.name == "trans":
            decls.append(A.DLet("transBase", d.expr, annot=d.annot))
        else:
            decls.append(d)

    # let trans e x = if failed e then None else transBase e x
    # where `failed e` tests both orientations of each physical link.
    failed: A.Expr = A.EBool(False)
    for i, (u, v) in enumerate(links):
        hit = A.EOp("or", (
            _eq(_var("e"), A.EEdge(u, v)),
            _eq(_var("e"), A.EEdge(v, u)),
        ))
        failed = A.EOp("or", (failed, A.EOp("and", (hit, _var(f"fail{i}")))))
    trans_body = A.EIf(failed, A.ENone(), A.EApp(A.EApp(_var("transBase"),
                                                        _var("e")), _var("x")))
    # Replace the trans declaration (it must come after transBase).
    decls = [d for d in decls if not (isinstance(d, A.DLet) and d.name == "trans")]
    decls.append(A.DLet("trans", A.EFun("e", A.EFun("x", trans_body),
                                        param_ty=T.TEdge())))
    return A.Program(decls)
