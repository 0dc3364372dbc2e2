"""Parser tests: expressions, declarations, precedence, patterns, sugar."""

import pytest

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.errors import NvSyntaxError
from repro.lang.parser import parse_expr, parse_program
from repro.protocols import resolve


class TestAtoms:
    def test_literals(self):
        assert isinstance(parse_expr("true"), A.EBool)
        assert isinstance(parse_expr("5"), A.EInt)
        assert parse_expr("5u8").width == 8
        assert parse_expr("3n").value == 3
        assert isinstance(parse_expr("None"), A.ENone)

    def test_some(self):
        e = parse_expr("Some 5")
        assert isinstance(e, A.ESome) and isinstance(e.sub, A.EInt)

    def test_tuple(self):
        e = parse_expr("(1, 2, 3)")
        assert isinstance(e, A.ETuple) and len(e.elts) == 3

    def test_parens_not_tuple(self):
        assert isinstance(parse_expr("(1)"), A.EInt)


class TestOperators:
    def test_precedence_add_vs_cmp(self):
        e = parse_expr("a + 1 < b - 2")
        assert isinstance(e, A.EOp) and e.op == "lt"
        assert all(isinstance(x, A.EOp) for x in e.args)

    def test_precedence_cmp_vs_bool(self):
        e = parse_expr("a < b && c = d")
        assert e.op == "and"

    def test_or_lower_than_and(self):
        e = parse_expr("a && b || c")
        assert e.op == "or"
        assert e.args[0].op == "and"

    def test_neq_desugars(self):
        e = parse_expr("a <> b")
        assert e.op == "not" and e.args[0].op == "eq"

    def test_gt_swaps(self):
        e = parse_expr("a > b")
        assert e.op == "lt"
        assert isinstance(e.args[0], A.EVar) and e.args[0].name == "b"

    def test_application_binds_tighter_than_add(self):
        e = parse_expr("f x + 1")
        assert e.op == "add"
        assert isinstance(e.args[0], A.EApp)

    def test_not(self):
        e = parse_expr("!a")
        assert e.op == "not"


class TestMapSyntax:
    def test_get(self):
        e = parse_expr("m[3]")
        assert isinstance(e, A.EOp) and e.op == "mget"

    def test_set(self):
        e = parse_expr("m[3 := true]")
        assert e.op == "mset"

    def test_chained(self):
        e = parse_expr("m[1 := true][2 := false]")
        assert e.op == "mset" and e.args[0].op == "mset"

    def test_builtin_ops(self):
        assert parse_expr("createDict 0").op == "mcreate"
        assert parse_expr("map f m").op == "mmap"
        assert parse_expr("mapIte p f g m").op == "mmapite"
        assert parse_expr("combine f a b").op == "mcombine"

    def test_partial_builtin_rejected(self):
        with pytest.raises(NvSyntaxError):
            parse_expr("map f")

    def test_set_literal_desugars(self):
        e = parse_expr("{1, 2}")
        assert e.op == "mset"
        inner = e.args[0]
        assert inner.op == "mset"
        assert inner.args[0].op == "mcreate"

    def test_empty_set(self):
        e = parse_expr("{}")
        assert e.op == "mcreate"
        assert isinstance(e.args[0], A.EBool) and e.args[0].value is False


class TestRecords:
    def test_record_literal(self):
        e = parse_expr("{length = 0; lp = 100}")
        assert isinstance(e, A.ERecord)
        assert [n for n, _ in e.fields] == ["length", "lp"]

    def test_record_with(self):
        e = parse_expr("{b with length = b.length + 1}")
        assert isinstance(e, A.ERecordWith)
        assert e.updates[0][0] == "length"

    def test_projection(self):
        e = parse_expr("b.length")
        assert isinstance(e, A.EProj) and e.label == "length"

    def test_tuple_projection(self):
        e = parse_expr("x.0")
        assert isinstance(e, A.ETupleGet) and e.index == 0


class TestBindings:
    def test_let_in(self):
        e = parse_expr("let x = 1 in x + x")
        assert isinstance(e, A.ELet)

    def test_let_pattern(self):
        e = parse_expr("let (u, v) = e in u")
        assert isinstance(e, A.ELetPat)
        assert isinstance(e.pat, A.PTuple)

    def test_fun_multi_params(self):
        e = parse_expr("fun x y -> x")
        assert isinstance(e, A.EFun) and isinstance(e.body, A.EFun)

    def test_fun_annotated(self):
        e = parse_expr("fun (x : int8) -> x")
        assert e.param_ty == T.TInt(8)

    def test_if(self):
        e = parse_expr("if a then 1 else 2")
        assert isinstance(e, A.EIf)


class TestMatch:
    def test_simple_match(self):
        e = parse_expr("match x with | None -> 0 | Some b -> b")
        assert isinstance(e, A.EMatch) and len(e.branches) == 2

    def test_leading_bar_optional(self):
        e = parse_expr("match x with None -> 0 | Some b -> b")
        assert len(e.branches) == 2

    def test_multi_scrutinee(self):
        e = parse_expr("match x, y with | _, None -> true | None, _ -> false | _, _ -> true")
        assert isinstance(e.scrutinee, A.ETuple)
        assert isinstance(e.branches[0][0], A.PTuple)

    def test_nested_patterns(self):
        e = parse_expr("match x with | Some (s, b) -> s | None -> y")
        pat = e.branches[0][0]
        assert isinstance(pat, A.PSome) and isinstance(pat.sub, A.PTuple)

    def test_node_pattern(self):
        e = parse_expr("match u with | 0n -> 1 | _ -> 2")
        assert isinstance(e.branches[0][0], A.PNode)

    def test_record_pattern(self):
        e = parse_expr("match r with | {length = l} -> l")
        assert isinstance(e.branches[0][0], A.PRecord)


class TestDeclarations:
    def test_nodes_edges(self):
        p = parse_program("let nodes = 5\nlet edges = {0n=1n; 1n=2n}")
        assert p.nodes == 5
        assert p.edges == ((0, 1), (1, 2))

    def test_symbolic_and_require(self):
        p = parse_program("symbolic x : int8\nrequire x < 5u8")
        syms = p.symbolics()
        assert syms[0].name == "x" and syms[0].ty == T.TInt(8)
        assert len(p.requires()) == 1

    def test_type_alias_resolved(self):
        p = parse_program("type t = option[int]\nsymbolic r : t")
        assert p.symbolics()[0].ty == T.TOption(T.TInt(32))

    def test_let_function_sugar(self):
        p = parse_program("let f x y = x")
        f = p.get_let("f").expr
        assert isinstance(f, A.EFun) and isinstance(f.body, A.EFun)

    def test_annotated_params(self):
        p = parse_program("let f (x y : int) = x")
        f = p.get_let("f").expr
        assert f.param_ty == T.TInt(32)
        assert f.body.param_ty == T.TInt(32)

    def test_include_resolution(self):
        p = parse_program("include bgp", resolve)
        assert p.get_let("transBgp") is not None
        assert "bgp" in p.type_decls()

    def test_include_unknown(self):
        with pytest.raises(NvSyntaxError, match="unknown NV module") as exc:
            parse_program("let nodes = 2\n  include nosuchmodule", resolve)
        assert (exc.value.line, exc.value.col) == (2, 3)

    def test_duplicate_include_once(self):
        p = parse_program("include bgp\ninclude bgp", resolve)
        names = [d.name for d in p.decls if isinstance(d, A.DLet) and d.name == "transBgp"]
        assert len(names) == 1


class TestTypes:
    def test_type_syntax(self):
        p = parse_program("""
type a = int8
type b = option[bool]
type c = set[int]
type d = dict[int16, bool]
type e = (int, bool)
type f = {x: int; y: bool}
""")
        decls = p.type_decls()
        assert decls["a"] == T.TInt(8)
        assert decls["b"] == T.TOption(T.TBool())
        assert decls["c"] == T.TDict(T.TInt(32), T.TBool())
        assert decls["d"] == T.TDict(T.TInt(16), T.TBool())
        assert decls["e"] == T.TTuple((T.TInt(32), T.TBool()))
        assert decls["f"].labels() == ("x", "y")

    def test_unknown_type_rejected(self):
        with pytest.raises(NvSyntaxError):
            parse_program("symbolic x : mystery")


class TestErrors:
    def test_missing_arrow(self):
        with pytest.raises(NvSyntaxError):
            parse_expr("match x with | None 0")

    def test_unbalanced_paren(self):
        with pytest.raises(NvSyntaxError):
            parse_expr("(1, 2")

    def test_trailing_tokens(self):
        with pytest.raises(NvSyntaxError):
            parse_expr("1 1n~")
