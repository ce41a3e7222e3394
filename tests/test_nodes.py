import pytest

from ipsim.errors import SourceLocation, UnresolvedIdentifier
from ipsim.frontend import emit_expr, parse
from ipsim.frontend import nodes as n


def rhs(expr: str) -> n.Expr:
    src = f"module m(input [7:0] a, b, c, d, e, output y); assign y = {expr}; endmodule"
    return parse(src, "<test>").modules[0].assigns[0].rhs


def always_body(body: str) -> list:
    src = ("module m(input [1:0] s, input a, b, c, output reg y);\n"
           f"  always @(*) {body}\nendmodule\n")
    return parse(src, "<test>").modules[0].always_blocks[0].body


def label(e: n.Expr) -> str:
    return e.name if isinstance(e, n.Ident) else type(e).__name__


def test_iter_expr_visits_last_child_first():
    order = [label(e) for e in n.iter_expr(rhs("a + b[c] ? {d, {2{e}}} : a[3:c]"))]
    assert order == ["Ternary", "PartSelect", "c", "Number", "a", "Concat", "Repeat",
                     "e", "Number", "d", "Binary", "BitSelect", "c", "b", "a"]


def test_first_unresolved_identifier_follows_iter_expr_order():
    with pytest.raises(UnresolvedIdentifier, match="'q'"):
        parse("module m(output y); assign y = p + q; endmodule", "<test>")


def test_map_expr_hook_replacement_stops_descent():
    seen = []

    def hook(e, walk):
        seen.append(label(e))
        if isinstance(e, n.BitSelect):
            return n.Ident(e.loc, "z")
        return None

    out = n.map_expr(rhs("(a & b[c]) | {2{d}}"), hook)
    assert emit_expr(out) == "a & z | {2{d}}"
    assert seen == ["Binary", "Binary", "a", "BitSelect", "Repeat", "Number", "d"]


def test_map_expr_without_replacement_rebuilds_an_equal_tree():
    expr = rhs("~(a - b) ? {c, d[1:0]} : e[c]")
    assert n.map_expr(expr, lambda e, walk: None) == expr


def test_map_stmts_maps_case_items_before_subject():
    body = always_body("begin if (a) y = b; case (s) 0, 1: y = c; default: y = a; endcase end")
    seen = []

    def fn(e):
        seen.append(emit_expr(e))
        return e

    assert n.map_stmts(body, fn) == body
    assert seen == ["a", "y", "b", "0", "1", "y", "c", "y", "a", "s"]
    assert [emit_expr(e) for e in n.stmt_exprs(body)] == [
        "a", "y", "b", "s", "0", "1", "y", "c", "y", "a"]


def test_map_expr_keeps_what_its_hook_leaves_alone():
    expr = rhs("{2{a[3:0]}} ^ (b ? c[1] : -d) + {e, 4'd3}")
    assert n.map_expr(expr, lambda e, walk: None) is expr
    renamed = n.map_expr(expr, lambda e, walk: n.Ident(e.loc, "z") if label(e) == "d" else None)
    assert renamed is not expr and renamed.left is expr.left
    assert [label(e) for e in n.iter_expr(renamed)].count("z") == 1
    ternary, new_ternary = expr.right.left, renamed.right.left
    assert new_ternary.cond is ternary.cond and new_ternary.true is ternary.true
    assert new_ternary.false is not ternary.false and renamed.right.right is expr.right.right


def test_expressions_are_values_and_statements_are_mutable():
    expr, again = rhs("a + b[c]"), rhs("a + b[c]")
    with pytest.raises(AttributeError):
        expr.op = "-"
    with pytest.raises(AttributeError):
        del expr.left
    assert expr.op == "+"
    assert expr is not again and expr == again and hash(expr) == hash(again)
    assert expr != rhs("a + b[d]")

    mod = parse("module m(input a, output reg y); always @(*) y = a; endmodule", "<test>").modules[0]
    stmt = mod.always_blocks[0].body[0]
    for node in (mod, stmt):
        with pytest.raises(TypeError):
            hash(node)
    mod.name, stmt.rhs = "renamed", expr
    assert mod.name == "renamed" and stmt.rhs is expr

    loc = SourceLocation("<e>", 1, 2)
    with pytest.raises(TypeError):
        n.Binary(loc, "+", expr)
    with pytest.raises(TypeError):
        n.NetDecl("w", "wire", None, loc, None)
    assert repr(n.Binary(loc, "+", n.Ident(loc, "a"), n.Number(loc, "1", 1))) == (
        "Binary(loc=SourceLocation(path='<e>', line=1, col=2), op='+', "
        "left=Ident(loc=SourceLocation(path='<e>', line=1, col=2), name='a'), "
        "right=Number(loc=SourceLocation(path='<e>', line=1, col=2), text='1', value=1))")
