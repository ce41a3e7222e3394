import pytest

from ipsim.errors import (
    ElaborationError,
    PortArityMismatch,
    RecursiveInstantiation,
    UnknownModule,
    UnresolvedIdentifier,
)
from conftest import doubling
from ipsim.frontend import const_eval, flatten_hierarchy, infer_top, parse
from ipsim.frontend import nodes as n
from ipsim.frontend.flatten import MAX_INSTANCES, _instance_count


def flat(src: str, top: str | None = None):
    return flatten_hierarchy(parse(src, "<test>"), top=top)


def expr(src: str) -> n.Expr:
    mod = parse(f"module m(output [31:0] y); assign y = {src}; endmodule",
                "<e>").modules[0]
    return mod.assigns[0].rhs


# const_eval covers the parameter arithmetic used in ranges; Verilog
# division and modulo truncate toward zero.
@pytest.mark.parametrize("text,value", [
    ("1 + 2 * 3", 7),
    ("(1 + 2) * 3", 9),
    ("7 / 2", 3),
    ("-7 / 2", -3),
    ("7 % 3", 1),
    ("1 << 4", 16),
    ("5 > 3", 1),
    ("2 == 3", 0),
    ("~0 & 255", 255),
    ("1 ? 8 : 9", 8),
])
def test_const_eval(text, value):
    assert const_eval(expr(text), {}) == value


def test_const_eval_with_parameters():
    mod = parse("module m(output [31:0] y); parameter W = 0;"
                " assign y = W * 2 + 1; endmodule", "<e>").modules[0]
    assert const_eval(mod.assigns[0].rhs, {"W": 4}) == 9


def test_const_eval_unresolved_identifier():
    from ipsim.errors import SourceLocation
    loose = n.Ident(loc=SourceLocation("<e>", 1, 1), name="UNKNOWN_PARAM")
    with pytest.raises(UnresolvedIdentifier):
        const_eval(loose, {})


def test_infer_top_unique_uninstantiated():
    ast = parse("""
module leaf(input a, output y); assign y = a; endmodule
module top(input x, output z); leaf l0 (.a(x), .y(z)); endmodule
""", "<t>")
    assert infer_top(ast) == "top"


def test_infer_top_ambiguous_is_error():
    ast = parse("module a; endmodule\nmodule b; endmodule", "<t>")
    with pytest.raises(ElaborationError):
        infer_top(ast)


def test_flatten_single_module_keeps_ports():
    mod = flat("module m(input [1:0] a, output y); assign y = a[0]; endmodule")
    assert [p.name for p in mod.ports] == ["a", "y"]
    assert mod.widths["a"] == (1, 0)


def test_flatten_inlines_child_assigns():
    mod = flat("""
module inv(input a, output y); assign y = ~a; endmodule
module top(input p, output q);
  wire t;
  inv u0 (.a(p), .y(t));
  inv u1 (.a(t), .y(q));
endmodule
""")
    assert mod.name == "top"
    # Two child assigns inlined; child signals carry the instance path.
    assert len(mod.assigns) == 2
    assert [p.name for p in mod.ports] == ["p", "q"]


def test_flatten_parameter_override():
    mod = flat("""
module widener(input [3:0] a, output [7:0] y);
  parameter SHIFT = 1;
  assign y = a << SHIFT;
endmodule
module top(input [3:0] p, output [7:0] q);
  widener #(.SHIFT(3)) w0 (.a(p), .y(q));
endmodule
""")
    shift_expr = mod.assigns[0].rhs
    assert isinstance(shift_expr, n.Binary) and shift_expr.op == "<<"
    assert isinstance(shift_expr.right, n.Number) and shift_expr.right.value == 3


def test_flatten_gate_lowering():
    mod = flat("module m(input a, input b, output y); nand g (y, a, b); endmodule")
    assert len(mod.assigns) == 1
    rhs = mod.assigns[0].rhs
    assert isinstance(rhs, n.Unary) and rhs.op == "~"
    inner = rhs.operand
    assert isinstance(inner, n.Binary) and inner.op == "&"


def test_flatten_not_gate_multiple_outputs():
    mod = flat("module m(input a, output y0, output y1); not g (y0, y1, a); endmodule")
    assert len(mod.assigns) == 2
    assert all(isinstance(a.rhs, n.Unary) and a.rhs.op == "~" for a in mod.assigns)


def test_unknown_module_error():
    with pytest.raises(UnknownModule):
        flat("module top(input a, output y); ghost g0 (.a(a), .y(y)); endmodule")


def test_recursive_instantiation_error():
    with pytest.raises(RecursiveInstantiation):
        flat("""
module a(input x, output y); b inner (.x(x), .y(y)); endmodule
module b(input x, output y); a inner (.x(x), .y(y)); endmodule
module top(input x, output y); a u (.x(x), .y(y)); endmodule
""", top="top")


def test_port_arity_mismatch():
    with pytest.raises(PortArityMismatch):
        flat("""
module leaf(input a, input b, output y); assign y = a & b; endmodule
module top(input x, output z); leaf l (x, z); endmodule
""")


def test_unknown_named_port_is_error():
    with pytest.raises(ElaborationError):
        flat("""
module leaf(input a, output y); assign y = a; endmodule
module top(input x, output z); leaf l (.nope(x), .y(z)); endmodule
""")


def test_deep_hierarchy_flattens():
    mod = flat("""
module l0(input a, output y); assign y = ~a; endmodule
module l1(input a, output y); l0 u (.a(a), .y(y)); endmodule
module l2(input a, output y); l1 u (.a(a), .y(y)); endmodule
module top(input a, output y); l2 u (.a(a), .y(y)); endmodule
""")
    assert mod.name == "top"
    assert len(mod.assigns) >= 1
    assert not any("." not in name and name not in ("a", "y") for name in mod.widths
                   if name not in ("a", "y")) or True  # all internals are path-mangled
    internal = [s for s in mod.widths if s not in ("a", "y")]
    assert all("." in s for s in internal)


def test_compound_connection_gets_glue():
    mod = flat("""
module leaf(input a, output y); assign y = ~a; endmodule
module top(input [1:0] x, output z);
  leaf l (.a(x[0] & x[1]), .y(z));
endmodule
""")
    # The compound input expression needs a glue assign into the child port.
    assert len(mod.assigns) == 2


def test_output_port_direction_map():
    mod = flat("module m(input a, inout b, output c); assign c = a; endmodule")
    dirs = mod.port_directions()
    assert dirs == {"a": "input", "b": "inout", "c": "output"}


def test_parameterless_top_shares_its_expressions():
    ast = parse("""
module sub(input a, output y); assign y = ~a; endmodule
module m(input [3:0] a, input b, output [1:0] y, output reg z, output w, output v, output [1:0] s);
  assign y = {a[1] & b, a[2] == 1'b1};
  and g(w, a[0], b);
  sub u(.a(b), .y(v));
  always @(*) if (b) z = a[2] ^ b; else z = |a;
  assign s = ~a[3:2];
endmodule
""", "<test>")
    mod = ast.module("m")
    fm = flatten_hierarchy(ast)
    assert fm.assigns[0].lhs is mod.assigns[0].lhs and fm.assigns[0].rhs is mod.assigns[0].rhs
    # A part select's bounds are rebuilt as numbers, so its ancestors are new.
    assert fm.assigns[1].lhs is mod.assigns[1].lhs and fm.assigns[1].rhs is not mod.assigns[1].rhs
    # The gate's terminals are the top's own nodes; the instance's are renamed.
    assert fm.assigns[2].rhs.left is mod.gates[0].terminals[1]
    assert [a.lhs.name for a in fm.assigns[3:]] == ["v"]
    stmt, top_stmt = fm.always_blocks[0].body[0], mod.always_blocks[0].body[0]
    assert stmt.cond is top_stmt.cond
    assert stmt.then_body[0].rhs is top_stmt.then_body[0].rhs
    assert stmt.else_body[0].rhs is top_stmt.else_body[0].rhs


def test_instance_count_is_found_from_the_source():
    assert _instance_count(parse(doubling(16)), "m15", {}) == (1 << 16) - 1
    assert _instance_count(parse(doubling(17)), "m16", {}) == MAX_INSTANCES + 1
    # A recursive instance counts nothing; the flattener reports it.
    recursive = parse("module a(input x, output y); a inner (.x(x), .y(y)); endmodule")
    assert _instance_count(recursive, "a", {}) == 1


def test_too_many_instances_is_an_elaboration_error():
    with pytest.raises(ElaborationError, match="module 'm16' flattens to more than 65536 module instances"):
        flatten_hierarchy(parse(doubling(17)))
