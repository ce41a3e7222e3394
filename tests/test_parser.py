import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipsim.errors import UnsupportedConstruct, VerilogSyntaxError
from ipsim.frontend import emit, parse, parse_unit
from ipsim.frontend import nodes as n


def parse_one(src: str):
    ast = parse(src, "<test>")
    assert len(ast.modules) == 1
    return ast.modules[0]


def test_module_ports_and_directions():
    mod = parse_one("""
module m(a, b, c);
  input [3:0] a;
  output reg b;
  inout c;
endmodule
""")
    assert [p.name for p in mod.ports] == ["a", "b", "c"]
    assert [p.direction for p in mod.ports] == ["input", "output", "inout"]
    assert mod.port("b").is_reg
    assert mod.port("a").width is not None


def test_ansi_style_ports():
    mod = parse_one("module m(input [7:0] a, output reg y); endmodule")
    assert [p.name for p in mod.ports] == ["a", "y"]
    assert mod.port("y").is_reg


@pytest.mark.parametrize("src", [
    "module m(a, y); input a; input a; output y; endmodule",
    "module m(input a, output y); input a; endmodule",
    "module m(y); output y; input b; input b; endmodule",
])
def test_port_redeclaration_rejected(src):
    with pytest.raises(VerilogSyntaxError, match="redeclaration"):
        parse(src, "<test>")


def test_port_declarations_are_per_module():
    ast = parse("module m(a, y); input a; output [1:0] y; endmodule\n"
                "module k(a, y); output a; input y; endmodule", "<test>")
    m, k = ast.module("m"), ast.module("k")
    assert [(p.name, p.direction) for p in m.ports] == [("a", "input"), ("y", "output")]
    assert [(p.name, p.direction) for p in k.ports] == [("a", "output"), ("y", "input")]
    assert m.port("y").width is not None and k.port("y").width is None


def test_operator_precedence_shape():
    mod = parse_one("module m(input a, input b, input c, output y);"
                    " assign y = a | b & c; endmodule")
    rhs = mod.assigns[0].rhs
    # & binds tighter than |.
    assert isinstance(rhs, n.Binary) and rhs.op == "|"
    assert isinstance(rhs.right, n.Binary) and rhs.right.op == "&"


def test_unary_binds_tighter_than_binary():
    mod = parse_one("module m(input [1:0] a, output y); assign y = ~a[0] & a[1]; endmodule")
    rhs = mod.assigns[0].rhs
    assert rhs.op == "&"
    assert isinstance(rhs.left, n.Unary) and rhs.left.op == "~"


def test_ternary_is_right_associative():
    mod = parse_one("module m(input a, input b, output y);"
                    " assign y = a ? b : a ? 1'b0 : 1'b1; endmodule")
    rhs = mod.assigns[0].rhs
    assert isinstance(rhs, n.Ternary)
    assert isinstance(rhs.false, n.Ternary)


def test_sized_number_literals():
    mod = parse_one("module m(output [7:0] y); assign y = 8'hA5; endmodule")
    rhs = mod.assigns[0].rhs
    assert isinstance(rhs, n.Number)
    assert rhs.value == 0xA5


def test_number_with_x_bits_has_no_value():
    mod = parse_one("module m(output y); assign y = 1'bx; endmodule")
    assert mod.assigns[0].rhs.value is None


def test_concat_and_repeat():
    mod = parse_one("module m(input [3:0] a, output [7:0] y);"
                    " assign y = {a, {2{a[0]}}, 2'b01}; endmodule")
    rhs = mod.assigns[0].rhs
    assert isinstance(rhs, n.Concat)
    assert any(isinstance(p, n.Repeat) for p in rhs.parts)


def test_case_with_default():
    mod = parse_one("""
module m(input [1:0] s, output reg y);
  always @(*) begin
    case (s)
      2'd0: y = 1'b0;
      2'd1, 2'd2: y = 1'b1;
      default: y = 1'b0;
    endcase
  end
endmodule
""")
    stmt = mod.always_blocks[0].body[0]
    assert isinstance(stmt, n.CaseStmt)
    assert len(stmt.items) == 3
    assert stmt.items[1].labels and len(stmt.items[1].labels) == 2
    assert stmt.items[2].labels is None  # default


def test_sensitivity_lists():
    mod = parse_one("""
module m(input clk, input rst, input d, output reg q);
  always @(posedge clk or negedge rst) q <= d;
endmodule
""")
    sens = mod.always_blocks[0].sensitivity
    assert [s.edge for s in sens] == ["posedge", "negedge"]


def test_star_sensitivity_is_none():
    mod = parse_one("module m(input d, output reg q); always @(*) q = d; endmodule")
    assert mod.always_blocks[0].sensitivity is None


def test_gate_primitives():
    mod = parse_one("module m(input a, input b, output y); and g0 (y, a, b); endmodule")
    assert mod.gates[0].gate == "and"
    assert len(mod.gates[0].terminals) == 3


def test_instance_named_and_positional():
    src = """
module child(input a, output y); assign y = a; endmodule
module top(input x, output z);
  child c0 (.a(x), .y(z));
endmodule
"""
    ast = parse(src, "<test>")
    inst = ast.module("top").instances[0]
    assert inst.module_name == "child"
    assert inst.connections[0][0] == "a"


def test_parameters_and_overrides():
    src = """
module child(input [3:0] a, output [3:0] y);
  parameter W = 4;
  assign y = a + W;
endmodule
module top(input [3:0] p, output [3:0] q);
  child #(.W(2)) c0 (.a(p), .y(q));
endmodule
"""
    ast = parse(src, "<test>")
    assert ast.module("child").params[0].name == "W"
    assert ast.module("top").instances[0].param_overrides[0][0] == "W"


def test_syntax_error_reports_location():
    with pytest.raises(VerilogSyntaxError) as exc:
        parse("module m(input a output y); endmodule", "bad.v")
    assert exc.value.location is not None
    assert exc.value.location.path == "bad.v"


def test_unsupported_construct_is_distinct():
    with pytest.raises(UnsupportedConstruct):
        parse("module m; initial begin end endmodule", "<test>")
    with pytest.raises(UnsupportedConstruct):
        parse("module m; generate endgenerate endmodule", "<test>")


def test_duplicate_module_rejected():
    with pytest.raises(VerilogSyntaxError):
        parse_unit([("a.v", "module m; endmodule"), ("b.v", "module m; endmodule")])


def test_escaped_identifier():
    mod = parse_one("module m(input \\weird$name , output y);"
                    " assign y = \\weird$name ; endmodule")
    assert mod.ports[0].name == "weird$name"


@pytest.mark.parametrize("word", ["wire", "reg", "input", "output", "inout", "parameter",
                                  "localparam", "assign", "always"])
def test_escaped_keyword_starts_an_instance(word):
    # ``\wire`` is an identifier that spells a keyword, so ``\wire w ;``
    # names an instance of a module ``wire``, which fails for want of
    # connections as any other instance does.
    src = "module m(y, a); output y; input a; {} w ; assign y = a; endmodule"
    with pytest.raises(VerilogSyntaxError) as plain:
        parse(src.format("sub"), "<test>")
    with pytest.raises(VerilogSyntaxError) as escaped:
        parse(src.format("\\" + word), "<test>")
    assert (escaped.value.expected, escaped.value.got) == (plain.value.expected, plain.value.got)
    assert plain.value.expected == ("'('",)


def test_escaped_keywords_name_ports_signals_and_targets():
    mod = parse_one("module m(\\input , \\posedge , y);\n"
                    "  input \\input , \\posedge ; output reg y; reg \\case ;\n"
                    "  always @(\\posedge or \\input ) \\case = \\input ;\n"
                    "  always @(*) y = \\case ;\nendmodule")
    assert [(p.name, p.direction) for p in mod.ports] == [
        ("input", "input"), ("posedge", "input"), ("y", "output")]
    first = mod.always_blocks[0]
    assert first.sensitivity == [n.SensItem(None, "posedge"), n.SensItem(None, "input")]
    assert first.body[0].lhs == n.Ident(first.body[0].lhs.loc, "case")
    ansi = parse_one("module m(input a, \\output , output y); assign y = \\output ; endmodule")
    assert [(p.name, p.direction) for p in ansi.ports] == [
        ("a", "input"), ("output", "input"), ("y", "output")]


ROUND_TRIP_SOURCES = [
    "module m(input a, input b, output y); assign y = (a ^ b) | ~a; endmodule",
    """
module m(input [7:0] a, input [2:0] s, output reg y);
  always @(*) begin
    if (s[2]) y = a[7];
    else case (s[1:0])
      2'd0: y = a[0];
      default: y = a[1];
    endcase
  end
endmodule
""",
    """
module inv(input a, output y); assign y = ~a; endmodule
module top(input p, output q);
  wire t;
  inv u0 (.a(p), .y(t));
  inv u1 (.a(t), .y(q));
endmodule
""",
    "module m(input [3:0] a, output [7:0] y); assign y = {2{a}}; endmodule",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_emit_round_trip(src):
    first = parse(src, "<test>")
    text = emit(first)
    second = parse(text, "<emitted>")
    assert emit(second) == text  # emission reaches a fixed point
    assert [m.name for m in second.modules] == [m.name for m in first.modules]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 32))
def test_number_round_trip(value, width):
    value %= 2 ** width
    src = f"module m(output [{width - 1}:0] y); assign y = {width}'d{value}; endmodule"
    mod = parse(src, "<t>").modules[0]
    assert mod.assigns[0].rhs.value == value
    again = parse(emit(parse(src, "<t>")), "<t2>").modules[0]
    assert again.assigns[0].rhs.value == value


@pytest.mark.parametrize("index", ["i", "i * 2", "(i)"])
@pytest.mark.parametrize("op", ["+:", "-:"])
def test_indexed_part_select_is_unsupported(index, op):
    src = ("module m(y, a, i); output [3:0] y; input [7:0] a; input [2:0] i;"
           f" assign y = a[{index} {op} 4]; endmodule")
    with pytest.raises(UnsupportedConstruct, match="indexed part select"):
        parse(src, "<test>")


def test_syntax_error_shows_an_escaped_identifier_with_its_backslash():
    with pytest.raises(VerilogSyntaxError) as err:
        parse("module m(y, a, b); output y; input a, b; assign y = b \\+ a; endmodule", "<test>")
    assert err.value.got == "\\+"
    assert str(err.value) == r"<test>:1:55: expected ';', got '\\+'"
    with pytest.raises(VerilogSyntaxError) as plain:
        parse("module m(y, a, b); output y; input a, b; assign y = b c a; endmodule", "<test>")
    assert plain.value.got == "c"


@pytest.mark.parametrize("text, value", [("2'd7", 3), ("4'hff", 15), ("4'hf", 15), ("3'b1101", 5),
                                         ("8'sd255", 255), ("'d7", 7), ("99999'd5", 5)])
def test_sized_literal_keeps_only_its_size_in_bits(text, value):
    mod = parse_one(f"module m(output [7:0] y); assign y = {text}; endmodule")
    assert mod.assigns[0].rhs.value == value


def test_zero_size_literal_is_a_syntax_error_at_the_literal():
    with pytest.raises(VerilogSyntaxError) as err:
        parse("module m(output [7:0] y);\n  assign y = 0'd5;\nendmodule\n", "z.v")
    assert str(err.value) == "z.v:2:14: expected a literal of nonzero size, got \"0'd5\""
