"""The operator table in ipsim.frontend.nodes against the modules that
read it: the folds against the if-chain they replaced (reference.py),
the spellings, kinds and gates against the lexer's and the DFG's
vocabularies, and the one precedence column against the parser and the
emitter together."""

import itertools

import pytest

from ipsim.dfg import NODE_KINDS
from ipsim.frontend import emit_expr, parse
from ipsim.frontend import nodes as n
from ipsim.frontend.lexer import KEYWORDS, scan
from reference import const_binop_reference

GRID = range(-9, 10)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("op", sorted(n.BINARY))
def test_binary_fold_matches_reference(op):
    for a, b in itertools.product(GRID, GRID):
        assert outcome(n.BINARY[op].fold, a, b) == outcome(const_binop_reference, op, a, b), (op, a, b)


def test_grid_reaches_the_fold_errors():
    assert outcome(n.BINARY["/"].fold, 3, 0) is ZeroDivisionError
    assert outcome(n.BINARY["%"].fold, 3, 0) is ZeroDivisionError
    assert outcome(n.BINARY["<<"].fold, 1, -1) is ValueError


def test_commutative_folds_commute():
    flagged = {op for op, entry in n.BINARY.items() if entry.commutes}
    assert flagged == {"&", "|", "^", "~^", "^~", "+", "*", "==", "!=", "&&", "||"}
    for op in flagged:
        for a, b in itertools.product(GRID, GRID):
            assert n.BINARY[op].fold(a, b) == n.BINARY[op].fold(b, a), (op, a, b)


def test_unary_folds():
    assert [n.UNARY[op].fold(5) for op in ("-", "~", "!", "+")] == [-5, -6, 0, 5]
    assert n.UNARY["!"].fold(0) == 1
    reductions = {op for op, entry in n.UNARY.items() if entry.fold is None}
    assert reductions == {"&", "|", "^", "~&", "~|", "~^", "^~"}


def test_kinds_are_in_the_dfg_vocabulary():
    kinds = {e.kind for e in n.BINARY.values()} | ({e.kind for e in n.UNARY.values()} - {None})
    assert kinds <= set(NODE_KINDS)
    assert {op for op, e in n.UNARY.items() if e.inverted} == {"~&", "~|", "~^", "^~"}


def test_spellings_are_single_operator_tokens():
    for op in [*n.BINARY, *n.UNARY, *n.FOUR_STATE, n.INVERT, *n.FOUR_STATE.values()]:
        assert scan(op) == (["op", "eof"], [op, ""]), op
    for fold_op, _ in n.GATES.values():
        assert fold_op is None or fold_op in n.BINARY


def test_gates_are_keywords():
    assert set(n.GATES) <= KEYWORDS
    assert set(n.GATES) == {"and", "nand", "or", "nor", "xor", "xnor", "not", "buf"}


def shape(e: n.Expr):
    """An expression tree without locations."""
    if isinstance(e, n.Binary):
        return (e.op, shape(e.left), shape(e.right))
    return e.name


def test_precedence_round_trips_through_parser_and_emitter():
    # Every ordered pair of binary operators, grouped both ways: emit
    # drops the parentheses that precedence makes redundant, and parse
    # must read back the same tree.
    texts = []
    for o1, o2 in itertools.product(n.BINARY, repeat=2):
        texts += [f"(a {o1} b) {o2} c", f"a {o1} (b {o2} c)"]
    body = "".join(f"  assign y{i} = {t};\n" for i, t in enumerate(texts))
    outputs = ", ".join(f"y{i}" for i in range(len(texts)))
    src = f"module m(input a, b, c, output {outputs});\n{body}endmodule\n"
    parsed = [a.rhs for a in parse(src).modules[0].assigns]
    emitted = [emit_expr(e) for e in parsed]
    body = "".join(f"  assign y{i} = {t};\n" for i, t in enumerate(emitted))
    reparsed = [a.rhs for a in parse(f"module m(input a, b, c, output {outputs});\n{body}endmodule\n")
                .modules[0].assigns]
    assert len(parsed) == 2 * len(n.BINARY) ** 2
    for text, before, after in zip(texts, parsed, reparsed):
        assert shape(after) == shape(before), text
    assert emitted[texts.index("(a * b) + c")] == "a * b + c"
    assert emitted[texts.index("a * (b + c)")] == "a * (b + c)"
