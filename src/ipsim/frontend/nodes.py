"""Abstract syntax tree and operator table for the supported Verilog subset.

BINARY, FOUR_STATE, UNARY and GATES define the subset's operators and gate
primitives once, for every module that reads, folds or lowers them.

Expression nodes are plain dataclasses; every node carries the source
location of its first token as its loc. The parser's locs are lazy
(errors.TokenLocation): only a diagnostic that reads one computes it.
EXPR_FIELDS says which fields hold subexpressions, and the walkers at the
end of this module are built on it. A module's items (nets, continuous
assigns, always blocks, instances and gates) form one list in source
order, which the emitter prints and reorder_items permutes; the per-kind
attributes are read-only tuple views of it.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, fields

from ipsim.errors import SourceLocation


@dataclass(frozen=True)
class BinaryOp:
    prec: int                         # a higher number binds tighter
    kind: str                         # DFG node kind
    fold: Callable[[int, int], int]   # value on constant operands
    commutes: bool = False


@dataclass(frozen=True)
class UnaryOp:
    kind: str | None                  # DFG node kind; None for +, which the parser drops
    fold: Callable[[int], int] | None  # value on a constant operand; None for a reduction
    inverted: bool = False            # a Not node wraps the kind's node


def _divide(a: int, b: int) -> int:
    q = abs(a) // abs(b)  # truncates toward zero
    return -q if (a < 0) != (b < 0) else q


MAX_CONST_BITS = 1 << 16  # the widest value a << or * fold computes


def _bounded(width: int, fold: Callable[[int, int], int], a: int, b: int) -> int:
    """fold(a, b), unless width, a bound on its bit length (0 for 0 << b), is too wide."""
    if width > MAX_CONST_BITS:
        raise OverflowError(f"constant wider than {MAX_CONST_BITS} bits")
    return fold(a, b)


BINARY = {
    "*": BinaryOp(11, "Times", lambda a, b: _bounded(a.bit_length() + b.bit_length(), operator.mul, a, b), True),
    "/": BinaryOp(11, "Divide", _divide),
    "%": BinaryOp(11, "Mod", lambda a, b: a - b * _divide(a, b)),
    "+": BinaryOp(10, "Plus", operator.add, True),
    "-": BinaryOp(10, "Minus", operator.sub),
    "<<": BinaryOp(9, "ShiftL", lambda a, b: _bounded(a and a.bit_length() + b, operator.lshift, a, b)),
    ">>": BinaryOp(9, "ShiftR", operator.rshift),
    "<": BinaryOp(8, "Lt", lambda a, b: int(a < b)),
    "<=": BinaryOp(8, "Le", lambda a, b: int(a <= b)),
    ">": BinaryOp(8, "Gt", lambda a, b: int(a > b)),
    ">=": BinaryOp(8, "Ge", lambda a, b: int(a >= b)),
    "==": BinaryOp(7, "Eq", lambda a, b: int(a == b), True),
    "!=": BinaryOp(7, "Neq", lambda a, b: int(a != b), True),
    "&": BinaryOp(6, "And", operator.and_, True),
    "^": BinaryOp(5, "Xor", operator.xor, True),
    "^~": BinaryOp(5, "Xnor", lambda a, b: ~(a ^ b), True),
    "|": BinaryOp(4, "Or", operator.or_, True),
    "&&": BinaryOp(3, "LAnd", lambda a, b: int(bool(a) and bool(b)), True),
    "||": BinaryOp(2, "LOr", lambda a, b: int(bool(a) or bool(b)), True),
}
# Second spellings of the same operators.
BINARY.update({"<<<": BINARY["<<"], ">>>": BINARY[">>"], "~^": BINARY["^~"]})
# Four-state equality, which the parser reads as its two-state form.
FOUR_STATE = {"===": "==", "!==": "!="}
UNARY = {
    "~": UnaryOp("Not", operator.invert),
    "!": UnaryOp("LNot", lambda v: int(v == 0)),
    "-": UnaryOp("Minus", operator.neg),
    "+": UnaryOp(None, operator.pos),
    "&": UnaryOp("RedAnd", None),
    "|": UnaryOp("RedOr", None),
    "^": UnaryOp("RedXor", None),
    "~&": UnaryOp("RedAnd", None, True),
    "~|": UnaryOp("RedOr", None, True),
    "~^": UnaryOp("RedXor", None, True),
}
UNARY["^~"] = UNARY["~^"]
# Gate primitives: the operator that folds a gate's inputs (None for not
# and buf, which have one input), and whether INVERT wraps the result.
GATES = {"and": ("&", False), "nand": ("&", True), "or": ("|", False), "nor": ("|", True),
         "xor": ("^", False), "xnor": ("^", True), "not": (None, True), "buf": (None, False)}
INVERT = "~"


@dataclass(frozen=True)
class Expr:
    loc: SourceLocation


@dataclass(frozen=True)
class Ident(Expr):
    name: str


@dataclass(frozen=True)
class Number(Expr):
    text: str
    value: int | None  # None when the literal contains x/z bits


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    true: Expr
    false: Expr


@dataclass(frozen=True)
class Concat(Expr):
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class Repeat(Expr):
    count: Expr
    parts: tuple[Expr, ...]


@dataclass(frozen=True)
class BitSelect(Expr):
    base: Expr
    index: Expr


@dataclass(frozen=True)
class PartSelect(Expr):
    base: Expr
    msb: Expr
    lsb: Expr


# Fields of each expression type that hold a subexpression (an Expr or a
# tuple of them), in source order. They are the last constructor
# arguments, after loc and any operator.
EXPR_FIELDS: dict[type, tuple[str, ...]] = {
    Ident: (),
    Number: (),
    Unary: ("operand",),
    Binary: ("left", "right"),
    Ternary: ("cond", "true", "false"),
    Concat: ("parts",),
    Repeat: ("count", "parts"),
    BitSelect: ("base", "index"),
    PartSelect: ("base", "msb", "lsb"),
}
# The leading constructor arguments that map_expr copies unchanged.
_HEAD_FIELDS = {cls: tuple(f.name for f in fields(cls) if f.name not in kids)
                for cls, kids in EXPR_FIELDS.items()}


@dataclass
class Range:
    """[msb:lsb] declaration bounds; resolved holds concrete ints after
    parameter resolution at flatten time."""

    msb: Expr
    lsb: Expr
    resolved: tuple[int, int] | None = None


@dataclass
class Port:
    name: str
    direction: str  # input | output | inout
    width: Range | None
    loc: SourceLocation
    is_reg: bool = False


@dataclass
class NetDecl:
    name: str
    kind: str  # wire | reg
    width: Range | None
    loc: SourceLocation


@dataclass
class ParamDecl:
    name: str
    value: Expr
    local: bool
    loc: SourceLocation


@dataclass
class ContinuousAssign:
    lhs: Expr
    rhs: Expr
    loc: SourceLocation


@dataclass
class SensItem:
    edge: str | None  # posedge | negedge | None
    signal: str


@dataclass
class AssignStmt:
    lhs: Expr
    rhs: Expr
    blocking: bool
    loc: SourceLocation


@dataclass
class IfStmt:
    cond: Expr
    then_body: list
    else_body: list
    loc: SourceLocation


@dataclass
class CaseItem:
    labels: tuple[Expr, ...] | None  # None marks the default arm
    body: list


@dataclass
class CaseStmt:
    subject: Expr
    items: list[CaseItem]
    loc: SourceLocation


Statement = AssignStmt | IfStmt | CaseStmt


@dataclass
class AlwaysBlock:
    sensitivity: list[SensItem] | None  # None means @(*)
    body: list
    loc: SourceLocation


@dataclass
class Instance:
    module_name: str
    instance_name: str
    param_overrides: list[tuple[str | None, Expr]]
    connections: list[tuple[str | None, Expr | None]]  # (port or None for positional, expr)
    loc: SourceLocation


@dataclass
class GateInstance:
    gate: str  # and|nand|or|nor|xor|xnor|not|buf
    instance_name: str | None
    terminals: list[Expr]  # output(s) first, inputs last per gate type
    loc: SourceLocation


Item = NetDecl | ContinuousAssign | AlwaysBlock | Instance | GateInstance


def _view(kind: type) -> property:
    """A module's items of one kind, in list order, as a tuple."""
    return property(lambda self: tuple(filter(kind.__instancecheck__, self.items)))  # isinstance, called from C


@dataclass
class ModuleDecl:
    name: str
    ports: list[Port]
    params: list[ParamDecl]
    loc: SourceLocation
    items: list[Item]  # in source order, implicit nets last

    nets = _view(NetDecl)
    assigns = _view(ContinuousAssign)
    always_blocks = _view(AlwaysBlock)
    instances = _view(Instance)
    gates = _view(GateInstance)

    def port(self, name: str) -> Port | None:
        for p in self.ports:
            if p.name == name:
                return p
        return None


@dataclass
class Ast:
    modules: list[ModuleDecl]

    def module(self, name: str) -> ModuleDecl | None:
        for m in self.modules:
            if m.name == name:
                return m
        return None


def children(expr: Expr) -> list[Expr]:
    """The direct subexpressions of expr, in source order."""
    out = []
    for name in EXPR_FIELDS[type(expr)]:
        child = getattr(expr, name)
        if isinstance(child, tuple):
            out.extend(child)
        else:
            out.append(child)
    return out


def iter_expr(expr: Expr) -> Iterator[Expr]:
    """Every node of an expression tree, pre-order from an explicit stack:
    a node comes before its subexpressions, and the last child of a node
    is visited first."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if EXPR_FIELDS[type(e)]:
            stack.extend(children(e))


def map_expr(expr: Expr, hook: Callable) -> Expr:
    """Rebuild an expression tree through hook(e, walk), which sees each
    node before its subexpressions. A node it returns replaces e and is
    not descended into (the hook may call walk on the children it wants
    rewritten); None rebuilds e from its children walked left to right,
    or keeps e itself when every child comes back as the same object."""

    def walk(e: Expr) -> Expr:
        new = hook(e, walk)
        if new is not None:
            return new
        cls = type(e)
        kids = [getattr(e, name) for name in EXPR_FIELDS[cls]]
        walked = [tuple(map(walk, kid)) if isinstance(kid, tuple) else walk(kid) for kid in kids]
        if all(w is k or isinstance(w, tuple) and all(map(operator.is_, w, k)) for w, k in zip(walked, kids)):
            return e
        return cls(*[getattr(e, name) for name in _HEAD_FIELDS[cls]], *walked)

    return walk(expr)


def map_stmts(stmts: list[Statement], fn: Callable[[Expr], Expr]) -> list[Statement]:
    """Copy a statement list with fn applied to every expression in it,
    case labels and assignment targets included. A case statement maps
    its items before its subject."""
    out = []
    for stmt in stmts:
        if isinstance(stmt, AssignStmt):
            out.append(AssignStmt(fn(stmt.lhs), fn(stmt.rhs), stmt.blocking, stmt.loc))
        elif isinstance(stmt, IfStmt):
            out.append(IfStmt(fn(stmt.cond), map_stmts(stmt.then_body, fn),
                              map_stmts(stmt.else_body, fn), stmt.loc))
        elif isinstance(stmt, CaseStmt):
            items = [CaseItem(None if it.labels is None else tuple(fn(lab) for lab in it.labels),
                              map_stmts(it.body, fn)) for it in stmt.items]
            out.append(CaseStmt(fn(stmt.subject), items, stmt.loc))
        else:
            raise TypeError(f"unexpected statement node {type(stmt).__name__}")
    return out


def stmt_exprs(stmts: list[Statement]) -> Iterator[Expr]:
    """Every top-level expression of a statement list in source order:
    target before value, condition or subject before the bodies, and
    each case item's labels before its body."""
    for stmt in stmts:
        if isinstance(stmt, AssignStmt):
            yield stmt.lhs
            yield stmt.rhs
        elif isinstance(stmt, IfStmt):
            yield stmt.cond
            yield from stmt_exprs(stmt.then_body)
            yield from stmt_exprs(stmt.else_body)
        elif isinstance(stmt, CaseStmt):
            yield stmt.subject
            for item in stmt.items:
                yield from item.labels or ()
                yield from stmt_exprs(item.body)
