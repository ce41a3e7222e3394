"""Abstract syntax tree and operator table for the supported Verilog subset.

BINARY, FOUR_STATE, UNARY and GATES define the subset's operators and gate
primitives once, for every module that reads, folds or lowers them.

Each AST type is declared once, with its fields in constructor order:
ModuleDecl and Ast as classes, the rest on one line each of the table
after the Node and Expr bases. An expression type also names its kids,
its last fields, which hold subexpressions; the walkers at the end of
this module read them. Every expression carries the source location of
its first token as its loc. The parser's locs are lazy
(errors.TokenLocation): only a diagnostic that reads one computes it. A
module's items (nets, continuous assigns, always blocks, instances and
gates) form one list in source order, which the emitter prints and
reorder_items permutes; the per-kind attributes are read-only tuple
views of it.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass


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


# The widest constant value: every literal and every folded constant is
# checked against it. The elaborator and the DFG print constants as
# decimal text, and str() refuses an int of more digits than the process
# limit, which the caller owns and may set as low as 640 digits
# (sys.int_info.str_digits_check_threshold). 2 ** 2048 has 617.
MAX_CONST_BITS = 2048


def _bounded(width: int, fold: Callable[[int, int], int], a: int, b: int) -> int:
    """fold(a, b), unless width, a bound on its bit length (0 for 0 << b), is
    too wide: << and * check before they compute, so that a huge result
    is never allocated."""
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


class Node:
    """Base of the AST types. A type's fields are its base's, then the ones
    it lists in __slots__, in constructor order; fields holds them all.
    Node gives each type an __init__ that takes them positionally or by
    keyword, == by type and fields, and a Type(field=value, ...) repr.
    Nodes other than expressions are mutable and unhashable, since the
    variant rewrites set their fields."""

    __slots__ = ()
    fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls.fields = cls.fields + cls.__dict__.get("__slots__", ())
        # One __init__ per type, as dataclasses make theirs (a loop over
        # fields in a shared __init__ costs twice as much per node). It
        # stores through the slot descriptors, which an immutable type's
        # __setattr__ does not see.
        scope = {f"_set_{f}": getattr(cls, f).__set__ for f in cls.fields}
        body = "".join(f"\n    _set_{f}(self, {f})" for f in cls.fields)
        exec(f"def __init__(self, {', '.join(cls.fields)}):{body}", scope)
        cls.__init__ = scope["__init__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self.fields)})"


class Expr(Node):
    """An expression: immutable and hashable, so map_expr can share the
    subtrees it leaves unchanged. kids names the fields that hold a
    subexpression (an Expr or a tuple of them), in source order; they are
    a type's last fields, after loc and any operator."""

    __slots__ = ("loc",)
    kids: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __hash__(self) -> int:
        return hash(self._values())


def _subtype(base: type, name: str, fields: str = "", kids: str = "") -> type:
    """A type named name whose fields are base's, then fields, then kids."""
    namespace = {"__slots__": (*fields.split(), *kids.split())}
    if kids:
        namespace["kids"] = tuple(kids.split())
    return type(name, (base,), namespace)


Ident = _subtype(Expr, "Ident", "name")
Number = _subtype(Expr, "Number", "text value")  # value is None when the literal contains x/z bits
Unary = _subtype(Expr, "Unary", "op", kids="operand")
Binary = _subtype(Expr, "Binary", "op", kids="left right")
Ternary = _subtype(Expr, "Ternary", kids="cond true false")
Concat = _subtype(Expr, "Concat", kids="parts")  # parts: a tuple of Expr
Repeat = _subtype(Expr, "Repeat", kids="count parts")
BitSelect = _subtype(Expr, "BitSelect", kids="base index")
PartSelect = _subtype(Expr, "PartSelect", kids="base msb lsb")

Range = _subtype(Node, "Range", "msb lsb")  # [msb:lsb] declaration bounds
Port = _subtype(Node, "Port", "name direction width loc is_reg")  # direction: input | output | inout
NetDecl = _subtype(Node, "NetDecl", "name kind width loc")  # kind: wire | reg
ParamDecl = _subtype(Node, "ParamDecl", "name value local loc")
ContinuousAssign = _subtype(Node, "ContinuousAssign", "lhs rhs loc")
SensItem = _subtype(Node, "SensItem", "edge signal")  # edge: posedge | negedge | None

# Statements; a body is a list of them.
AssignStmt = _subtype(Node, "AssignStmt", "lhs rhs blocking loc")
IfStmt = _subtype(Node, "IfStmt", "cond then_body else_body loc")
CaseItem = _subtype(Node, "CaseItem", "labels body")  # labels: a tuple of Expr, or None for the default arm
CaseStmt = _subtype(Node, "CaseStmt", "subject items loc")  # items: a list of CaseItem
Statement = AssignStmt | IfStmt | CaseStmt

AlwaysBlock = _subtype(Node, "AlwaysBlock", "sensitivity body loc")  # sensitivity: SensItems, or None for @(*)
# param_overrides and connections: (name, expr) pairs, name None when
# positional; a connection's expr is None when it is left open.
Instance = _subtype(Node, "Instance", "module_name instance_name param_overrides connections loc")
# gate: and | nand | or | nor | xor | xnor | not | buf; instance_name may
# be None; terminals: the output(s) first, inputs last per gate type.
GateInstance = _subtype(Node, "GateInstance", "gate instance_name terminals loc")
Item = NetDecl | ContinuousAssign | AlwaysBlock | Instance | GateInstance


def _view(kind: type) -> property:
    """A module's items of one kind, in list order, as a tuple."""
    return property(lambda self: tuple(filter(kind.__instancecheck__, self.items)))  # isinstance, called from C


class ModuleDecl(Node):
    __slots__ = ("name", "ports", "params", "loc", "items")  # items: in source order, implicit nets last

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


class Ast(Node):
    __slots__ = ("modules",)

    def module(self, name: str) -> ModuleDecl | None:
        for m in self.modules:
            if m.name == name:
                return m
        return None


def children(expr: Expr) -> list[Expr]:
    """The direct subexpressions of expr, in source order."""
    out = []
    for name in expr.kids:
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
        if e.kids:
            stack.extend(children(e))


def map_expr(expr: Expr, hook: Callable) -> Expr:
    """Rebuild an expression tree through hook(e, walk), which sees each
    node before its subexpressions. A node it returns replaces e and is
    not descended into (the hook may call walk on the children it wants
    rewritten); None rebuilds e from its children walked left to right,
    or keeps e itself when every child comes back as the same object."""
    return _Walk(hook)(expr)


class _Walk:
    """map_expr's walk: an object that holds the hook, where a closure
    that called itself would leave a reference cycle per walk."""

    __slots__ = ("hook",)

    def __init__(self, hook: Callable):
        self.hook = hook

    def __call__(self, e: Expr) -> Expr:
        new = self.hook(e, self)
        if new is not None:
            return new
        kids = [getattr(e, name) for name in e.kids]
        walked = [tuple(map(self, kid)) if isinstance(kid, tuple) else self(kid) for kid in kids]
        if all(w is k or isinstance(w, tuple) and all(map(operator.is_, w, k)) for w, k in zip(walked, kids)):
            return e
        return type(e)(*[getattr(e, name) for name in e.fields[:-len(kids)]], *walked)


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
