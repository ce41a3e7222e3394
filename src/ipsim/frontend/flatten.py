"""Hierarchy elaboration.

Inlines every instance into a single flat module. Signals from an
instance subtree get dot-joined path prefixes (u1.u2.sig), parameters
are folded to integer constants and primitive gate instances are lowered
to continuous assignments, both through the operator table in nodes.
Port connections to simple identifiers become pure renames; compound
connections become glue assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ipsim.errors import (
    ElaborationError,
    PortArityMismatch,
    RecursiveInstantiation,
    UnknownModule,
    UnresolvedIdentifier,
)
from ipsim.frontend import nodes as n

# The most module instances, the top's included, that a flattened design
# may hold: four times the 16,386 nodes of a large gate netlist even if
# each node had an instance of its own. A module that instantiates the
# next one twice reaches it in 17 levels.
MAX_INSTANCES = 1 << 16


@dataclass
class FlatPort:
    name: str
    direction: str
    width: tuple[int, int] | None


@dataclass
class FlatModule:
    """A fully elaborated design: no instances, no parameters."""

    name: str
    ports: list[FlatPort] = field(default_factory=list)
    widths: dict[str, tuple[int, int] | None] = field(default_factory=dict)
    assigns: list[n.ContinuousAssign] = field(default_factory=list)
    always_blocks: list[n.AlwaysBlock] = field(default_factory=list)

    def port_directions(self) -> dict[str, str]:
        return {p.name: p.direction for p in self.ports}


def const_eval(expr: n.Expr, env: dict[str, int]) -> int:
    """Evaluate a constant expression over integer parameters. Each value
    it computes, a subexpression's included, is at most n.MAX_CONST_BITS
    wide, or the error is "constant expression too large"."""
    value = _fold(expr, env)
    if value.bit_length() > n.MAX_CONST_BITS:
        raise ElaborationError(f"{expr.loc}: constant expression too large")
    return value


def _fold(expr: n.Expr, env: dict[str, int]) -> int:
    if isinstance(expr, n.Number):
        if expr.value is None:
            raise ElaborationError(f"x/z digits in constant expression at {expr.loc}")
        return expr.value
    if isinstance(expr, n.Ident):
        if expr.name not in env:
            raise UnresolvedIdentifier(expr.name, expr.loc)
        return env[expr.name]
    if isinstance(expr, n.Unary):
        v = const_eval(expr.operand, env)
        fold = n.UNARY[expr.op].fold
        if fold is None:
            raise ElaborationError(f"{expr.loc}: reduction operator in constant expression")
        return fold(v)
    if isinstance(expr, n.Binary):
        a = const_eval(expr.left, env)
        b = const_eval(expr.right, env)
        try:
            return n.BINARY[expr.op].fold(a, b)
        except ZeroDivisionError:
            raise ElaborationError(f"{expr.loc}: division by zero in constant expression")
        except ValueError:
            raise ElaborationError(f"{expr.loc}: negative shift count in constant expression")
        except OverflowError:
            raise ElaborationError(f"{expr.loc}: constant expression too large")
    if isinstance(expr, n.Ternary):
        return const_eval(expr.true, env) if const_eval(expr.cond, env) else const_eval(expr.false, env)
    raise ElaborationError(f"{expr.loc}: unsupported constant expression form")


def _eval_params(mod: n.ModuleDecl, overrides: dict[str, int]) -> dict[str, int]:
    env: dict[str, int] = {}
    for p in mod.params:
        if not p.local and p.name in overrides:
            env[p.name] = overrides[p.name]
        else:
            env[p.name] = const_eval(p.value, env)
    unknown = set(overrides) - {p.name for p in mod.params if not p.local}
    if unknown:
        raise ElaborationError(f"module {mod.name!r} has no parameter(s) {sorted(unknown)}")
    return env


def _resolve_width(width: n.Range | None, env: dict[str, int]) -> tuple[int, int] | None:
    if width is None:
        return None
    return (const_eval(width.msb, env), const_eval(width.lsb, env))


# The expression forms const_eval folds, besides a parameter's name.
_FOLDABLE = (n.Number, n.Unary, n.Binary, n.Ternary)


def _substituter(prefix: str, env: dict[str, int], alias: dict[str, str]):
    """Map expressions of one instance into the flat module's names.
    Bounds must elaborate to constants so slices can be compared. A
    bit-select index that const_eval can fold and that names only
    parameters folds the same way; one by a literal or a name is left to
    the walk, which makes no new node."""

    def hook(e: n.Expr, walk):
        if isinstance(e, n.Ident):
            if e.name in env:
                return n.Number(e.loc, str(env[e.name]), env[e.name])
            name = alias.get(e.name, prefix + e.name)
            return e if name == e.name else n.Ident(e.loc, name)
        if isinstance(e, n.Repeat):
            count = const_eval(e.count, env)
            return n.Repeat(e.loc, n.Number(e.loc, str(count), count), tuple(walk(p) for p in e.parts))
        if (isinstance(e, n.BitSelect) and not isinstance(e.index, (n.Number, n.Ident))
                and all(k.name in env if isinstance(k, n.Ident) else isinstance(k, _FOLDABLE)
                        for k in n.iter_expr(e.index))):
            index = const_eval(e.index, env)
            return n.BitSelect(e.loc, walk(e.base), n.Number(e.loc, str(index), index))
        if isinstance(e, n.PartSelect):
            msb = const_eval(e.msb, env)
            lsb = const_eval(e.lsb, env)
            return n.PartSelect(e.loc, walk(e.base),
                                n.Number(e.loc, str(msb), msb), n.Number(e.loc, str(lsb), lsb))
        return None

    # An identifier, such as a gate terminal, needs no walk: the hook maps
    # it without descending.
    return lambda expr: hook(expr, None) if isinstance(expr, n.Ident) else n.map_expr(expr, hook)


def _instance_count(ast: n.Ast, name: str, counts: dict[str, int]) -> int:
    """The module instances that flattening module name would create, its
    own included, or MAX_INSTANCES + 1 if there are more: 1 plus its
    instances' counts, each module's found once into counts. An unknown
    module counts 1 and a recursive instance 0: the flattener reports
    both."""
    if name not in counts:
        mod = ast.module(name)
        if mod is None:
            return 1
        counts[name] = 0  # what an instance of name inside itself counts
        total = 1 + sum(_instance_count(ast, inst.module_name, counts) for inst in mod.instances)
        counts[name] = min(total, MAX_INSTANCES + 1)
    return counts[name]


class _Flattener:
    def __init__(self, ast: n.Ast):
        self.ast = ast
        self.flat: FlatModule | None = None

    def run(self, top: str) -> FlatModule:
        mod = self.ast.module(top)
        if mod is None:
            raise UnknownModule(top)
        if _instance_count(self.ast, top, {}) > MAX_INSTANCES:
            raise ElaborationError(f"module {top!r} flattens to more than {MAX_INSTANCES} module instances")
        env = _eval_params(mod, {})
        self.flat = FlatModule(name=top)
        for port in mod.ports:
            self.flat.ports.append(FlatPort(port.name, port.direction, _resolve_width(port.width, env)))
        self._inline(mod, prefix="", env=env, alias={}, stack=[top])
        return self.flat

    def _inline(self, mod: n.ModuleDecl, prefix: str, env: dict[str, int],
                alias: dict[str, str], stack: list[str]):
        flat = self.flat
        for port in mod.ports:
            if port.name not in alias:
                flat.widths[prefix + port.name] = _resolve_width(port.width, env)
        for net in mod.nets:
            if net.name not in alias:
                flat.widths[prefix + net.name] = _resolve_width(net.width, env)

        sub = _substituter(prefix, env, alias)
        for assign in mod.assigns:
            flat.assigns.append(n.ContinuousAssign(sub(assign.lhs), sub(assign.rhs), assign.loc))
        for blk in mod.always_blocks:
            sens = None
            if blk.sensitivity is not None:
                sens = [n.SensItem(s.edge, alias.get(s.signal, prefix + s.signal)) for s in blk.sensitivity]
            flat.always_blocks.append(n.AlwaysBlock(sens, n.map_stmts(blk.body, sub), blk.loc))
        for gate in mod.gates:
            self._lower_gate(gate, sub)
        for inst in mod.instances:
            self._inline_instance(inst, prefix, sub, stack)

    def _lower_gate(self, gate: n.GateInstance, sub):
        loc = gate.loc
        terms = [sub(t) for t in gate.terminals]
        op, inverts = n.GATES[gate.gate]
        need = 2 if op is None else 3
        if len(terms) < need:
            raise ElaborationError(f"{loc}: {gate.gate} gate needs at least {need} terminals")
        if op is None:  # not and buf drive every other terminal from the last
            outs, rhs = terms[:-1], terms[-1]
        else:
            outs, rhs = terms[:1], terms[1]
            for t in terms[2:]:
                rhs = n.Binary(loc, op, rhs, t)
        if inverts:
            rhs = n.Unary(loc, n.INVERT, rhs)
        for out in outs:
            self.flat.assigns.append(n.ContinuousAssign(out, rhs, loc))

    def _inline_instance(self, inst: n.Instance, prefix: str, sub, stack: list[str]):
        child = self.ast.module(inst.module_name)
        if child is None:
            raise UnknownModule(inst.module_name)
        if inst.module_name in stack:
            raise RecursiveInstantiation(stack + [inst.module_name])

        overrides: dict[str, int] = {}
        settable = [p for p in child.params if not p.local]
        positional_overrides = [ov for ov in inst.param_overrides if ov[0] is None]
        if positional_overrides and len(positional_overrides) != len(inst.param_overrides):
            raise ElaborationError(f"{inst.loc}: mixed positional and named parameter overrides")
        if positional_overrides:
            if len(positional_overrides) > len(settable):
                raise ElaborationError(f"{inst.loc}: too many parameter overrides for {child.name!r}")
            for p, (_, expr) in zip(settable, positional_overrides):
                overrides[p.name] = const_eval(sub(expr), {})
        else:
            for name, expr in inst.param_overrides:
                overrides[name] = const_eval(sub(expr), {})
        child_env = _eval_params(child, overrides)

        conns = inst.connections
        port_map: dict[str, n.Expr | None] = {}
        if conns and all(name is None for name, _ in conns):
            if len(conns) != len(child.ports):
                raise PortArityMismatch(f"{prefix}{inst.instance_name}", len(child.ports), len(conns))
            for port, (_, expr) in zip(child.ports, conns):
                port_map[port.name] = expr
        else:
            port_names = {p.name for p in child.ports}
            for name, expr in conns:
                if name is None:
                    raise ElaborationError(f"{inst.loc}: mixed positional and named connections")
                if name not in port_names:
                    raise ElaborationError(
                        f"{inst.loc}: module {child.name!r} has no port {name!r}")
                if name in port_map:
                    raise ElaborationError(f"{inst.loc}: port {name!r} connected twice")
                port_map[name] = expr

        child_prefix = f"{prefix}{inst.instance_name}."
        child_alias: dict[str, str] = {}
        for port in child.ports:
            expr = port_map.get(port.name)
            if expr is None:
                continue  # unconnected ports keep their prefixed net, undriven
            sub_conn = sub(expr)
            if isinstance(sub_conn, n.Ident):
                child_alias[port.name] = sub_conn.name
                continue
            inner = n.Ident(inst.loc, child_prefix + port.name)
            if port.direction == "output":
                self.flat.assigns.append(n.ContinuousAssign(sub_conn, inner, inst.loc))
            else:
                self.flat.assigns.append(n.ContinuousAssign(inner, sub_conn, inst.loc))
        self._inline(child, child_prefix, child_env, child_alias, stack + [inst.module_name])


def infer_top(ast: n.Ast) -> str:
    """The top module is the unique module never instantiated by another."""
    if not ast.modules:
        raise ElaborationError("no modules in source")
    instantiated = set()
    for mod in ast.modules:
        for inst in mod.instances:
            instantiated.add(inst.module_name)
    tops = [m.name for m in ast.modules if m.name not in instantiated]
    if len(tops) == 1:
        return tops[0]
    if not tops:
        raise ElaborationError("no top module: every module is instantiated somewhere")
    raise ElaborationError(f"ambiguous top module, candidates: {sorted(tops)}")


def flatten_hierarchy(ast: n.Ast, top: str | None = None) -> FlatModule:
    """Elaborate an Ast into a single FlatModule rooted at `top`."""
    return _Flattener(ast).run(top if top is not None else infer_top(ast))
