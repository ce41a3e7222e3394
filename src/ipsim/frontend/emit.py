"""Verilog source emission from parsed module trees.

Round trip guarantee: parse(emit(ast)) is structurally equal to ast.
Body items print in item_order so reordering transforms control the
emitted layout.
"""

from __future__ import annotations

import re

from ipsim.frontend import nodes as n

_SIMPLE_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")

_TERNARY_PREC = 1


def _ident(name: str) -> str:
    if _SIMPLE_IDENT.match(name):
        return name
    return f"\\{name} "


def emit_expr(expr: n.Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, n.Ident):
        return _ident(expr.name)
    if isinstance(expr, n.Number):
        return expr.text
    if isinstance(expr, n.Unary):
        inner = emit_expr(expr.operand, 100)
        if not isinstance(expr.operand, (n.Ident, n.Number, n.Concat, n.Repeat, n.BitSelect, n.PartSelect)):
            inner = f"({inner})"
        return f"{expr.op}{inner}"
    if isinstance(expr, n.Binary):
        prec = n.BINARY[expr.op].prec
        text = f"{emit_expr(expr.left, prec)} {expr.op} {emit_expr(expr.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(expr, n.Ternary):
        cond = emit_expr(expr.cond, _TERNARY_PREC + 1)
        true = emit_expr(expr.true, _TERNARY_PREC + 1)
        false = emit_expr(expr.false, _TERNARY_PREC)
        text = f"{cond} ? {true} : {false}"
        return f"({text})" if parent_prec > _TERNARY_PREC else text
    if isinstance(expr, n.Concat):
        return "{" + ", ".join(emit_expr(p) for p in expr.parts) + "}"
    if isinstance(expr, n.Repeat):
        return "{" + emit_expr(expr.count, 100) + "{" + ", ".join(emit_expr(p) for p in expr.parts) + "}}"
    if isinstance(expr, n.BitSelect):
        return f"{emit_expr(expr.base, 100)}[{emit_expr(expr.index)}]"
    if isinstance(expr, n.PartSelect):
        return f"{emit_expr(expr.base, 100)}[{emit_expr(expr.msb)}:{emit_expr(expr.lsb)}]"
    raise TypeError(f"cannot emit {type(expr).__name__}")


def _emit_range(width: n.Range | None) -> str:
    if width is None:
        return ""
    return f"[{emit_expr(width.msb)}:{emit_expr(width.lsb)}] "


def _emit_stmts(stmts: list, indent: str) -> list[str]:
    lines = []
    for stmt in stmts:
        lines.extend(_emit_stmt(stmt, indent))
    return lines


def _emit_body(stmts: list, indent: str) -> list[str]:
    """A statement position: wrap in begin/end unless exactly one line fits."""
    if len(stmts) == 1 and isinstance(stmts[0], n.AssignStmt):
        return _emit_stmt(stmts[0], indent)
    lines = [f"{indent}begin"]
    lines.extend(_emit_stmts(stmts, indent + "  "))
    lines.append(f"{indent}end")
    return lines


def _emit_stmt(stmt, indent: str) -> list[str]:
    if isinstance(stmt, n.AssignStmt):
        op = "=" if stmt.blocking else "<="
        return [f"{indent}{emit_expr(stmt.lhs)} {op} {emit_expr(stmt.rhs)};"]
    if isinstance(stmt, n.IfStmt):
        lines = [f"{indent}if ({emit_expr(stmt.cond)})"]
        lines.extend(_emit_body(stmt.then_body, indent + "  "))
        if stmt.else_body:
            lines.append(f"{indent}else")
            # Chains print as "else if" fallthrough blocks, not nested begins.
            if len(stmt.else_body) == 1 and isinstance(stmt.else_body[0], n.IfStmt):
                nested = _emit_stmt(stmt.else_body[0], indent)
                lines[-1] = f"{indent}else {nested[0].lstrip()}"
                lines.extend(nested[1:])
            else:
                lines.extend(_emit_body(stmt.else_body, indent + "  "))
        return lines
    if isinstance(stmt, n.CaseStmt):
        lines = [f"{indent}case ({emit_expr(stmt.subject)})"]
        for item in stmt.items:
            head = "default" if item.labels is None else ", ".join(emit_expr(l) for l in item.labels)
            body = _emit_body(item.body, indent + "    ")
            lines.append(f"{indent}  {head}: {body[0].lstrip()}")
            lines.extend(body[1:])
        lines.append(f"{indent}endcase")
        return lines
    raise TypeError(f"cannot emit statement {type(stmt).__name__}")


def emit_module(mod: n.ModuleDecl) -> str:
    lines = []
    header = f"module {_ident(mod.name)}"
    shared = [p for p in mod.params if not p.local]
    if shared:
        header += " #(" + ", ".join(f"parameter {_ident(p.name)} = {emit_expr(p.value)}" for p in shared) + ")"
    if mod.ports:
        decls = []
        for port in mod.ports:
            kind = " reg " if port.is_reg else " "
            decls.append(f"{port.direction}{kind}{_emit_range(port.width)}{_ident(port.name)}")
        header += " (" + ", ".join(decls) + ")"
    lines.append(header + ";")
    for p in mod.params:
        if p.local:
            lines.append(f"  localparam {_ident(p.name)} = {emit_expr(p.value)};")

    for kind, idx in mod.item_order:
        if kind == "net":
            net = mod.nets[idx]
            lines.append(f"  {net.kind} {_emit_range(net.width)}{_ident(net.name)};")
        elif kind == "assign":
            a = mod.assigns[idx]
            lines.append(f"  assign {emit_expr(a.lhs)} = {emit_expr(a.rhs)};")
        elif kind == "always":
            blk = mod.always_blocks[idx]
            if blk.sensitivity is None:
                sens = "*"
            else:
                sens = "(" + " or ".join(
                    (f"{s.edge} {_ident(s.signal)}" if s.edge else _ident(s.signal))
                    for s in blk.sensitivity) + ")"
            lines.append(f"  always @{sens}")
            lines.extend(_emit_body(blk.body, "    "))
        elif kind == "instance":
            inst = mod.instances[idx]
            text = f"  {_ident(inst.module_name)}"
            if inst.param_overrides:
                parts = []
                for name, expr in inst.param_overrides:
                    parts.append(emit_expr(expr) if name is None else f".{_ident(name)}({emit_expr(expr)})")
                text += " #(" + ", ".join(parts) + ")"
            conns = []
            for name, expr in inst.connections:
                body = "" if expr is None else emit_expr(expr)
                conns.append(body if name is None else f".{_ident(name)}({body})")
            lines.append(f"{text} {_ident(inst.instance_name)} ({', '.join(conns)});")
        elif kind == "gate":
            gate = mod.gates[idx]
            name = f" {_ident(gate.instance_name)}" if gate.instance_name else ""
            terms = ", ".join(emit_expr(t) for t in gate.terminals)
            lines.append(f"  {gate.gate}{name} ({terms});")
    lines.append("endmodule")
    return "\n".join(lines)


def emit(ast: n.Ast) -> str:
    return "\n\n".join(emit_module(m) for m in ast.modules) + "\n"
