"""Verilog source emission from parsed module trees.

Round trip guarantee: parse(emit(ast)) is structurally equal to ast.
A module's items are one list in source order, which emit_module prints
as it stands, so reorder_items's permutation is the emitted layout.
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

    for item in mod.items:
        if isinstance(item, n.NetDecl):
            lines.append(f"  {item.kind} {_emit_range(item.width)}{_ident(item.name)};")
        elif isinstance(item, n.ContinuousAssign):
            lines.append(f"  assign {emit_expr(item.lhs)} = {emit_expr(item.rhs)};")
        elif isinstance(item, n.AlwaysBlock):
            if item.sensitivity is None:
                sens = "*"
            else:
                sens = "(" + " or ".join(
                    (f"{s.edge} {_ident(s.signal)}" if s.edge else _ident(s.signal))
                    for s in item.sensitivity) + ")"
            lines.append(f"  always @{sens}")
            lines.extend(_emit_body(item.body, "    "))
        elif isinstance(item, n.Instance):
            text = f"  {_ident(item.module_name)}"
            if item.param_overrides:
                parts = []
                for name, expr in item.param_overrides:
                    parts.append(emit_expr(expr) if name is None else f".{_ident(name)}({emit_expr(expr)})")
                text += " #(" + ", ".join(parts) + ")"
            conns = []
            for name, expr in item.connections:
                body = "" if expr is None else emit_expr(expr)
                conns.append(body if name is None else f".{_ident(name)}({body})")
            lines.append(f"{text} {_ident(item.instance_name)} ({', '.join(conns)});")
        else:
            name = f" {_ident(item.instance_name)}" if item.instance_name else ""
            terms = ", ".join(emit_expr(t) for t in item.terminals)
            lines.append(f"  {item.gate}{name} ({terms});")
    lines.append("endmodule")
    return "\n".join(lines)


def emit(ast: n.Ast) -> str:
    return "\n\n".join(emit_module(m) for m in ast.modules) + "\n"
