"""Recursive-descent parser for the supported Verilog subset.

Constructs outside the subset raise UnsupportedConstruct (not a syntax
error) so corpus scans can skip such files. Operator precedence follows
the Verilog standard.
"""

from __future__ import annotations

from ipsim.errors import FrontendError, SourceLocation, TokenLocation, UnresolvedIdentifier, UnsupportedConstruct, VerilogSyntaxError
from ipsim.frontend.lexer import UNSUPPORTED_KEYWORDS, Lines, parse_number, scan
from ipsim.frontend import nodes as n

# Precedence by operator token, a four-state operator at its two-state form's.
_PREC = {op: n.BINARY[n.FOUR_STATE.get(op, op)].prec for op in [*n.BINARY, *n.FOUR_STATE]}


class _Parser:
    def __init__(self, source: str, path: str):
        self.kinds, self.texts = scan(source, path)
        self.lines = Lines(source, path)
        self.path = path
        self.pos = 0
        # The current token's kind and text, which advance keeps in step.
        self.kind, self.text = self.kinds[0], self.texts[0]
        # Ports of the module being parsed, by name: the first of each
        # name, as ModuleDecl.port finds it.
        self.ports: dict[str, n.Port] = {}

    def loc(self) -> SourceLocation:
        """The current token's location, found only if it is read."""
        return TokenLocation(self.lines, self.pos)

    def advance(self) -> str:
        """Step past the current token, unless it is eof; return its text."""
        text = self.text
        if self.kind != "eof":
            self.pos += 1
            self.kind, self.text = self.kinds[self.pos], self.texts[self.pos]
        return text

    def check(self, text: str) -> bool:
        return self.text == text and self.kind in ("op", "keyword")

    def keyword(self) -> str | None:
        """The current token's text if it is a keyword (``\\wire`` is an identifier)."""
        return self.text if self.kind == "keyword" else None

    def accept(self, text: str) -> str | None:
        return self.advance() if self.check(text) else None

    def expect(self, text: str) -> str:
        if not self.check(text):
            self.error(repr(text))
        return self.advance()

    def expect_ident(self) -> str:
        if self.kind != "ident":
            self.error("an identifier")
        return self.advance()

    def expect_at(self, text: str) -> SourceLocation:
        """Expect ``text``, and return its location."""
        loc = self.loc()
        self.expect(text)
        return loc

    def expect_named(self) -> tuple[str, SourceLocation]:
        """An identifier's text and location."""
        loc = self.loc()
        return self.expect_ident(), loc

    def parse_list(self, parse_item) -> list:
        """One or more ``parse_item()`` results, separated by commas."""
        items = [parse_item()]
        while self.text == "," and self.kind == "op":
            self.advance()
            items.append(parse_item())
        return items

    def error(self, *expected: str):
        got = self.text if self.kind != "eof" else "end of input"
        if self.kind == "ident" and self.lines.text[self.lines.token_offset(self.pos)] == "\\":
            got = "\\" + got  # an escaped identifier, which may spell an operator
        raise VerilogSyntaxError(self.loc(), expected, got)

    def unsupported(self, construct: str, loc: SourceLocation | None = None):
        raise UnsupportedConstruct(loc or self.loc(), construct)

    # --- top level ---------------------------------------------------

    def parse_source(self) -> n.Ast:
        modules = []
        while self.kind != "eof":
            if self.check("module"):
                modules.append(self.parse_module())
            elif self.keyword() in UNSUPPORTED_KEYWORDS:
                self.unsupported(self.text)
            else:
                self.error("'module'")
        ast = n.Ast(modules)
        for mod in modules:
            _resolve_module(mod, self.path)
        return ast

    def parse_module(self) -> n.ModuleDecl:
        loc = self.expect_at("module")
        name = self.expect_ident()
        mod = n.ModuleDecl(name=name, ports=[], params=[], loc=loc, items=[])
        if self.accept("#"):
            self.parse_param_header(mod)
        header_names: list[str] = []
        if self.accept("("):
            if not self.accept(")"):
                if self.keyword() in ("input", "output", "inout"):
                    self.parse_ansi_ports(mod)
                else:
                    header_names = self.parse_list(self.expect_ident)
                self.expect(")")
        self.expect(";")
        for pname in header_names:
            # Direction/width filled by body declarations.
            mod.ports.append(n.Port(pname, "", None, loc, False))
        self.ports = {}
        for port in mod.ports:
            self.ports.setdefault(port.name, port)
        while not self.check("endmodule"):
            if self.kind == "eof":
                self.error("'endmodule'")
            self.parse_item(mod)
        self.expect("endmodule")
        for port in mod.ports:
            if not port.direction:
                raise VerilogSyntaxError(port.loc, (f"a direction declaration for port {port.name!r}",), "none")
        return mod

    def parse_param_header(self, mod: n.ModuleDecl):
        self.expect("(")
        self.expect("parameter")
        while True:
            if self.check("["):
                self.parse_range()  # parameter range is metadata we don't keep
            name, loc = self.expect_named()
            self.expect("=")
            mod.params.append(n.ParamDecl(name, self.parse_expr(), local=False, loc=loc))
            if not self.accept(","):
                break
            self.accept("parameter")
        self.expect(")")

    def parse_ansi_ports(self, mod: n.ModuleDecl):
        direction = None
        while True:
            if self.keyword() in ("input", "output", "inout"):
                direction = self.advance()
                is_reg = (self.accept("reg") or self.accept("wire")) == "reg"
                width = self.parse_range() if self.check("[") else None
            if direction is None:
                self.error("'input'", "'output'", "'inout'")
            name, loc = self.expect_named()
            mod.ports.append(n.Port(name, direction, width, loc, is_reg=is_reg))
            if not self.accept(","):
                break

    def parse_range(self) -> n.Range:
        self.expect("[")
        msb = self.parse_expr()
        self.expect(":")
        lsb = self.parse_expr()
        self.expect("]")
        return n.Range(msb, lsb)

    # --- module items ------------------------------------------------

    def parse_item(self, mod: n.ModuleDecl):
        kind, text, word = self.kind, self.text, self.keyword()
        if word in n.GATES:
            self.parse_gate(mod)
        elif word in ("input", "output", "inout"):
            self.parse_port_decl(mod)
        elif word in ("wire", "reg"):
            self.parse_net_decl(mod)
        elif word in ("parameter", "localparam"):
            self.parse_param_decl(mod)
        elif word == "assign":
            self.parse_assign(mod)
        elif word == "always":
            self.parse_always(mod)
        elif word in UNSUPPORTED_KEYWORDS:
            self.unsupported(text)
        elif kind == "ident":
            self.parse_instance(mod)
        elif kind == "system":
            self.unsupported(f"system task {text}")
        else:
            self.error("a module item")

    def parse_port_decl(self, mod: n.ModuleDecl):
        direction = self.advance()
        is_reg = (self.accept("reg") or self.accept("wire")) == "reg"
        width = self.parse_range() if self.check("[") else None
        while True:
            name, loc = self.expect_named()
            port = self.ports.get(name)
            if port is None:
                port = n.Port(name, direction, width, loc, is_reg=is_reg)
                mod.ports.append(port)
                self.ports[name] = port
            elif port.direction:
                raise VerilogSyntaxError(loc, (f"a single declaration of port {name!r}",), "redeclaration")
            else:
                port.direction, port.width, port.is_reg = direction, width, is_reg
            if not self.accept(","):
                break
        self.expect(";")

    def parse_net_decl(self, mod: n.ModuleDecl):
        kind = self.advance()
        width = self.parse_range() if self.check("[") else None
        while True:
            name, loc = self.expect_named()
            if self.check("["):
                self.unsupported("memory array declaration", loc)
            mod.items.append(n.NetDecl(name, kind, width, loc))
            if self.accept("="):
                rhs = self.parse_expr()
                mod.items.append(n.ContinuousAssign(n.Ident(loc, name), rhs, loc))
            if not self.accept(","):
                break
        self.expect(";")

    def parse_param_decl(self, mod: n.ModuleDecl):
        local = self.advance() == "localparam"
        if self.check("["):
            self.parse_range()
        while True:
            name, loc = self.expect_named()
            self.expect("=")
            mod.params.append(n.ParamDecl(name, self.parse_expr(), local=local, loc=loc))
            if not self.accept(","):
                break
        self.expect(";")

    def parse_assign(self, mod: n.ModuleDecl):
        self.expect("assign")
        if self.check("#"):
            self.unsupported("delay control")
        while True:
            lhs = self.parse_lvalue()
            self.expect("=")
            rhs = self.parse_expr()
            mod.items.append(n.ContinuousAssign(lhs, rhs, lhs.loc))
            if not self.accept(","):
                break
        self.expect(";")

    def parse_always(self, mod: n.ModuleDecl):
        loc = self.expect_at("always")
        self.expect("@")
        sens = self.parse_sensitivity()
        body = self.parse_stmt()
        mod.items.append(n.AlwaysBlock(sens, body, loc))

    def parse_sensitivity(self) -> list[n.SensItem] | None:
        if self.accept("*"):
            return None
        self.expect("(")
        if self.accept("*"):
            self.expect(")")
            return None
        items = []
        while True:
            edge = None
            if self.keyword() in ("posedge", "negedge"):
                edge = self.advance()
            items.append(n.SensItem(edge, self.expect_ident()))
            if not (self.accept("or") or self.accept(",")):
                break
        self.expect(")")
        return items

    def parse_stmt(self) -> list:
        loc = self.loc()
        if self.accept("begin"):
            if self.accept(":"):
                self.expect_ident()  # named blocks: name is ignorable metadata
            stmts: list = []
            while not self.check("end"):
                if self.kind == "eof":
                    self.error("'end'")
                stmts.extend(self.parse_stmt())
            self.expect("end")
            return stmts
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_stmt()
            else_body = self.parse_stmt() if self.accept("else") else []
            return [n.IfStmt(cond, then_body, else_body, loc)]
        if self.keyword() in ("case", "casex", "casez"):
            return [self.parse_case()]
        if self.accept(";"):
            return []
        if self.keyword() in UNSUPPORTED_KEYWORDS:
            self.unsupported(self.text)
        if self.kind == "system":
            self.unsupported(f"system task {self.text}")
        if self.check("#"):
            self.unsupported("delay control")
        lhs = self.parse_lvalue()
        if self.accept("="):
            blocking = True
        elif self.accept("<="):
            blocking = False
        else:
            self.error("'='", "'<='")
        rhs = self.parse_expr()
        self.expect(";")
        return [n.AssignStmt(lhs, rhs, blocking, loc)]

    def parse_case(self) -> n.CaseStmt:
        loc = self.loc()
        self.advance()  # case/casex/casez
        self.expect("(")
        subject = self.parse_expr()
        self.expect(")")
        items: list[n.CaseItem] = []
        while not self.check("endcase"):
            if self.kind == "eof":
                self.error("'endcase'")
            if self.accept("default"):
                self.accept(":")
                items.append(n.CaseItem(None, self.parse_stmt()))
            else:
                labels = self.parse_list(self.parse_expr)
                self.expect(":")
                items.append(n.CaseItem(tuple(labels), self.parse_stmt()))
        self.expect("endcase")
        return n.CaseStmt(subject, items, loc)

    def parse_gate(self, mod: n.ModuleDecl):
        gate = self.advance()
        while True:
            inst_name = self.expect_ident() if self.kind == "ident" else None
            loc = self.expect_at("(")
            terms = self.parse_list(self.parse_expr)
            self.expect(")")
            mod.items.append(n.GateInstance(gate, inst_name, terms, loc))
            if not self.accept(","):
                break
        self.expect(";")

    def parse_instance(self, mod: n.ModuleDecl):
        module, loc = self.expect_named()
        overrides: list[tuple[str | None, n.Expr]] = []
        if self.accept("#"):
            self.expect("(")
            if not self.check(")"):
                while True:
                    if self.accept("."):
                        pname = self.expect_ident()
                        self.expect("(")
                        overrides.append((pname, self.parse_expr()))
                        self.expect(")")
                    else:
                        overrides.append((None, self.parse_expr()))
                    if not self.accept(","):
                        break
            self.expect(")")
        while True:
            instance = self.expect_ident()
            self.expect("(")
            conns = self.parse_connections()
            self.expect(")")
            mod.items.append(n.Instance(module, instance, overrides, conns, loc))
            if not self.accept(","):
                break
        self.expect(";")

    def parse_connections(self) -> list[tuple[str | None, n.Expr | None]]:
        conns: list[tuple[str | None, n.Expr | None]] = []
        if self.check(")"):
            return conns
        while True:
            if self.accept("."):
                pname = self.expect_ident()
                self.expect("(")
                expr = None if self.check(")") else self.parse_expr()
                self.expect(")")
                conns.append((pname, expr))
            elif self.check(",") or self.check(")"):
                conns.append((None, None))
            else:
                conns.append((None, self.parse_expr()))
            if not self.accept(","):
                break
        return conns

    # --- expressions -------------------------------------------------

    def parse_lvalue(self) -> n.Expr:
        if self.check("{"):
            loc = self.expect_at("{")
            parts = self.parse_list(self.parse_lvalue)
            self.expect("}")
            return n.Concat(loc, tuple(parts))
        name, loc = self.expect_named()
        return self.parse_postfix(n.Ident(loc, name))

    def parse_expr(self) -> n.Expr:
        left = self.parse_binary(0)
        if self.text == "?" and self.kind == "op":
            self.advance()
            true = self.parse_expr()
            self.expect(":")
            false = self.parse_expr()
            return n.Ternary(left.loc, left, true, false)
        return left

    def parse_binary(self, min_prec: int) -> n.Expr:
        left = self.parse_unary()
        while self.kind == "op" and (prec := _PREC.get(self.text, -1)) >= min_prec:
            if self.text in ("+", "-") and self.texts[self.pos + 1] == ":" and self.kinds[self.pos + 1] == "op":
                break  # an indexed part select, which parse_postfix rejects
            op = self.advance()
            right = self.parse_binary(prec + 1)
            left = n.Binary(left.loc, n.FOUR_STATE.get(op, op), left, right)
        return left

    def parse_unary(self) -> n.Expr:
        if self.kind == "op" and self.text in n.UNARY:
            loc = self.loc()
            op = self.advance()
            operand = self.parse_unary()
            return operand if n.UNARY[op].kind is None else n.Unary(loc, op, operand)
        return self.parse_primary()

    def parse_primary(self) -> n.Expr:
        kind, text, loc = self.kind, self.text, self.loc()
        if kind == "ident":
            self.advance()
            if self.kind != "op" or self.text not in "[.(":  # a select, or what is rejected next
                return n.Ident(loc, text)
            if self.text != "[":
                self.unsupported("hierarchical reference" if self.text == "." else "function call", loc)
            return self.parse_postfix(n.Ident(loc, text))
        if kind == "number":
            try:
                value = parse_number(text)
            except ValueError as exc:
                self.error(*exc.args)
            except OverflowError:
                raise FrontendError("constant expression too large", loc)
            self.advance()
            return n.Number(loc, text, value)
        if kind == "real":
            self.unsupported("real literal")
        if kind == "system":
            self.unsupported(f"system function {text}")
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if self.check("{"):
            return self.parse_concat()
        self.error("an expression")

    def parse_postfix(self, base: n.Expr) -> n.Expr:
        while self.check("["):
            loc = self.expect_at("[")
            first = self.parse_expr()
            if self.accept(":"):
                second = self.parse_expr()
                self.expect("]")
                base = n.PartSelect(loc, base, first, second)
            elif self.kind == "op" and self.text in ("+", "-"):
                self.unsupported("indexed part select", loc)
            else:
                self.expect("]")
                if isinstance(base, (n.BitSelect, n.PartSelect)):
                    self.unsupported("memory element select", loc)
                base = n.BitSelect(loc, base, first)
        return base

    def parse_concat(self) -> n.Expr:
        loc = self.expect_at("{")
        first = self.parse_expr()
        if self.accept("{"):
            parts = self.parse_list(self.parse_expr)
            self.expect("}")
            self.expect("}")
            return n.Repeat(loc, first, tuple(parts))
        parts = [first]
        while self.accept(","):
            parts.append(self.parse_expr())
        self.expect("}")
        return n.Concat(loc, tuple(parts))


def _resolve_module(mod: n.ModuleDecl, path: str):
    """Check identifier resolution, inserting implicit 1-bit wires where the
    standard allows them (simple names in port connections and assign LHS)."""
    declared = {p.name for p in mod.ports}
    declared.update(d.name for d in mod.nets)
    declared.update(p.name for p in mod.params)

    def implicit(name: str, loc: SourceLocation):
        if name not in declared:
            declared.add(name)
            mod.items.append(n.NetDecl(name, "wire", None, loc))

    for inst in mod.instances:
        for _, expr in inst.connections:
            if isinstance(expr, n.Ident):
                implicit(expr.name, expr.loc)
    for gate in mod.gates:
        for expr in gate.terminals:
            if isinstance(expr, n.Ident):
                implicit(expr.name, expr.loc)
    for assign in mod.assigns:
        for e in n.iter_expr(assign.lhs):
            if isinstance(e, n.Ident):
                implicit(e.name, e.loc)

    def check_expr(expr: n.Expr | None):
        if expr is None:
            return
        for e in n.iter_expr(expr):
            if isinstance(e, n.Ident) and e.name not in declared:
                raise UnresolvedIdentifier(e.name, e.loc)

    for assign in mod.assigns:
        check_expr(assign.rhs)
    for blk in mod.always_blocks:
        if blk.sensitivity:
            for item in blk.sensitivity:
                if item.signal not in declared:
                    raise UnresolvedIdentifier(item.signal, blk.loc)
        for expr in n.stmt_exprs(blk.body):
            check_expr(expr)
    for inst in mod.instances:
        for _, expr in inst.connections:
            check_expr(expr)
        for _, expr in inst.param_overrides:
            check_expr(expr)
    for gate in mod.gates:
        for expr in gate.terminals:
            if not isinstance(expr, n.Ident):  # the implicit pass declared the others
                check_expr(expr)


def parse(text: str, path: str = "<text>") -> n.Ast:
    """Parse preprocessed Verilog text into an Ast."""
    return _Parser(text, path).parse_source()


def parse_unit(preprocessed: list[tuple[str, str]]) -> n.Ast:
    """Parse every file of a preprocessed unit into one merged Ast."""
    modules: list[n.ModuleDecl] = []
    seen: dict[str, str] = {}
    for path, text in preprocessed:
        ast = parse(text, path)
        for mod in ast.modules:
            if mod.name in seen:
                raise VerilogSyntaxError(mod.loc, (f"a unique definition of module {mod.name!r}",), f"duplicate (first in {seen[mod.name]})")
            seen[mod.name] = path
            modules.append(mod)
    return n.Ast(modules)
