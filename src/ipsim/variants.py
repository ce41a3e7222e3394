"""Seeded source-level rewrites that preserve the data-flow graph.

Used to grow labeled positive pairs from a handful of seed designs.
Each transform keeps ports and the trimmed graph intact by construction:
renames touch only non-port identifiers, reordering permutes concurrent
items, assign splitting routes a subexpression through a fresh wire
that later trims away, operand swaps touch only commutative operators,
and wrapping adds a pass-through top module.
"""

from __future__ import annotations

import numpy as np

from ipsim.frontend import nodes as n
from ipsim.frontend.emit import emit
from ipsim.frontend.flatten import infer_top
from ipsim.frontend.lexer import KEYWORDS, UNSUPPORTED_KEYWORDS
from ipsim.frontend.parser import parse
from ipsim.frontend.preprocess import preprocess_text


def _loc():
    from ipsim.errors import SourceLocation
    return SourceLocation("<variant>", 0, 0)


def _module_names(mod: n.ModuleDecl) -> set[str]:
    names = {p.name for p in mod.ports}
    names.update(d.name for d in mod.nets)
    names.update(p.name for p in mod.params)
    names.update(i.instance_name for i in mod.instances)
    names.update(g.instance_name for g in mod.gates if g.instance_name)
    return names


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    bump = 0
    while name in taken or name in KEYWORDS or name in UNSUPPORTED_KEYWORDS:
        bump += 1
        name = f"{base}_{bump}"
    taken.add(name)
    return name


def _renamer(mapping: dict[str, str]):
    def hook(e: n.Expr, walk):
        if isinstance(e, n.Ident) and e.name in mapping:
            return n.Ident(e.loc, mapping[e.name])
        return None

    return lambda expr: n.map_expr(expr, hook)


def _map_range(width: n.Range | None, rename) -> n.Range | None:
    if width is None:
        return None
    return n.Range(rename(width.msb), rename(width.lsb))


def rename_signals(mod: n.ModuleDecl, rng: np.random.Generator):
    """Give a fresh machine name to every declared name except the module's
    interface: its ports and the parameters a parent may override by name."""
    port_names = {p.name for p in mod.ports}
    old = sorted(name for name in
                 ({d.name for d in mod.nets} | {p.name for p in mod.params if p.local})
                 if name not in port_names)
    taken = _module_names(mod)
    numbers = rng.permutation(len(old) * 3 + 7)[:len(old)]
    mapping = {}
    for name, num in zip(old, numbers):
        mapping[name] = _fresh_name(f"n{int(num):03d}", taken)
    inst_names = sorted(i.instance_name for i in mod.instances)
    inst_numbers = rng.permutation(len(inst_names) * 3 + 7)[:len(inst_names)]
    inst_map = {}
    for name, num in zip(inst_names, inst_numbers):
        inst_map[name] = _fresh_name(f"g{int(num):03d}", taken)
    _apply_rename(mod, mapping, inst_map)


def _apply_rename(mod: n.ModuleDecl, mapping: dict[str, str], inst_map: dict[str, str]):
    rename = _renamer(mapping)
    for net in mod.nets:
        net.name, net.width = mapping.get(net.name, net.name), _map_range(net.width, rename)
    for p in mod.params:
        p.name, p.value = mapping.get(p.name, p.name), rename(p.value)
    for port in mod.ports:
        port.width = _map_range(port.width, rename)
    for a in mod.assigns:
        a.lhs, a.rhs = rename(a.lhs), rename(a.rhs)
    for blk in mod.always_blocks:
        if blk.sensitivity is not None:
            blk.sensitivity = [n.SensItem(s.edge, mapping.get(s.signal, s.signal))
                               for s in blk.sensitivity]
        blk.body = n.map_stmts(blk.body, rename)
    for inst in mod.instances:
        inst.instance_name = inst_map.get(inst.instance_name, inst.instance_name)
        inst.connections = [(name, None if e is None else rename(e)) for name, e in inst.connections]
        inst.param_overrides = [(name, rename(e)) for name, e in inst.param_overrides]
    for gate in mod.gates:
        if gate.instance_name:
            gate.instance_name = inst_map.get(gate.instance_name, gate.instance_name)
        gate.terminals = [rename(t) for t in gate.terminals]


def reorder_items(mod: n.ModuleDecl, rng: np.random.Generator):
    """Permute concurrent module items and named connection lists. The
    item permutation is drawn first, then each instance's in source order."""
    perm = rng.permutation(len(mod.items))
    for inst in mod.instances:
        if inst.connections and all(name is not None for name, _ in inst.connections):
            inst.connections = [inst.connections[j] for j in rng.permutation(len(inst.connections))]
    mod.items = [mod.items[i] for i in perm]


def swap_commutative(mod: n.ModuleDecl, rng: np.random.Generator):
    """Flip operands of commutative binary operators at random."""

    def hook(e: n.Expr, walk):
        # Post-order, so the draws for a node's operands come before its
        # own. Repeat counts and part-select bounds are left as they are.
        if isinstance(e, n.Binary):
            left = walk(e.left)
            right = walk(e.right)
            if n.BINARY[e.op].commutes and rng.random() < 0.5:
                left, right = right, left
            return n.Binary(e.loc, e.op, left, right)
        if isinstance(e, n.Repeat):
            return n.Repeat(e.loc, e.count, tuple(walk(p) for p in e.parts))
        if isinstance(e, n.PartSelect):
            return n.PartSelect(e.loc, walk(e.base), e.msb, e.lsb)
        return None

    def swap(expr: n.Expr) -> n.Expr:
        return n.map_expr(expr, hook)

    def swap_stmts(stmts: list) -> list:
        out = []
        for stmt in stmts:
            if isinstance(stmt, n.AssignStmt):
                out.append(n.AssignStmt(stmt.lhs, swap(stmt.rhs), stmt.blocking, stmt.loc))
            elif isinstance(stmt, n.IfStmt):
                out.append(n.IfStmt(swap(stmt.cond), swap_stmts(stmt.then_body),
                                    swap_stmts(stmt.else_body), stmt.loc))
            elif isinstance(stmt, n.CaseStmt):
                items = [n.CaseItem(it.labels, swap_stmts(it.body)) for it in stmt.items]
                out.append(n.CaseStmt(swap(stmt.subject), items, stmt.loc))
            else:
                out.append(stmt)
        return out

    for a in mod.assigns:
        a.rhs = swap(a.rhs)
    for blk in mod.always_blocks:
        blk.body = swap_stmts(blk.body)


def _subexpressions(expr: n.Expr) -> list[n.Expr]:
    # Selects and repeats are neither split out nor searched.
    found = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (n.Binary, n.Unary, n.Ternary, n.Concat)):
            found.append(e)
            stack.extend(n.children(e))
    return found


def split_assign(mod: n.ModuleDecl, rng: np.random.Generator) -> bool:
    """Route one random subexpression of a continuous assign through a
    fresh wire. Returns False when the module has nothing to split."""
    candidates = [a for a in mod.assigns if _subexpressions(a.rhs)]
    if not candidates:
        return False
    assign = candidates[int(rng.integers(0, len(candidates)))]
    subs = _subexpressions(assign.rhs)
    target = subs[int(rng.integers(0, len(subs)))]
    taken = _module_names(mod)
    wire = _fresh_name(f"t{int(rng.integers(0, 900)):03d}", taken)
    width = None
    if isinstance(assign.lhs, n.Ident):
        for port in mod.ports:
            if port.name == assign.lhs.name:
                width = port.width
        for net in mod.nets:
            if net.name == assign.lhs.name:
                width = net.width
    loc = _loc()
    mod.items += [n.NetDecl(wire, "wire", width, loc), n.ContinuousAssign(n.Ident(loc, wire), target, loc)]
    assign.rhs = n.map_expr(assign.rhs, lambda e, walk: n.Ident(loc, wire) if e is target else None)
    return True


def wrap_top(ast: n.Ast, tag: str) -> n.Ast:
    """Add a pass-through top module around the current top."""
    top = ast.module(infer_top(ast))
    loc = _loc()
    taken = {m.name for m in ast.modules}
    name = _fresh_name(f"{top.name}_{tag}", taken)
    ports = [n.Port(p.name, p.direction, p.width, loc, is_reg=False) for p in top.ports]
    params = [n.ParamDecl(p.name, p.value, p.local, loc) for p in top.params]
    overrides = [(p.name, n.Ident(loc, p.name)) for p in top.params if not p.local]
    conns = [(p.name, n.Ident(loc, p.name)) for p in top.ports]
    inst = n.Instance(top.name, "u_core", overrides, conns, loc)
    wrapper = n.ModuleDecl(name=name, ports=ports, params=params, loc=loc, items=[inst])
    return n.Ast(ast.modules + [wrapper])


def make_variant(text: str, seed: int, index: int, path: str = "<seed>") -> str:
    """One deterministic rewrite of a source file; same (seed, index)
    always yields the same text."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))
    ast = parse(preprocess_text(text, path), path)
    for mod in ast.modules:
        rename_signals(mod, rng)
        swap_commutative(mod, rng)
        for _ in range(int(rng.integers(0, 3))):
            split_assign(mod, rng)
        reorder_items(mod, rng)
    if rng.random() < 0.4:
        ast = wrap_top(ast, f"w{index}")
    return emit(ast)


def synthesize_variants(text: str, count: int, seed: int, path: str = "<seed>") -> list[str]:
    return [make_variant(text, seed, i, path) for i in range(count)]
