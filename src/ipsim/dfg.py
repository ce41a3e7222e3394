"""Data-flow graph construction from elaborated modules.

Every output port becomes a root. Edges point from a consumer toward
the expression that produces its value, so leaves are input ports and
constants. Procedural blocks are walked symbolically: conditional
updates become Branch nodes and an unassigned path holds the signal's
own previous value, which is what turns registers into cycles.

Node kinds come from a fixed vocabulary, NODE_KINDS, so that feature
encodings stay aligned across designs and checkpoint versions; an
operator's kind comes from the operator table in ipsim.frontend.nodes.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from ipsim.errors import DfgError, MultipleContinuousDrivers, UndrivenSignal
from ipsim.frontend import nodes as n
from ipsim.frontend.flatten import FlatModule

NODE_KINDS = (
    "Input", "Output", "Inout", "Signal", "Constant",
    "Branch", "Concat", "PartSelect",
    "And", "Or", "Xor", "Xnor", "Nand", "Nor", "Not",
    "Plus", "Minus", "Times", "Divide", "Mod",
    "ShiftL", "ShiftR",
    "Eq", "Neq", "Lt", "Gt", "Le", "Ge",
    "LAnd", "LOr", "LNot",
    "RedAnd", "RedOr", "RedXor",
    "Cond", "Unknown",
)
KIND_INDEX = {k: i for i, k in enumerate(NODE_KINDS)}
_PORT_KINDS = {"input": "Input", "output": "Output", "inout": "Inout"}


class Node(NamedTuple):
    id: int
    kind: str
    label: str = ""


@dataclass
class Graph:
    """Rooted directed multigraph with parallel edges already collapsed."""

    name: str
    nodes: list[Node] = field(default_factory=list)
    edges: list[tuple[int, int]] = field(default_factory=list)
    roots: list[int] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def successors(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.nodes]
        for src, dst in self.edges:
            out[src].append(dst)
        return out

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts


class _Sym:
    """Operator node in a symbolic driver tree. Shared subtrees are
    deliberate (blocking reads snapshot the writer's tree) and are
    emitted once, by object identity. A leaf that reads a signal is an
    n.Ident: the source's own read, or a fresh one for a held value."""

    __slots__ = ("kind", "label", "children")

    def __init__(self, kind: str, label: str, children: tuple):
        self.kind = kind
        self.label = label
        self.children = children


def _const_label(num: n.Number) -> str:
    if num.value is not None:
        return str(num.value)
    return num.text.lower().replace("_", "")


def _width_of(flat: FlatModule, name: str) -> tuple[int, int]:
    width = flat.widths.get(name)
    if width is None:
        return (0, 0)
    msb, lsb = width
    return (msb, lsb) if msb >= lsb else (lsb, msb)


def _lhs_width(flat: FlatModule, lhs: n.Expr) -> int:
    if isinstance(lhs, n.Ident):
        hi, lo = _width_of(flat, lhs.name)
        return hi - lo + 1
    if isinstance(lhs, n.BitSelect):
        return 1
    if isinstance(lhs, n.PartSelect):
        hi = lhs.msb.value
        lo = lhs.lsb.value
        return abs(hi - lo) + 1
    if isinstance(lhs, n.Concat):
        return sum(_lhs_width(flat, p) for p in lhs.parts)
    raise DfgError(f"{lhs.loc}: assignment target must be a signal, select, or concatenation")


def _part(sym, hi: int, lo: int):
    return _Sym("PartSelect", f"[{hi}:{lo}]", (sym,))


class _DriverTable:
    """Per-signal drivers with multiple-driver detection.

    A signal is either fully driven once (continuous or procedural) or
    covered by non-overlapping continuous slices that combine under a
    Concat node ordered most significant first.
    """

    def __init__(self):
        self.full: dict[str, object] = {}
        self.slices: dict[str, list[tuple[int, int, object]]] = {}

    def add_full(self, name: str, sym):
        if name in self.full or name in self.slices:
            raise MultipleContinuousDrivers(name)
        self.full[name] = sym

    def add_slice(self, name: str, hi: int, lo: int, sym):
        if name in self.full:
            raise MultipleContinuousDrivers(name)
        for prev_hi, prev_lo, _ in self.slices.get(name, []):
            if hi >= prev_lo and prev_hi >= lo:
                raise MultipleContinuousDrivers(name)
        self.slices.setdefault(name, []).append((hi, lo, sym))

    def driver(self, name: str):
        if name in self.full:
            return self.full[name]
        if name in self.slices:
            parts = sorted(self.slices[name], key=lambda s: -s[0])
            if len(parts) == 1:
                return parts[0][2]
            return _Sym("Concat", "", tuple(sym for _, _, sym in parts))
        return None


class _Builder:
    def __init__(self, flat: FlatModule):
        self.flat = flat
        # A port's node kind; any other signal is a Signal.
        self.port_kinds = {name: _PORT_KINDS.get(direction, "Signal")
                           for name, direction in flat.port_directions().items()}
        self.table = _DriverTable()
        self.kinds: list[str] = []
        self.labels: list[str] = []
        self.edges: set[tuple[int, int]] = set()
        self.signal_nodes: dict[str, int] = {}
        self.const_nodes: dict[str, int] = {}
        # Keyed on the object, which the dict keeps alive: an id() key
        # could be reused by a later _Sym once a temporary is freed.
        self.sym_nodes: dict[_Sym, int] = {}
        self._collect()

    # --- driver collection --------------------------------------------

    def _collect(self):
        for assign in self.flat.assigns:
            self._continuous(assign.lhs, self._conv(assign.rhs, {}))
        for blk in self.flat.always_blocks:
            env: dict[str, object] = {}
            self._walk(blk.body, env)
            for name, sym in env.items():
                self.table.add_full(name, sym)

    def _continuous(self, lhs: n.Expr, sym):
        for name, hi, lo, driver in self._targets(lhs, sym, "continuous assignment target"):
            if hi is None:
                self.table.add_full(name, driver)
            else:
                self.table.add_slice(name, hi, lo, driver)

    def _targets(self, lhs: n.Expr, sym, what: str = "assignment target"):
        """Yield (signal, hi, lo, driver) for each signal the target
        writes, hi and lo None for a whole signal. A concatenation hands
        each part its slice of the value, most significant part first."""
        if isinstance(lhs, n.Ident):
            yield lhs.name, None, None, sym
        elif isinstance(lhs, n.BitSelect):
            name, idx = self._select_base(lhs)
            yield name, idx, idx, sym
        elif isinstance(lhs, n.PartSelect):
            yield (*self._part_base(lhs), sym)
        elif isinstance(lhs, n.Concat):
            widths = [_lhs_width(self.flat, part) for part in lhs.parts]
            hi = sum(widths) - 1
            for part, w in zip(lhs.parts, widths):
                yield from self._targets(part, _part(sym, hi, hi - w + 1))
                hi -= w
        else:
            raise DfgError(f"{lhs.loc}: unsupported {what}")

    def _select_base(self, sel: n.BitSelect) -> tuple[str, int]:
        if not isinstance(sel.base, n.Ident):
            raise DfgError(f"{sel.loc}: select target must be a plain signal")
        if not isinstance(sel.index, n.Number) or sel.index.value is None:
            raise DfgError(f"{sel.loc}: bit-select assignment index must be constant")
        return sel.base.name, sel.index.value

    def _part_base(self, sel: n.PartSelect) -> tuple[str, int, int]:
        if not isinstance(sel.base, n.Ident):
            raise DfgError(f"{sel.loc}: select target must be a plain signal")
        hi, lo = sel.msb.value, sel.lsb.value
        return sel.base.name, max(hi, lo), min(hi, lo)

    # --- symbolic walk of procedural code -------------------------------

    def _walk(self, stmts: list, env: dict):
        for stmt in stmts:
            if isinstance(stmt, n.AssignStmt):
                self._store(stmt.lhs, self._conv(stmt.rhs, env), env)
            elif isinstance(stmt, n.IfStmt):
                cond = self._conv(stmt.cond, env)
                env_t, env_e = dict(env), dict(env)
                self._walk(stmt.then_body, env_t)
                self._walk(stmt.else_body, env_e)
                self._merge_arms(env, [(cond, env_t)], env_e)
            elif isinstance(stmt, n.CaseStmt):
                self._walk_case(stmt, env)
            else:
                raise DfgError(f"unexpected statement {type(stmt).__name__}")

    def _walk_case(self, stmt: n.CaseStmt, env: dict):
        subject = self._conv(stmt.subject, env)
        arms = []
        default = env  # without a default arm, an unmatched subject holds
        for item in stmt.items:
            arm_env = dict(env)
            self._walk(item.body, arm_env)
            if item.labels is None:
                default = arm_env
            else:
                cond = None
                for label in item.labels:
                    test = _Sym("Eq", "", (subject, self._conv(label, env)))
                    cond = test if cond is None else _Sym("LOr", "", (cond, test))
                arms.append((cond, arm_env))
        self._merge_arms(env, arms, default)

    def _merge_arms(self, env: dict, arms: list, default: dict):
        """Fold the (cond, env) arms over the default env into env, the
        first arm outermost. A path that leaves a signal alone holds its
        value from before the branch."""
        changed = set()
        for _, arm_env in [*arms, (None, default)]:
            changed |= {k for k in arm_env if arm_env[k] is not env.get(k)}
        for name in changed:
            hold = env.get(name, n.Ident(None, name))
            acc = default.get(name, hold)
            for cond, arm_env in reversed(arms):
                aval = arm_env.get(name, hold)
                acc = aval if aval is acc else _Sym("Branch", "", (cond, aval, acc))
            env[name] = acc

    def _store(self, lhs: n.Expr, sym, env: dict):
        for name, hi, lo, driver in self._targets(lhs, sym):
            if hi is not None:
                top, bot = _width_of(self.flat, name)
                old = env.get(name, n.Ident(None, name))
                parts = [driver]
                if hi < top:
                    parts.insert(0, _part(old, top, hi + 1))
                if lo > bot:
                    parts.append(_part(old, lo - 1, bot))
                driver = driver if len(parts) == 1 else _Sym("Concat", "", tuple(parts))
            env[name] = driver

    # --- expression conversion -------------------------------------------

    def _conv(self, expr: n.Expr, env: dict):
        if isinstance(expr, n.Ident):
            return env.get(expr.name) or expr
        if isinstance(expr, n.Number):
            return _Sym("Constant", _const_label(expr), ())
        if isinstance(expr, n.Unary):
            op = n.UNARY[expr.op]
            sym = _Sym(op.kind, "", (self._conv(expr.operand, env),))
            return _Sym("Not", "", (sym,)) if op.inverted else sym
        if isinstance(expr, n.Binary):
            return _Sym(n.BINARY[expr.op].kind, "",
                        (self._conv(expr.left, env), self._conv(expr.right, env)))
        if isinstance(expr, n.Ternary):
            return _Sym("Cond", "", (self._conv(expr.cond, env),
                                     self._conv(expr.true, env),
                                     self._conv(expr.false, env)))
        if isinstance(expr, n.Concat):
            return _Sym("Concat", "", tuple(self._conv(p, env) for p in expr.parts))
        if isinstance(expr, n.Repeat):  # labelled with its count, folded by flatten
            return _Sym("Concat", f"{{{expr.count.value}}}",
                        tuple(self._conv(p, env) for p in expr.parts))
        if isinstance(expr, n.BitSelect):
            base = self._conv(expr.base, env)
            if isinstance(expr.index, n.Number) and expr.index.value is not None:
                return _Sym("PartSelect", f"[{expr.index.value}]", (base,))
            return _Sym("PartSelect", "[]", (base, self._conv(expr.index, env)))
        if isinstance(expr, n.PartSelect):
            hi, lo = expr.msb.value, expr.lsb.value
            return _Sym("PartSelect", f"[{hi}:{lo}]", (self._conv(expr.base, env),))
        raise DfgError(f"unexpected expression {type(expr).__name__}")

    # --- node emission ----------------------------------------------------

    def _new_node(self, kind: str, label: str = "") -> int:
        self.kinds.append(kind)
        self.labels.append(label)
        return len(self.kinds) - 1

    def _emit(self, sym) -> int:
        if isinstance(sym, n.Ident):
            return self._signal_node(sym.name)
        cached = self.sym_nodes.get(sym)
        if cached is not None:
            return cached
        if sym.kind == "Constant":
            cached = self.const_nodes.get(sym.label)
            if cached is not None:
                self.sym_nodes[sym] = cached
                return cached
            nid = self._new_node("Constant", sym.label)
            self.const_nodes[sym.label] = nid
            self.sym_nodes[sym] = nid
            return nid
        nid = self._new_node(sym.kind, sym.label)
        self.sym_nodes[sym] = nid
        for child in sym.children:
            self.edges.add((nid, self._emit(child)))
        return nid

    def _signal_node(self, name: str) -> int:
        cached = self.signal_nodes.get(name)
        if cached is not None:
            return cached
        kind = self.port_kinds.get(name, "Signal")
        nid = self._new_node(kind, name)
        self.signal_nodes[name] = nid
        driver = self.table.driver(name)
        if driver is not None:
            self.edges.add((nid, self._emit(driver)))
        elif kind in ("Output", "Signal"):
            raise UndrivenSignal(name)
        return nid

    def build(self, root_signals: list[str], name: str) -> Graph:
        """The raw graph: nodes in emission order, edges unsorted."""
        roots = [self._signal_node(s) for s in root_signals]
        nodes = [Node(i, k, l) for i, (k, l) in enumerate(zip(self.kinds, self.labels))]
        return Graph(name=name, nodes=nodes, edges=list(self.edges), roots=roots)


def build_dfg(flat: FlatModule, trimmed: bool = True) -> Graph:
    """Build the design's data-flow graph rooted at its output ports."""
    outputs = [p.name for p in flat.ports if p.direction == "output"]
    if not outputs:
        raise DfgError(f"module {flat.name!r} has no output ports")
    graph = _Builder(flat).build(outputs, flat.name)
    return trim(graph) if trimmed else _canonicalize(graph)


def trim(graph: Graph) -> Graph:
    """Drop nodes unreachable from the roots and splice out single-driver
    Signal nodes so pure renames collapse to identical graphs. Idempotent.

    Splices run lowest spliceable id first; in a cycle of aliases that
    order decides which alias survives. Only the candidates, the kept
    Signals that are not roots, can be spliced, so only their successor
    sets change as splices run, and only their predecessors among them go
    back on the heap. Every other node's successors are resolved through
    the splices at the end. The kept nodes are renumbered as
    _canonicalize numbers a graph, in the same pass."""
    succ_lists = graph.successors()
    keep: set[int] = set()
    stack = list(graph.roots)
    while stack:
        cur = stack.pop()
        if cur in keep:
            continue
        keep.add(cur)
        stack.extend(succ_lists[cur])

    nodes = graph.nodes
    succ = {nid: set(succ_lists[nid]) for nid in keep if nodes[nid].kind == "Signal"}
    for root in graph.roots:
        succ.pop(root, None)
    pred: dict[int, set[int]] = {nid: set() for nid in succ}
    for s, out in succ.items():
        for d in out:
            if d in pred:
                pred[d].add(s)

    def spliceable(nid: int) -> bool:
        # A self alias stays: there is nothing to splice it to.
        out = succ.get(nid)
        return out is not None and len(out) == 1 and nid not in out

    alias: dict[int, int] = {}
    heap = sorted(filter(spliceable, succ))
    while heap:
        nid = heapq.heappop(heap)
        if not spliceable(nid):
            continue
        (target,) = succ.pop(nid)
        alias[nid] = target
        into = pred.get(target)
        if into is not None:
            into.discard(nid)
        for p in pred.pop(nid):
            out = succ[p]
            out.discard(nid)
            out.add(target)
            if into is not None:
                into.add(p)
            if spliceable(p):
                heapq.heappush(heap, p)

    # A target is spliced, if at all, after its alias: resolve in reverse.
    for nid, target in reversed(alias.items()):
        alias[nid] = alias.get(target, target)
    kept = keep.difference(alias)
    order = sorted(kept, key=lambda i: (KIND_INDEX[nodes[i].kind], nodes[i].label, i))
    size = len(nodes)
    edges = {s * size + alias.get(d, d) for s in kept.difference(succ) for d in succ_lists[s]}
    edges.update(s * size + d for s, out in succ.items() for d in out)
    return _renumber(graph, order, edges)


def _canonicalize(graph: Graph) -> Graph:
    """Renumber nodes by (kind, label, prior position) so equal structure
    yields equal serialized form."""
    nodes = graph.nodes
    order = sorted(range(len(nodes)), key=lambda i: (KIND_INDEX[nodes[i].kind], nodes[i].label, i))
    size = len(nodes)
    return _renumber(graph, order, {s * size + d for s, d in graph.edges})


def _renumber(graph: Graph, order: list[int], edges) -> Graph:
    """The graph of graph's nodes order[0], order[1], ..., numbered from 0,
    with the given edges among them, sorted, and graph's roots. An edge
    is the int src * size + dst, size the number of graph's nodes, which
    orders as the pair does and is not an object the collector tracks."""
    size = graph.num_nodes
    remap = [0] * size
    for new, old in enumerate(order):
        remap[old] = new
    nodes = graph.nodes
    keys = sorted([remap[key // size] * size + remap[key % size] for key in edges])
    return Graph(
        name=graph.name,
        nodes=[Node(new, nodes[old].kind, nodes[old].label) for new, old in enumerate(order)],
        edges=list(map(divmod, keys, repeat(size))),
        roots=[remap[r] for r in graph.roots],
    )


# --- serialization ----------------------------------------------------------


def serialize(graph: Graph) -> str:
    """The graph as one line of JSON. The format is written, never read
    back: no command reads a graph document."""
    return json.dumps({
        "format": "ipsim-dfg",
        "version": 1,
        "name": graph.name,
        "nodes": [{"id": nd.id, "kind": nd.kind, "label": nd.label} for nd in graph.nodes],
        "edges": [[s, d] for s, d in graph.edges],
        "roots": list(graph.roots),
    }, separators=(",", ":"))


# --- isomorphism ------------------------------------------------------------

# Colourings the individualization search may refine before giving up.
ISOMORPHISM_BUDGET = 10_000


def _refine(colors: list[int], succ: list[list[int]], pred: list[list[int]]) -> list[int]:
    """Split colour classes by their successors' and predecessors' colour
    multisets until none splits. Colours come back as ints 0..k-1."""
    count = len(set(colors))
    while True:
        ids: dict[tuple, int] = {}
        colors = [ids.setdefault((c, tuple(sorted(colors[j] for j in out)),
                                  tuple(sorted(colors[j] for j in into))), len(ids))
                  for c, out, into in zip(colors, succ, pred)]
        if len(ids) == count:
            return colors
        count = len(ids)


def is_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism that keeps kinds, root flags and every label but a
    Signal's (a renamable wire name).

    Individualization-refinement on the disjoint union of the graphs:
    colour refinement, then, while a class holds more than one node a
    side, the first ``a`` node of the smallest such class shares a fresh
    colour with each ``b`` node of its class in turn, taken from an
    explicit stack. A stable colouring that pairs each ``a`` node with
    one ``b`` node is an isomorphism."""
    offset = a.num_nodes
    succ: list[list[int]] = [[] for _ in range(offset + b.num_nodes)]
    pred: list[list[int]] = [[] for _ in succ]
    ids: dict[tuple, int] = {}
    colors: list[int] = []
    for base, graph in ((0, a), (offset, b)):
        for s, d in set(graph.edges):
            succ[base + s].append(base + d)
            pred[base + d].append(base + s)
        roots = set(graph.roots)
        for i, nd in enumerate(graph.nodes):
            key = (nd.kind, "" if nd.kind == "Signal" else nd.label, i in roots)
            colors.append(ids.setdefault(key, len(ids)))

    stack: list[tuple[list[int], int, int]] = [(colors, -1, -1)]
    steps = 0
    while stack:
        steps += 1
        if steps > ISOMORPHISM_BUDGET:
            raise DfgError("isomorphism search budget exceeded")
        colors, u, v = stack.pop()
        if u >= 0:
            colors = colors[:]
            colors[u] = colors[v] = max(colors) + 1
        colors = _refine(colors, succ, pred)
        classes: dict[int, tuple[list[int], list[int]]] = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, ([], []))[i >= offset].append(i)
        if any(len(left) != len(right) for left, right in classes.values()):
            continue
        unresolved = [cls for cls in classes.values() if len(cls[0]) > 1]
        if not unresolved:
            return True
        left, right = min(unresolved, key=lambda cls: len(cls[0]))
        stack.extend((colors, left[0], w) for w in reversed(right))
    return False
