"""Independent reference implementations used as test oracles.

Everything here is written with naive loops (or a different numpy
decomposition route) so a bug in the library's vectorized code cannot
hide inside its own oracle. Expected values in the test suite come from
these functions or from hand calculation, never from the code under test.
"""

from __future__ import annotations

import math
import re

import numpy as np

from ipsim.errors import ElaborationError


def normalized_propagation_reference(edges: list[tuple[int, int]], n: int) -> list[list[float]]:
    """D^-1/2 (A + I) D^-1/2 built with explicit loops.

    Directed edges are symmetrized and parallel duplicates collapse to
    weight one, matching the encoder's documented contract.
    """
    a_hat = [[0.0] * n for _ in range(n)]
    for i in range(n):
        a_hat[i][i] = 1.0
    for s, d in edges:
        a_hat[s][d] = 1.0
        a_hat[d][s] = 1.0
    deg = [sum(row) for row in a_hat]
    p = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            p[i][j] = a_hat[i][j] / math.sqrt(deg[i] * deg[j])
    return p


def matmul_reference(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k] == 0.0:
                continue
            for j in range(cols):
                out[i][j] += a[i][k] * b[k][j]
    return out


def gcn_layer_reference(edges: list[tuple[int, int]], x: list[list[float]],
                        w: list[list[float]]) -> list[list[float]]:
    """relu(P X W) with loop-built P and loop matmuls."""
    p = normalized_propagation_reference(edges, len(x))
    z = matmul_reference(matmul_reference(p, x), w)
    return [[max(v, 0.0) for v in row] for row in z]


def cosine_reference(a, b) -> float:
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    norm_a = math.sqrt(sum(float(x) ** 2 for x in a))
    norm_b = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (norm_a * norm_b)


def loss_reference(score: float, label: int, margin: float = 0.5) -> float:
    if label == 1:
        return 1.0 - score
    return max(0.0, score - margin)


def optimizer_reference(kind: str, lr: float, arrays: list[np.ndarray],
                        grads: list[list[np.ndarray]]) -> list[np.ndarray]:
    """The parameter arrays after one sgd, momentum (0.9) or Adam (0.9,
    0.999, 1e-8) step per list of gradient arrays, updated array by
    array with the same elementwise expressions as the library's one
    flat update, so the two agree bit for bit."""
    arrays = [a.copy() for a in arrays]
    first = [np.zeros_like(a) for a in arrays]
    second = [np.zeros_like(a) for a in arrays]
    for t, step in enumerate(grads, start=1):
        for w, g, m, v in zip(arrays, step, first, second):
            if kind == "sgd":
                w += -lr * g
            elif kind == "momentum":
                m *= 0.9
                m += g
                w -= lr * m
            else:
                m *= 0.9
                m += (1 - 0.9) * g
                v *= 0.999
                v += (1 - 0.999) * g * g
                m_hat = m / (1 - 0.9 ** t)
                v_hat = v / (1 - 0.999 ** t)
                w -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return arrays


def top_k_reference(alpha: list[float], ratio: float) -> list[int]:
    """Highest-score node ids, ties to the lower id, ascending output."""
    n = len(alpha)
    k = min(max(math.ceil(ratio * n), 1), n)
    ranked = sorted(range(n), key=lambda i: (-alpha[i], i))
    return sorted(ranked[:k])


def max_readout_reference(rows: list[list[float]]) -> list[float]:
    dims = len(rows[0])
    out = []
    for j in range(dims):
        best = rows[0][j]
        for row in rows[1:]:
            if row[j] > best:
                best = row[j]
        out.append(best)
    return out


def pca_reference(matrix: np.ndarray, k: int) -> np.ndarray:
    """Principal-axis projection via SVD of the centered data.

    The library diagonalizes the covariance matrix instead; agreeing
    through a different decomposition (up to per-axis sign) is the point.
    """
    centered = matrix - matrix.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:k]
    # Match the library's sign convention: largest-|coefficient| entry
    # of each axis is positive.
    for i in range(axes.shape[0]):
        pivot = np.argmax(np.abs(axes[i]))
        if axes[i][pivot] < 0:
            axes[i] = -axes[i]
    return centered @ axes.T


def has_path(edges: list[tuple[int, int]], src: int, dst: int) -> bool:
    """Directed reachability by plain BFS over an edge list."""
    adj: dict[int, list[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    seen = {src}
    frontier = [src]
    while frontier:
        new = []
        for node in frontier:
            for nxt in adj.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return src == dst


def trim_reference(graph):
    """Reachability cut and Signal splicing, one splice per full rescan.

    After each splice the successor map is rebuilt from every edge and
    the scan restarts at the lowest live id, so the splice order is the
    lowest spliceable id first by construction.
    """
    from ipsim.dfg import Graph, _canonicalize

    succ = graph.successors()
    keep: set[int] = set()
    stack = list(graph.roots)
    while stack:
        cur = stack.pop()
        if cur in keep:
            continue
        keep.add(cur)
        stack.extend(succ[cur])

    edges = {(s, d) for s, d in graph.edges if s in keep and d in keep}
    alive = set(keep)
    redirect: dict[int, int] = {}

    def resolve(node: int) -> int:
        while node in redirect:
            node = redirect[node]
        return node

    changed = True
    while changed:
        changed = False
        out: dict[int, set[int]] = {}
        for s, d in edges:
            out.setdefault(s, set()).add(d)
        for nid in sorted(alive):
            if graph.nodes[nid].kind != "Signal" or nid in graph.roots:
                continue
            succs = out.get(nid, set())
            if len(succs) != 1:
                continue
            target = next(iter(succs))
            if target == nid:
                continue
            redirect[nid] = target
            alive.discard(nid)
            edges = {(resolve(s), resolve(d)) for s, d in edges if s != nid}
            changed = True
            break

    order = sorted(alive)
    return _canonicalize(Graph(
        name=graph.name,
        nodes=[graph.nodes[i] for i in order],
        edges=sorted((order.index(s), order.index(d)) for s, d in edges),
        roots=[order.index(resolve(r)) for r in graph.roots],
    ))


def tokenize_reference(text: str, path: str = "<text>",
                       locations: list | None = None):
    """The lexer as a character loop: blanks and newlines one per
    iteration, each token by anchored match of the token pattern's
    token groups. Returns the kinds, texts and offsets of the tokens, and
    appends each token's location to ``locations`` when one is given."""
    from ipsim.errors import SourceLocation, VerilogSyntaxError
    from ipsim.frontend.lexer import KEYWORDS, UNSUPPORTED_KEYWORDS

    kinds, texts, offsets = [], [], []
    line, line_start = 1, 0
    pos, n = 0, len(text)
    while pos < n:
        c = text[pos]
        if c == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if c in " \t\r\f":
            pos += 1
            continue
        loc = SourceLocation(path, line, pos - line_start + 1)
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise VerilogSyntaxError(loc, ("a token",), text[pos])
        if locations is not None:
            locations.append(loc)
        offsets.append(pos)
        pos = m.end()
        word = m.group()
        if m.lastgroup == "ident":
            kinds.append("keyword" if word in KEYWORDS or word in UNSUPPORTED_KEYWORDS else "ident")
        elif m.lastgroup == "escaped":
            kinds.append("ident")
            word = word[1:]
        elif m.lastgroup in ("based", "number"):
            kinds.append("number")
        elif m.lastgroup in ("real", "system"):
            kinds.append(m.lastgroup)
        else:
            kinds.append("op")
        texts.append(word)
    kinds.append("eof")
    texts.append("")
    offsets.append(n)
    if locations is not None:
        locations.append(SourceLocation(path, line, max(1, n - line_start + 1)))
    return kinds, texts, offsets


# The token groups alone: no blank, newline or catch-all group.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<based>(\d[\d_]*)?'[sS]?[bodhBODH][0-9a-fA-FxXzZ_?]+)
  | (?P<real>\d[\d_]*\.\d+)
  | (?P<number>\d[\d_]*)
  | (?P<escaped>\\\S+)
  | (?P<system>\$[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><<<|>>>|===|!==|<<|>>|<=|>=|==|!=|&&|\|\||~&|~\||~\^|\^~
       |[-+*/%&|^~!<>=?:;,.()\[\]{}@\#])
    """,
    re.VERBOSE,
)


def strip_comments_reference(text: str) -> str:
    """Comment stripping as a character loop over the source."""
    from ipsim.errors import PreprocessError

    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : min(j + 1, n)])
            i = j + 1
        elif c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                raise PreprocessError("unterminated block comment")
            out.append("\n" * text.count("\n", i + 2, j))
            i = j + 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def const_binop_reference(op: str, a: int, b: int) -> int:
    """The elaborator's constant folder as an if-chain, one branch per
    operator, which the operator table's folds replaced."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    if op == "%":
        r = abs(a) % abs(b)
        return -r if a < 0 else r
    if op in ("<<", "<<<"):
        return a << b
    if op in (">>", ">>>"):
        return a >> b
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op in ("^",):
        return a ^ b
    if op in ("~^", "^~"):
        return ~(a ^ b)
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise ElaborationError(f"operator {op!r} not valid in constant expressions")
