import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

CORPUS_ROOT = Path(__file__).parent.parent / "corpus"

FULL_ADDER = """
module fulladd(Num1, Num2, Cin, Sum, Cout);
  input Num1;
  input Num2;
  input Cin;
  output Sum;
  output Cout;

  assign Sum = Num1 ^ Num2 ^ Cin;
  assign Cout = (Num1 & Num2) | (Num2 & Cin) | (Num1 & Cin);
endmodule
"""


def flat_xor(terms: int) -> str:
    """One continuous assignment XORing ``terms`` input bits: a single
    expression nested ``terms - 1`` operators deep."""
    chain = " ^ ".join(f"a[{i}]" for i in range(terms))
    return f"module flatxor(input [{terms - 1}:0] a, output y);\n  assign y = {chain};\nendmodule\n"


def doubling(levels: int) -> str:
    """Modules m0 to m<levels - 1>, each above m0 instantiating the one
    below it twice: 2 ** levels - 1 instances flattened, in source that
    grows by one module a level."""
    mods = ["module m0(input a, output y);\n  assign y = ~a;\nendmodule\n"]
    for i in range(1, levels):
        mods.append(f"module m{i}(input a, output y);\n  wire t0, t1;\n"
                    f"  m{i - 1} u0 (.a(a), .y(t0));\n  m{i - 1} u1 (.a(a), .y(t1));\n"
                    f"  assign y = t0 ^ t1;\nendmodule\n")
    return "".join(mods)


def densify(p) -> np.ndarray:
    """A propagation matrix, dense or CSR, as a dense array."""
    if isinstance(p, np.ndarray):
        return p
    out = np.zeros(p.shape)
    out[np.repeat(np.arange(p.shape[0]), np.diff(p.indptr)), p.indices] = p.data
    return out


@pytest.fixture
def full_adder_graph():
    from ipsim.pipeline import compile_text
    return compile_text(FULL_ADDER)


@pytest.fixture
def corpus_root():
    return CORPUS_ROOT


def random_graph_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A connected-ish random digraph without self loops."""
    edges = set()
    for dst in range(1, n):
        edges.add((int(rng.integers(0, dst)), dst))
    extra = int(rng.integers(0, max(n, 1)))
    for _ in range(extra):
        s, d = int(rng.integers(0, n)), int(rng.integers(0, n))
        if s != d:
            edges.add((s, d))
    return sorted(edges)


def make_graph(name: str, nodes: list[tuple[str, str]], edges: list[tuple[int, int]], roots: list[int]):
    """A Graph of (kind, label) nodes, numbered in list order, and
    (src, dst) edges."""
    from ipsim.dfg import KIND_INDEX, Graph
    return Graph(name, [KIND_INDEX[kind] for kind, _ in nodes], [label for _, label in nodes],
                 [s for s, _ in edges], [d for _, d in edges], list(roots))


def graph_from_edges(name: str, edges: list[tuple[int, int]], n: int,
                     kinds: list[str] | None = None):
    """Assemble a Graph object directly, bypassing the Verilog frontend."""
    from ipsim.dfg import NODE_KINDS
    if kinds is None:
        kinds = [NODE_KINDS[i % len(NODE_KINDS)] for i in range(n)]
    roots = sorted({d for _, d in edges} - {s for s, _ in edges}) or ([0] if n else [])
    return make_graph(name, [(kinds[i], f"n{i}") for i in range(n)], edges, roots)
