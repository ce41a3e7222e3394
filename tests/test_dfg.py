import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_ROOT, graph_from_edges, make_graph, random_graph_edges
import ipsim
from ipsim import dfg
from ipsim.dfg import (
    KIND_INDEX,
    NODE_KINDS,
    Graph,
    Node,
    is_isomorphic,
    serialize,
    trim,
)
from ipsim.dfg import build_dfg
from ipsim.errors import DfgError, MultipleContinuousDrivers, PipelineError, UndrivenSignal
from ipsim.frontend import flatten_hierarchy, parse
from ipsim.pipeline import compile_design, compile_text
from ipsim.variants import make_variant
from reference import has_path, trim_reference


def build_raw(src: str):
    """Flatten and build without the pipeline's error wrapping."""
    return build_dfg(flatten_hierarchy(parse(src, "<test>")))


def test_vocabulary_is_fixed():
    assert len(NODE_KINDS) == 36
    assert len(set(NODE_KINDS)) == 36
    assert NODE_KINDS[0] == "Input"
    assert KIND_INDEX["Unknown"] == 35


def test_full_adder_output_depends_on_all_inputs(full_adder_graph):
    g = full_adder_graph
    ids = {node.label: node.id for node in g.nodes if node.label}
    for out in ("Sum", "Cout"):
        for inp in ("Num1", "Num2", "Cin"):
            assert has_path(g.edges, ids[out], ids[inp]), f"{out} must reach {inp}"


def test_full_adder_roots_are_outputs(full_adder_graph):
    g = full_adder_graph
    root_labels = {g.nodes[r].label for r in g.roots}
    assert root_labels == {"Sum", "Cout"}
    assert all(g.nodes[r].kind == "Output" for r in g.roots)


def test_canonical_order_groups_kinds(full_adder_graph):
    ranks = [KIND_INDEX[node.kind] for node in full_adder_graph.nodes]
    assert ranks == sorted(ranks)
    inputs = [n.label for n in full_adder_graph.nodes if n.kind == "Input"]
    assert inputs == sorted(inputs)


def test_register_forms_cycle():
    g = compile_text("""
module c(input clk, input en, output reg [3:0] q);
  always @(posedge clk) if (en) q <= q + 4'd1;
endmodule
""")
    q = next(node for node in g.nodes if node.label == "q" and node.kind == "Output")
    assert any(has_path(g.edges, succ, q.id) for s, succ in g.edges if s == q.id)


def test_case_lowers_to_branches():
    g = compile_text("""
module m(input [1:0] s, input [3:0] d, output reg y);
  always @(*) begin
    case (s)
      2'd0: y = d[0];
      2'd1: y = d[1];
      default: y = d[3];
    endcase
  end
endmodule
""")
    counts = g.kind_counts()
    assert counts.get("Branch", 0) >= 2
    assert counts.get("Eq", 0) >= 2


def test_multiple_drivers_rejected():
    with pytest.raises(MultipleContinuousDrivers):
        build_raw("""
module m(input a, input b, output y);
  assign y = a;
  assign y = b;
endmodule
""")


def test_slice_drivers_combine():
    g = compile_text("""
module m(input [1:0] a, output [1:0] y);
  assign y[0] = a[1];
  assign y[1] = a[0];
endmodule
""")
    assert g.kind_counts().get("Concat", 0) >= 1


def test_overlapping_slice_drivers_rejected():
    with pytest.raises(MultipleContinuousDrivers):
        build_raw("""
module m(input [3:0] a, output [3:0] y);
  assign y[2:0] = a[2:0];
  assign y[3:1] = a[3:1];
endmodule
""")


def test_undriven_output_rejected():
    with pytest.raises(UndrivenSignal):
        build_raw("module m(input a, output y); endmodule")


@pytest.mark.parametrize("decl, body, missing", [
    ("output [1:0] y", "assign y[0] = a;", "'y' has no driver for y[1]"),
    ("output [1:0] y", "assign y[1] = a;", "'y' has no driver for y[0]"),
    ("output [3:0] y", "assign y[1:0] = {a, a};", "'y' has no driver for y[3:2]"),
    ("output [0:3] y", "assign y[3:2] = {a, a};", "'y' has no driver for y[1:0]"),
    ("output [5:1] y", "assign y[4] = a; assign y[2] = a;", "'y' has no driver for y[5], y[3], y[1]"),
    ("output y", "wire [1:0] w; assign w[1] = a; assign y = w[1];", "'w' has no driver for w[0]"),
])
def test_signal_driven_in_part_is_undriven(decl, body, missing):
    with pytest.raises(UndrivenSignal, match=re.escape(f"signal {missing}")):
        build_raw(f"module m(input a, {decl}); {body} endmodule")


@pytest.mark.parametrize("body, message", [
    ("assign P = a; assign y = a;", "unsupported continuous assignment target"),
    ("always @(*) begin P = a; y = a; end", "unsupported assignment target"),
])
def test_parameter_is_not_an_assignment_target(body, message):
    with pytest.raises(DfgError, match=f": {message}$"):
        build_raw(f"module m(input a, output reg y); parameter P = 1; {body} endmodule")


# SHA-256 over the serialized graphs of every corpus design, trimmed and
# untrimmed, in path order. Node ids are part of those bytes, so a change
# to the builder, trim or canonical order that renumbers any node shows
# here; update the digest only for a change meant to alter graphs.
CORPUS_GRAPHS_SHA256 = "12000fc9a8fdddb3d70f7b9bfe9de549469dc14381453b81839d970de67f1c9c"


def test_corpus_graph_bytes_are_pinned():
    digest = hashlib.sha256()
    paths = sorted(CORPUS_ROOT.rglob("*.v"))
    for path in paths:
        for trimmed in (True, False):
            digest.update(serialize(compile_design([path], trimmed=trimmed)).encode() + b"\n")
    assert len(paths) == 92
    assert digest.hexdigest() == CORPUS_GRAPHS_SHA256


# The same over perfbench's netlist_ladder rungs, seeds 0-2, all but the
# chain, which does not compile yet.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LADDER_GRAPHS_SHA256 = "78a7f00d3dc7c8a6a888e188ede2844f5399a8c6e26d519309eb29acc51f0f4b"


def test_ladder_graph_bytes_are_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder, inputs = importlib.import_module("ladder"), importlib.import_module("inputs")
    digest = hashlib.sha256()
    rungs = [(shape, size) for shape, size in inputs.RUNGS if shape != "chain"]
    for seed in range(3):
        for shape, size in rungs:
            text = ladder.SHAPES[shape](size, seed).text
            for trimmed in (True, False):
                digest.update(serialize(compile_text(text, trimmed=trimmed)).encode() + b"\n")
    assert len(rungs) == 7
    assert digest.hexdigest() == LADDER_GRAPHS_SHA256


def test_trim_is_idempotent_on_designs():
    g = compile_text("""
module m(input [3:0] a, input [3:0] b, output [3:0] y);
  wire [3:0] t1;
  wire [3:0] t2;
  wire [3:0] unused;
  assign t1 = a & b;
  assign t2 = t1 | a;
  assign unused = a ^ b;
  assign y = t2;
endmodule
""")
    once = trim(g)
    twice = trim(once)
    assert once.nodes == twice.nodes and once.edges == twice.edges


def test_trim_drops_dead_logic():
    live = compile_text("""
module m(input a, input b, output y);
  wire dead;
  assign dead = a & b;
  assign y = a ^ b;
endmodule
""")
    assert all(node.label != "dead" for node in live.nodes)
    assert live.kind_counts().get("And", 0) == 0


def test_trim_contracts_pass_through_signals():
    g = compile_text("""
module m(input a, output y);
  wire mid;
  assign mid = ~a;
  assign y = mid;
endmodule
""")
    assert all(node.kind != "Signal" for node in g.nodes)


def random_raw_graph(rng: random.Random, size: int) -> Graph:
    """An untrimmed graph, mostly Signal aliases, with Signal chains,
    cycles, self-loops, duplicate edges and several roots."""
    kinds = [rng.choice(("Signal", "Signal", "Signal", "Input", "Output", "And", "Not"))
             for _ in range(size)]
    edges = [(rng.randrange(size), rng.randrange(size)) for _ in range(rng.randint(0, 2 * size))]
    for _ in range(rng.randint(0, 3)):
        chain = rng.sample(range(size), rng.randint(1, min(size, 6)))
        for nid in chain:
            kinds[nid] = "Signal"
        edges += zip(chain, chain[1:])
        if rng.random() < 0.5:
            edges.append((chain[-1], chain[0]))  # a cycle, or a self-loop
    edges += rng.choices(edges, k=min(len(edges), 3))
    roots = rng.choices(range(size), k=rng.randint(1, 3))
    return make_graph("raw", [(kind, f"n{i}") for i, kind in enumerate(kinds)], edges, roots)


def test_trim_matches_rescanning_reference():
    for seed in range(600):
        rng = random.Random(seed)
        g = random_raw_graph(rng, rng.randint(1, 24))
        assert serialize(trim(g)) == serialize(trim_reference(g)), f"seed {seed}"


def gate_netlist(inputs: list[str], outputs: list[str], gates: list[tuple]):
    """Verilog text and the untrimmed graph the builder makes of scalar
    wires driven by two-input gates: each wire is a Signal node whose one
    edge leads to its gate. Gates are (kind, output wire, input wires)."""
    wires = sorted({out for _, out, _ in gates} - set(outputs))
    text = "\n".join([f"module net({', '.join(inputs + outputs)});",
                      *(f"  input {p};" for p in inputs),
                      *(f"  output {p};" for p in outputs),
                      *(f"  wire {w};" for w in wires),
                      *(f"  {kind.lower()} ({out}, {', '.join(ins)});" for kind, out, ins in gates),
                      "endmodule"])
    kinds = ([("Input", p) for p in inputs] + [("Output", p) for p in outputs]
             + [("Signal", w) for w in wires] + [(kind, "") for kind, _, _ in gates])
    ids = {label: i for i, (_, label) in enumerate(kinds) if label}
    edges = []
    for gate_id, (_, out, ins) in enumerate(gates, start=len(ids)):
        edges.append((ids[out], gate_id))
        edges += [(gate_id, ids[w]) for w in ins]
    return text, make_graph("net", kinds, edges, [ids[p] for p in outputs])


def parity_tree(n: int, rng: random.Random):
    level = [f"x{i}" for i in range(n)]
    inputs = level[:]
    rng.shuffle(level)
    gates = []
    while len(level) > 1:
        nxt = [f"w{len(gates) + i}" for i in range(len(level) // 2)] + level[len(level) // 2 * 2:]
        gates += [("Xor", nxt[i], (level[2 * i], level[2 * i + 1])) for i in range(len(level) // 2)]
        level = nxt
    gates = [(kind, "y" if out == level[0] else out, ins) for kind, out, ins in gates]
    rng.shuffle(gates)
    return gate_netlist(inputs, ["y"], gates)


def ripple_adder(n: int, rng: random.Random):
    gates = []
    carry = "cin"
    for i in range(n):
        cout = "cout" if i == n - 1 else f"c{i}"
        gates += [("Xor", f"p{i}", (f"a{i}", f"b{i}")), ("Xor", f"s{i}", (f"p{i}", carry)),
                  ("And", f"g{i}", (f"a{i}", f"b{i}")), ("And", f"t{i}", (f"p{i}", carry)),
                  ("Or", cout, (f"g{i}", f"t{i}"))]
        carry = cout
    rng.shuffle(gates)
    inputs = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)] + ["cin"]
    return gate_netlist(inputs, [f"s{i}" for i in range(n)] + ["cout"], gates)


def test_gate_netlist_graph_is_what_the_builder_makes():
    for text, raw in (parity_tree(9, random.Random(1)), ripple_adder(3, random.Random(2))):
        assert is_isomorphic(trim(raw), compile_text(text))
        assert serialize(trim(raw)) == serialize(trim_reference(raw))


def test_trim_of_large_netlists_has_closed_form_counts():
    _, parity = parity_tree(1024, random.Random(3))
    assert trim(parity).kind_counts() == {"Input": 1024, "Output": 1, "Xor": 1023}
    _, adder = ripple_adder(256, random.Random(4))
    assert trim(adder).kind_counts() == {"Input": 513, "Output": 257,
                                         "Xor": 512, "And": 512, "Or": 256}


def vector_adder(n: int) -> str:
    """Ripple-carry adder whose bits are assigned one at a time into
    vector wires, so each wire is driven by a Concat of bit slices."""
    lines = [f"module vadd(input [{n - 1}:0] a, input [{n - 1}:0] b, input cin,"
             f" output [{n - 1}:0] s, output cout);",
             f"  wire [{n - 1}:0] p, g, t;", f"  wire [{n}:0] c;", "  assign c[0] = cin;"]
    for i in range(n):
        lines += [f"  assign p[{i}] = a[{i}] ^ b[{i}];", f"  assign g[{i}] = a[{i}] & b[{i}];",
                  f"  assign t[{i}] = p[{i}] & c[{i}];", f"  assign s[{i}] = p[{i}] ^ c[{i}];",
                  f"  assign c[{i + 1}] = g[{i}] | t[{i}];"]
    lines += [f"  assign cout = c[{n}];", "endmodule"]
    return "\n".join(lines)


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_vector_wire_adder_keeps_its_logic_under_any_hash_seed(hash_seed):
    script = ("import json, sys\n"
              "from ipsim.pipeline import compile_text\n"
              "for text in json.load(sys.stdin):\n"
              "    g = compile_text(text)\n"
              "    print(json.dumps([g.num_nodes, g.kind_counts()]))\n")
    src_root = str(Path(ipsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script],
                          input=json.dumps([vector_adder(4), vector_adder(8)]),
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    counts = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(size, kinds["And"], kinds["Or"]) for size, kinds in counts] == [(71, 8, 4), (131, 16, 8)]


def test_shared_subexpression_emitted_once():
    g = compile_text("""
module m(input a, input b, output x, output y);
  wire t;
  assign t = a ^ b;
  assign x = t & a;
  assign y = t | b;
endmodule
""")
    assert g.kind_counts().get("Xor", 0) == 1


def test_serialize_round_trip(full_adder_graph):
    g = full_adder_graph
    doc = json.loads(serialize(g))
    assert (doc["format"], doc["version"], doc["name"]) == ("ipsim-dfg", 1, g.name)
    assert [Node(nd["id"], nd["kind"], nd["label"]) for nd in doc["nodes"]] == g.nodes
    assert [tuple(e) for e in doc["edges"]] == g.edges
    assert doc["roots"] == g.roots


def test_self_isomorphism(full_adder_graph):
    assert is_isomorphic(full_adder_graph, full_adder_graph)


def test_rename_is_isomorphic():
    a = compile_text("module m(input a, input b, output y); assign y = a & b; endmodule")
    b = compile_text("module m(input a, input b, output y);"
                     " wire mid; assign mid = a & b; assign y = mid; endmodule")
    assert is_isomorphic(a, b)


def test_different_structure_not_isomorphic():
    a = compile_text("module m(input a, input b, output y); assign y = a & b; endmodule")
    b = compile_text("module m(input a, input b, output y); assign y = a | b; endmodule")
    assert not is_isomorphic(a, b)


def test_input_labels_anchor_isomorphism():
    a = compile_text("module m(input a, input b, output y); assign y = a - b; endmodule")
    b = compile_text("module m(input b, input a, output y); assign y = a - b; endmodule")
    # Same node/edge multiset, but inputs are named anchors: a-b vs a-b
    # with swapped declarations still matches (labels a/b both exist).
    assert is_isomorphic(a, b)


def test_select_labels_anchor_isomorphism():
    a = compile_text("module m(input [1:0] a, output y); assign y = a[0] & ~a[1]; endmodule")
    b = compile_text("module m(input [1:0] a, output y); assign y = a[1] & ~a[0]; endmodule")
    assert not is_isomorphic(a, b)


def test_replication_count_anchors_isomorphism():
    text = "module m(input [3:0] a, output [11:0] y); assign y = {%s{a}}; endmodule"
    two, three, folded = (compile_text(text % count) for count in ("2", "3", "1 + 2"))
    assert serialize(two) != serialize(three)
    assert not is_isomorphic(two, three)
    assert serialize(folded) == serialize(three)
    assert [node.label for node in three.nodes if node.kind == "Concat"] == ["{3}"]


def test_constant_bit_select_index_folds_like_a_part_select_bound():
    text = ("module m #(parameter N = 4) (input [3:0] a, input [1:0] s, output [1:0] y);"
            " assign %s; endmodule")
    folded, literal = (compile_text(text % f"y = a[{index}]") for index in ("N-1", "3"))
    assert serialize(folded) == serialize(literal)
    folded, literal = (compile_text(text % f"y[{index}] = a[3]; assign y[1] = a[2]") for index in ("1-1", "0"))
    assert serialize(folded) == serialize(literal)
    dynamic = compile_text(text % "y = a[s]")
    assert [node.label for node in dynamic.nodes if node.kind == "PartSelect"] == ["[]"]
    with pytest.raises(PipelineError, match="negative shift count in constant expression"):
        compile_text(text % "y = a[1 << -1]")


RANGE_TEXT = "module m(input [3:0] a, output reg [1:0] y); %s endmodule"


@pytest.mark.parametrize("item, target", [
    ("assign y[5] = a[0];", "y[5]"),
    ("assign y[3:2] = a[1:0];", "y[3:2]"),
    ("always @* begin y = a[1:0]; y[4] = a[0]; end", "y[4]"),
])
def test_assignment_target_outside_its_range_is_an_error(item, target):
    with pytest.raises(PipelineError) as info:
        compile_text(RANGE_TEXT % item)
    assert info.value.stage == "dfg" and type(info.value.cause) is DfgError
    assert f"assignment target {target} is outside y[1:0]" in str(info.value)


def test_assignment_target_inside_its_range_compiles():
    graph = compile_text(RANGE_TEXT % "assign y[1] = a[0]; assign y[0] = a[3];")
    assert [node.label for node in graph.nodes if node.kind == "PartSelect"] == ["[0]", "[3]"]


def timed_isomorphic(a: Graph, b: Graph) -> tuple[bool, float]:
    start = time.perf_counter()
    return is_isomorphic(a, b), time.perf_counter() - start


def test_wide_vector_adder_isomorphism_is_fast():
    text = vector_adder(64)
    g = compile_text(text)
    variant = compile_text(make_variant(text, seed=0, index=0))
    for other in (g, variant):
        same, seconds = timed_isomorphic(g, other)
        assert same and seconds < 1.0, seconds


def test_large_parity_tree_isomorphism_is_fast():
    _, raw = parity_tree(1024, random.Random(3))
    g = trim(raw)
    assert g.num_nodes == 2048
    same, seconds = timed_isomorphic(g, g)
    assert same and seconds < 5.0, seconds


def test_isomorphism_search_is_bounded(monkeypatch):
    # Unlabelled rings refine to one colour class, so only the search
    # can tell three 4-rings from two 6-rings; it needs more than one step.
    def rings(sizes):
        starts = [sum(sizes[:k]) for k in range(len(sizes))]
        edges = [(s + i, s + (i + 1) % size) for s, size in zip(starts, sizes) for i in range(size)]
        return make_graph("rings", [("Not", "")] * sum(sizes), edges, [])
    assert is_isomorphic(rings([4, 4, 4]), rings([4, 4, 4]))
    assert not is_isomorphic(rings([4, 4, 4]), rings([6, 6]))
    monkeypatch.setattr(dfg, "ISOMORPHISM_BUDGET", 1)
    with pytest.raises(DfgError, match="isomorphism search budget exceeded"):
        is_isomorphic(rings([4, 4, 4]), rings([6, 6]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 14))
def test_serialize_round_trip_random(seed, size):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, size)
    g = graph_from_edges(f"g{seed}", edges, size)
    doc = json.loads(serialize(g))
    assert [Node(nd["id"], nd["kind"], nd["label"]) for nd in doc["nodes"]] == g.nodes
    assert [tuple(e) for e in doc["edges"]] == g.edges and doc["roots"] == g.roots


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(3, 12))
def test_relabeled_random_graph_is_isomorphic(seed, size):
    rng = np.random.default_rng(seed)
    edges = random_graph_edges(rng, size)
    kinds = [str(NODE_KINDS[5 + int(rng.integers(0, 20))]) for _ in range(size)]
    g = graph_from_edges(f"g{seed}", edges, size, kinds=kinds)
    perm = rng.permutation(size)
    inv = np.argsort(perm)
    nodes = [(g.nodes[int(perm[i])].kind, "") for i in range(size)]
    edges2 = sorted((int(inv[s]), int(inv[d])) for s, d in g.edges)
    anon = make_graph("anon", [(nd.kind, "") for nd in g.nodes], g.edges, [])
    shuffled = make_graph("shuffled", nodes, edges2, [])
    assert is_isomorphic(anon, shuffled)


def test_truncated_literal_compiles_as_its_value():
    design = "module m(input [3:0] a, output [3:0] y);\n  assign y = a + {};\nendmodule\n"
    assert serialize(compile_text(design.format("2'd7"))) == serialize(compile_text(design.format("2'd3")))
