import hashlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import CORPUS_ROOT, FULL_ADDER
from ipsim.dfg import is_isomorphic
from ipsim.frontend.emit import emit_module
from ipsim.frontend.parser import parse
from ipsim.pipeline import compile_text
from ipsim.variants import make_variant, reorder_items, synthesize_variants

COUNTER = """
module count4(clk, rst, q);
  input clk;
  input rst;
  output [3:0] q;
  reg [3:0] q;

  always @(posedge clk) begin
    if (rst)
      q <= 4'd0;
    else
      q <= q + 4'd1;
  end
endmodule
"""


@pytest.mark.parametrize("source", [FULL_ADDER, COUNTER], ids=["comb", "seq"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_variants_compile_and_preserve_dataflow(source, seed):
    original = compile_text(source)
    for index, text in enumerate(synthesize_variants(source, count=3, seed=seed)):
        variant = compile_text(text)
        assert is_isomorphic(original, variant), f"variant {index} diverged"


def test_variant_text_differs_from_original():
    texts = synthesize_variants(FULL_ADDER, count=3, seed=0)
    for text in texts:
        assert text != FULL_ADDER
    assert len(set(texts)) == 3


def test_variants_deterministic_per_seed_and_index():
    again = [make_variant(FULL_ADDER, seed=5, index=i) for i in range(3)]
    batch = synthesize_variants(FULL_ADDER, count=3, seed=5)
    assert again == batch
    assert synthesize_variants(FULL_ADDER, count=3, seed=5) == batch
    other = synthesize_variants(FULL_ADDER, count=3, seed=6)
    assert other != batch


def test_variant_keeps_port_names():
    text = make_variant(FULL_ADDER, seed=2, index=0)
    for port in ("Num1", "Num2", "Cin", "Sum", "Cout"):
        assert port in text
    graph = compile_text(text)
    inputs = {node.label for node in graph.nodes if node.kind == "Input"}
    assert inputs == {"Num1", "Num2", "Cin"}


NAMED_OVERRIDE = """
module sub #(parameter W = 4) (input [W-1:0] a, input [W-1:0] b, output [W-1:0] y);
  wire [W-1:0] t;
  assign t = a & b;
  assign y = t ^ a;
endmodule

module top(input [7:0] x, input [7:0] z, output [7:0] o);
  sub #(.W(8)) u0 (.a(x), .b(z), .y(o));
endmodule
"""


@pytest.mark.parametrize("seed", range(10))
def test_variants_keep_overridable_parameter_names(seed):
    # `sub #(.W(8))` names W from outside the module, so renaming W inside
    # `sub` would leave the override dangling.
    original = compile_text(NAMED_OVERRIDE)
    for index, text in enumerate(synthesize_variants(NAMED_OVERRIDE, count=3, seed=seed)):
        assert is_isomorphic(original, compile_text(text)), f"variant {index} diverged"


def test_shipped_variants_match_their_seeds():
    # Spot-check one shipped family: every generated variant file must
    # stay graph-equivalent to the design it was derived from.
    seed_path = CORPUS_ROOT / "fa" / "fulladd.v"
    original = compile_text(seed_path.read_text(), path=str(seed_path))
    variants = sorted((CORPUS_ROOT / "fa").glob("fulladd_v*.v"))
    assert variants, "expected shipped variants next to the seed design"
    for path in variants:
        got = compile_text(path.read_text(), path=str(path))
        assert is_isomorphic(original, got), path.name


def test_build_desk_corpus_reproduces_shipped_variants(tmp_path):
    # The shipped variant files pin every random draw of the generator.
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    script = CORPUS_ROOT.parent / "scripts" / "build_desk_corpus.py"
    proc = subprocess.run([sys.executable, str(script), "--root", str(root)],
                          capture_output=True, text=True, timeout=120, check=True)
    written = proc.stdout.split()
    assert written and all(re.search(r"_v\d+\.v$", name) for name in written)
    shipped = sorted(p.relative_to(CORPUS_ROOT) for p in CORPUS_ROOT.rglob("*.v"))
    assert sorted(p.relative_to(root) for p in root.rglob("*.v")) == shipped
    for rel in shipped:
        assert (root / rel).read_bytes() == (CORPUS_ROOT / rel).read_bytes(), rel


# Every item kind, interleaved; v and x become implicit nets, in the order
# the instance's connections name them.
INTERLEAVED = """
module inv(input a, output y);
  assign y = ~a;
endmodule

module top(input p, input q, input clk, output r, output reg s);
  wire w = p & q;
  and g0 (v, p, w);
  inv u0 (.a(v), .y(x));
  always @(posedge clk) s <= x;
  assign r = w | x;
endmodule
"""


def _item_lines(text: str) -> list[str]:
    """A module's item lines, sorted, with an always block's body joined to
    its head and named connections sorted."""
    items: list[str] = []
    for line in text.splitlines()[1:-1]:
        if line.startswith("    "):
            items[-1] += line
        else:
            items.append(re.sub(r"\((\..*)\);$", lambda m: "(" + ", ".join(sorted(m[1].split(", "))) + ");", line))
    return sorted(items)


def test_items_emit_in_source_order_and_reorder_permutes_them():
    top = parse(INTERLEAVED).module("top")
    text = emit_module(top)
    assert text.splitlines()[1:-1] == [
        "  wire w;", "  assign w = p & q;", "  and g0 (v, p, w);", "  inv u0 (.a(v), .y(x));",
        "  always @(posedge clk)", "    s <= x;", "  assign r = w | x;", "  wire v;", "  wire x;"]
    assert [net.name for net in top.nets] == ["w", "v", "x"] and isinstance(top.nets, tuple)
    orders, connections = set(), set()
    for seed in range(8):
        mod = parse(INTERLEAVED).module("top")
        reorder_items(mod, np.random.default_rng(seed))
        shuffled = emit_module(mod)
        assert _item_lines(shuffled) == _item_lines(text)
        orders.add(tuple(map(type, mod.items)))
        connections.add(tuple(mod.instances[0].connections))
    assert len(orders) > 1 and len(connections) == 2


# One SHA-256 over the texts synthesize_variants makes: three variants of
# each seed design (a corpus file without a _v<i> stem) for seeds 0-9.
VARIANT_TEXTS_SHA256 = "0e4388dcf123f5ac161065cd9cfeefb05c4d6752a1a5781d2ba7963e1a16e864"


def test_variant_texts_are_pinned():
    digest = hashlib.sha256()
    seeds = [p for p in sorted(CORPUS_ROOT.rglob("*.v")) if not re.search(r"_v\d+$", p.stem)]
    for path in seeds:
        name = path.relative_to(CORPUS_ROOT).as_posix()
        for seed in range(10):
            for text in synthesize_variants(path.read_text(), 3, seed, name):
                digest.update(text.encode() + b"\n")
    assert len(seeds) == 24
    assert digest.hexdigest() == VARIANT_TEXTS_SHA256
