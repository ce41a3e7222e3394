import re
import shutil
import subprocess
import sys

import pytest

from conftest import CORPUS_ROOT, FULL_ADDER
from ipsim.dfg import is_isomorphic
from ipsim.pipeline import compile_text
from ipsim.variants import make_variant, synthesize_variants

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
