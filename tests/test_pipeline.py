import gc
import hashlib
import importlib
import random

import pytest

from conftest import CORPUS_ROOT, FULL_ADDER, flat_xor
from ipsim.dfg import serialize
from ipsim.errors import (
    DesignTooDeep,
    ElaborationError,
    MultipleContinuousDrivers,
    PipelineError,
    VerilogSyntaxError,
)
from ipsim.pipeline import compile_design, compile_text, unit_from_paths
from test_scanners import PERFBENCH


def test_compile_text_full_adder(full_adder_graph):
    assert full_adder_graph.name == "fulladd"
    assert full_adder_graph.num_nodes > 0


def test_pipeline_error_carries_stage_and_cause():
    with pytest.raises(PipelineError) as info:
        compile_text("module broken(x; endmodule", path="broken.v")
    err = info.value
    assert err.stage == "parse"
    assert err.design == "broken.v"
    assert isinstance(err.cause, VerilogSyntaxError)
    assert "broken.v" in str(err)


def test_pipeline_error_from_elaboration():
    text = """
module top(input a, output y);
  ghost u0(.p(a), .q(y));
endmodule
"""
    with pytest.raises(PipelineError) as info:
        compile_text(text, path="top.v")
    assert info.value.stage == "elaborate"
    assert isinstance(info.value.cause, ElaborationError)


def test_pipeline_error_from_graph_build():
    text = """
module dup(input a, input b, output y);
  assign y = a;
  assign y = b;
endmodule
"""
    with pytest.raises(PipelineError) as info:
        compile_text(text, path="dup.v")
    assert info.value.stage == "dfg"
    assert isinstance(info.value.cause, MultipleContinuousDrivers)


def test_recursion_limit_is_a_typed_error_naming_the_design():
    assert compile_text(flat_xor(300), path="shallow.v").num_nodes > 0
    with pytest.raises(PipelineError) as info:
        compile_text(flat_xor(1200), path="deep.v")
    assert info.value.design == "deep.v"
    assert isinstance(info.value.cause, DesignTooDeep)
    assert isinstance(info.value.__cause__, RecursionError)


def test_compile_design_reads_files(tmp_path):
    path = tmp_path / "fa.v"
    path.write_text(FULL_ADDER)
    graph = compile_design([path])
    assert graph.name == "fulladd"


def test_compile_design_multi_file_hierarchy(tmp_path):
    (tmp_path / "leaf.v").write_text(
        "module leaf(input i, output o);\n  assign o = ~i;\nendmodule\n")
    (tmp_path / "root.v").write_text(
        "module root(input a, output z);\n  wire m;\n"
        "  leaf u0(.i(a), .o(m));\n  leaf u1(.i(m), .o(z));\nendmodule\n")
    graph = compile_design([tmp_path / "root.v", tmp_path / "leaf.v"], top="root")
    assert graph.name == "root"
    kinds = [node.kind for node in graph.nodes]
    assert kinds.count("Not") == 2  # one per elaborated leaf instance


def test_unit_from_paths_missing_file(tmp_path):
    # File system errors stay OSError; the CLI turns them into usage
    # failures rather than internal ones.
    with pytest.raises(FileNotFoundError):
        compile_design([tmp_path / "ghost.v"])


def test_unit_from_paths_collects_defines(tmp_path):
    path = tmp_path / "cond.v"
    path.write_text(
        "`ifdef WIDE\nmodule m(input [7:0] a, output [7:0] y);\n"
        "`else\nmodule m(input a, output y);\n`endif\n"
        "  assign y = a;\nendmodule\n")
    unit = unit_from_paths([path], defines={"WIDE": "1"})
    assert unit.defines == {"WIDE": "1"}
    graph = compile_design([path], defines={"WIDE": "1"})
    inputs = [node for node in graph.nodes if node.kind == "Input"]
    assert len(inputs) == 1


# One SHA-256 over the frontend's outcome on damaged corpus files: for each
# file, 8 cut points drawn from random.Random(its corpus path), and at each
# cut the text before it alone and with one fragment inserted there. An
# outcome is the error's cause class and message, or the compiled graph's
# digest; any other exception fails the test.
DIAGNOSTIC_FRAGMENTS = ["\\wire ", "endmodule", "((", "a[i +: 4]", "1 << -1", "4'd3f", "generate",
                        "#5", "{2{", "`undefined", "assign", ";", "wire w;", "1'bx"]
CORPUS_DIAGNOSTICS_SHA256 = "88d54ee5ca119bcf8c00ea876482ccf1ac1acb76433c30b2e488c5f980a2a231"


def test_corpus_diagnostics_are_pinned():
    def outcome(text: str, path: str) -> str:
        try:
            graph = compile_text(text, path=path)
        except PipelineError as exc:
            return f"{type(exc.cause).__name__}: {exc}"
        return hashlib.sha256(serialize(graph).encode()).hexdigest()

    digest = hashlib.sha256()
    count = 0
    for path in sorted(CORPUS_ROOT.rglob("*.v")):
        name = path.relative_to(CORPUS_ROOT).as_posix()
        text = path.read_text()
        rng = random.Random(name)
        for _ in range(8):
            cut = rng.randrange(len(text) + 1)
            fragment = rng.choice(DIAGNOSTIC_FRAGMENTS)
            for damaged in (text[:cut], text[:cut] + fragment + text[cut:]):
                digest.update(outcome(damaged, name).encode() + b"\n")
                count += 1
    assert count == 1472
    assert digest.hexdigest() == CORPUS_DIAGNOSTICS_SHA256


def test_no_compile_leaves_cyclic_garbage(monkeypatch):
    """Every object a compile makes is freed by reference counting, so a
    compile gives the cyclic collector nothing to find, a failed one
    (the chain nests too deep) included."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder = importlib.import_module("ladder")
    jobs = [(path.name, lambda path=path: compile_design([path])) for path in sorted(CORPUS_ROOT.rglob("*.v"))]
    jobs += [(nl.name, lambda nl=nl: compile_text(nl.text, nl.name))
             for nl in (ladder.parity(32, 0), ladder.adder(16, 0), ladder.chain(400, 0))]
    found, failed = {}, []
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name, job in jobs:
            try:
                job()
            except PipelineError as exc:
                failed.append((name, type(exc.cause).__name__))
            found[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert len(found) == 95 and failed == [("chain_400", "DesignTooDeep")]
    assert {name: count for name, count in found.items() if count} == {}
