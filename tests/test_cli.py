import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ipsim
from conftest import CORPUS_ROOT, FULL_ADDER, doubling, flat_xor
from ipsim.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from ipsim.model import Hyper, ModelParams, init_params
from ipsim.train import load_checkpoint, save_checkpoint
from test_scanners import PERFBENCH
from test_train import MALFORMED_HEADERS, doctor_header

FAMILIES = {
    "andor": [
        "module andor{i}(input a, input b, input c, output y);\n"
        "  assign y = (a & b) | c;\nendmodule\n",
        "module andor{i}(input a, input b, input c, output y);\n"
        "  wire t;\n  assign t = a & b;\n  assign y = t | c;\nendmodule\n",
        "module andor{i}(input a, input b, input c, output y);\n"
        "  assign y = c | (b & a);\nendmodule\n",
    ],
    "xorchain": [
        "module xc{i}(input a, input b, input c, output y);\n"
        "  assign y = a ^ b ^ c;\nendmodule\n",
        "module xc{i}(input a, input b, input c, output y);\n"
        "  wire t;\n  assign t = a ^ b;\n  assign y = t ^ c;\nendmodule\n",
        "module xc{i}(input a, input b, input c, output y);\n"
        "  assign y = c ^ (b ^ a);\nendmodule\n",
    ],
    "addsub": [
        "module as{i}(input [3:0] a, input [3:0] b, output [3:0] y);\n"
        "  assign y = a + b;\nendmodule\n",
        "module as{i}(input [3:0] a, input [3:0] b, output [3:0] y);\n"
        "  wire [3:0] t;\n  assign t = a + b;\n  assign y = t;\nendmodule\n",
        "module as{i}(input [3:0] a, input [3:0] b, output [3:0] y);\n"
        "  assign y = b + a;\nendmodule\n",
    ],
    "muxes": [
        "module mx{i}(input s, input a, input b, output y);\n"
        "  assign y = s ? a : b;\nendmodule\n",
        "module mx{i}(input s, input a, input b, output y);\n"
        "  wire t;\n  assign t = s ? a : b;\n  assign y = t;\nendmodule\n",
        "module mx{i}(input s, input a, input b, output y);\n"
        "  assign y = (s) ? a : b;\nendmodule\n",
    ],
}

TRAIN_ARGS = ["--epochs", "3", "--batch-size", "16", "--hidden", "8",
              "--seed", "1", "--patience", "-1", "--quiet"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    for family, texts in FAMILIES.items():
        (root / family).mkdir()
        for i, text in enumerate(texts):
            (root / family / f"{family}{i}.v").write_text(text.format(i=i))
    return root


@pytest.fixture(scope="module")
def checkpoint(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_model") / "model.ckpt"
    code = main(["train", "--corpus", str(corpus), "--out", str(out), *TRAIN_ARGS])
    assert code == EXIT_OK
    return out


def test_dfg_stdout_and_file(tmp_path, capsys):
    src = tmp_path / "fa.v"
    src.write_text(FULL_ADDER)
    assert main(["dfg", str(src)]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "fulladd"
    assert doc["nodes"] and doc["edges"]

    out = tmp_path / "fa.json"
    assert main(["dfg", str(src), "--out", str(out), "--stats"]) == EXIT_OK
    stats = capsys.readouterr().out
    assert "nodes" in stats and "edges" in stats
    assert json.loads(out.read_text())["name"] == "fulladd"


def test_dfg_no_trim_keeps_more_nodes(tmp_path, capsys):
    src = tmp_path / "alias.v"
    src.write_text(
        "module alias_m(input a, output y);\n"
        "  wire t;\n  assign t = a;\n  assign y = t;\nendmodule\n")
    assert main(["dfg", str(src)]) == EXIT_OK
    trimmed = json.loads(capsys.readouterr().out)
    assert main(["dfg", str(src), "--no-trim"]) == EXIT_OK
    raw = json.loads(capsys.readouterr().out)
    assert len(raw["nodes"]) > len(trimmed["nodes"])


def test_dfg_input_errors(tmp_path, capsys):
    assert main(["dfg", str(tmp_path / "ghost.v")]) == EXIT_INPUT
    bad = tmp_path / "bad.v"
    bad.write_text("module broken(\n")
    assert main(["dfg", str(bad)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error" in err


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == EXIT_INPUT
    assert main(["train"]) == EXIT_INPUT  # missing required arguments
    assert main(["compare"]) == EXIT_INPUT
    capsys.readouterr()


def test_internal_errors_exit_three(tmp_path, monkeypatch, capsys):
    import ipsim.cli as cli_mod
    monkeypatch.setattr(cli_mod, "compile_design",
                        lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
    src = tmp_path / "fa.v"
    src.write_text(FULL_ADDER)
    assert main(["dfg", str(src)]) == EXIT_INTERNAL
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("decl, col", [
    ("parameter S = 1 << -1;\n  assign y = a[0];", 17),
    ("assign y = a[(1 >> -1):0];", 17),
])
def test_negative_shift_count_in_constant_is_an_input_error(tmp_path, capsys, decl, col):
    src = tmp_path / "shift.v"
    src.write_text(f"module m(input [3:0] a, output [1:0] y);\n  {decl}\nendmodule\n")
    assert main(["dfg", str(src)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"shift.v:2:{col}: negative shift count in constant expression" in err


# 3 ** 2**10 has 1,624 bits, so P11 = P10 * P10 is the first product past
# the 2,048-bit bound; the shift's result would be 100,000,001 bits.
SQUARINGS = "parameter P0 = 3;" + "".join(f"\n  parameter P{i} = P{i - 1} * P{i - 1};" for i in range(1, 24))
# 20,000 bits: past the 4,300 decimal digits that str() prints by default.
WIDE_HEX = "'h" + "f" * 5000


@pytest.mark.parametrize("decl, where", [
    ("parameter S = 1 << 100000000;", "2:17"),
    (SQUARINGS, "13:19"),
    ("assign y = a[(1 << 65000) : 0];", "2:17"),
    (f"parameter P = 20000{WIDE_HEX}; assign y = a + P;", "2:17"),
    (f"assign y = a + 128{WIDE_HEX};", "2:18"),
    (f"assign y = a + {'9' * 5000};", "2:18"),
    (f"parameter P = 2048'h{'f' * 512} + 1;", "2:17"),
], ids=["shift", "squarings", "select", "parameter", "literal", "decimal", "sum"])
def test_constant_too_large_is_an_input_error(tmp_path, capsys, decl, where):
    src = tmp_path / "big.v"
    src.write_text(f"module m(input [3:0] a, output [1:0] y);\n  {decl}\n  assign y = a[1:0];\nendmodule\n")
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["dfg", str(src)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert f"big.v:{where}: constant expression too large" in capsys.readouterr().err
    assert elapsed < 1.0 and peak < 4 << 20


def test_too_many_instances_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "wide.v"
    src.write_text(doubling(20))  # 1,048,575 instances
    start = time.perf_counter()
    assert main(["dfg", str(src)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert "module 'm19' flattens to more than 65536 module instances" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["4'd3f", "4'b102", "4'o9", "4'b0b1", "4'sB0B1", "4'h_"])
def test_literal_digits_outside_its_base_are_a_syntax_error(tmp_path, capsys, literal):
    src = tmp_path / "lit.v"
    src.write_text(f"module m(input [3:0] a, output [3:0] y);\n  assign y = a + {literal};\nendmodule\n")
    assert main(["dfg", str(src)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"lit.v:2:18: expected a literal whose digits fit its base, got {literal!r}" in err


def test_variants_cli(tmp_path, capsys):
    src = tmp_path / "fa.v"
    src.write_text(FULL_ADDER)
    out_dir = tmp_path / "out"
    assert main(["variants", str(src), "--count", "3", "--seed", "4",
                 "--out-dir", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    files = sorted(out_dir.glob("*.v"))
    assert len(files) == 3
    texts = [f.read_text() for f in files]
    again = tmp_path / "again"
    assert main(["variants", str(src), "--count", "3", "--seed", "4",
                 "--out-dir", str(again)]) == EXIT_OK
    capsys.readouterr()
    assert [f.read_text() for f in sorted(again.glob("*.v"))] == texts


def test_train_writes_artifacts(corpus, tmp_path, capsys):
    out = tmp_path / "model.ckpt"
    trace = tmp_path / "trace.csv"
    pairs = tmp_path / "pairs.csv"
    code = main(["train", "--corpus", str(corpus), "--out", str(out),
                 "--trace", str(trace), "--pairs-out", str(pairs), *TRAIN_ARGS])
    assert code == EXIT_OK
    capsys.readouterr()
    assert out.is_file()
    lines = trace.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 4  # header + 3 epochs
    header = pairs.read_text().splitlines()[0]
    assert header == "a_path,b_path,label,split"

    params, hyper, meta = load_checkpoint(out)
    assert hyper.hidden_dim == 8
    assert meta["seed"] == 1


def test_compare_self_pair(corpus, checkpoint, capsys):
    design = str(corpus / "andor" / "andor0.v")
    code = main(["compare", design, design, "--checkpoint", str(checkpoint)])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["label"] == "piracy"
    assert verdict["score"] == pytest.approx(1.0, abs=1e-9)
    assert verdict["delta"] == 0.5
    assert list(verdict) == ["a", "b", "score", "delta", "label"]


def test_compare_verdict_is_not_exit_status(corpus, checkpoint, capsys):
    a = str(corpus / "andor" / "andor0.v")
    b = str(corpus / "addsub" / "addsub0.v")
    code = main(["compare", a, b, "--checkpoint", str(checkpoint), "--delta", "0.99"])
    assert code == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["label"] in ("piracy", "no-piracy")


def test_compare_one_file_under_two_tops(corpus, checkpoint, tmp_path, capsys):
    lib = tmp_path / "lib.v"
    lib.write_text((corpus / "andor" / "andor0.v").read_text()
                   + (corpus / "addsub" / "addsub0.v").read_text())
    args = ["--checkpoint", str(checkpoint)]
    assert main(["compare", str(lib), str(lib), "--top-a", "andor0", "--top-b", "as0",
                 *args]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["a"], verdict["b"]) == (str(lib), str(lib))
    assert main(["compare", str(corpus / "andor" / "andor0.v"),
                 str(corpus / "addsub" / "addsub0.v"), *args]) == EXIT_OK
    apart = json.loads(capsys.readouterr().out)
    assert verdict["score"] < 0.999
    assert abs(verdict["score"] - apart["score"]) <= 1e-12


def test_compare_batch_and_jsonl(corpus, checkpoint, tmp_path, capsys):
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(
        "a_path,b_path,label,split\n"
        f"{corpus / 'andor' / 'andor0.v'},{corpus / 'andor' / 'andor1.v'},1,test\n"
        f"{corpus / 'andor' / 'andor0.v'},{corpus / 'muxes' / 'muxes0.v'},-1,test\n")
    jsonl = tmp_path / "verdicts.jsonl"
    code = main(["compare", "--batch", str(manifest),
                 "--checkpoint", str(checkpoint), "--jsonl", str(jsonl)])
    assert code == EXIT_OK
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert len(out_lines) == 2
    for line in out_lines:
        record = json.loads(line)
        assert set(record) >= {"a", "b", "score", "delta", "label"}
    assert len(jsonl.read_text().strip().splitlines()) == 2


def test_compare_too_deep_design_is_an_input_error(checkpoint, tmp_path, capsys):
    deep = tmp_path / "deep.v"
    deep.write_text(flat_xor(1200))
    code = main(["compare", str(deep), str(deep), "--checkpoint", str(checkpoint)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert re.search(rf"error: {re.escape(str(deep))}: \w+: design nests too deep", err)


def test_non_utf8_design_is_an_input_error(checkpoint, tmp_path, capsys):
    # A 0xff byte in a comment, at byte 3: of a design, and of a file that
    # a design includes.
    bad = tmp_path / "bad.v"
    bad.write_bytes(b"// \xff\n" + FULL_ADDER.encode())
    (tmp_path / "bad.vh").write_bytes(b"// \xff\n")
    top = tmp_path / "top.v"
    top.write_text('`include "bad.vh"\n' + FULL_ADDER)
    model = ["--checkpoint", str(checkpoint)]
    for args, culprit in [(["compare", str(bad), str(top), *model], bad),
                          (["compare", str(top), str(top), *model], tmp_path / "bad.vh"),
                          (["variants", str(bad), "--out-dir", str(tmp_path / "out")], bad)]:
        assert main(args) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "internal error" not in err
        assert f"{culprit}: not UTF-8 at byte 3" in err


def test_compare_rejects_missing_inputs(checkpoint, capsys):
    assert main(["compare", "--checkpoint", str(checkpoint)]) == EXIT_INPUT
    capsys.readouterr()


def test_eval_corpus_and_sweep(corpus, checkpoint, tmp_path, capsys):
    code = main(["eval", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                 "--split", "test", "--seed", "1", "--sweep"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "accuracy" in text
    assert "mean similar" in text
    assert "mean different" in text
    assert "best delta" in text

    out = tmp_path / "verdicts.csv"
    code = main(["eval", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                 "--out", str(out), "--format", "csv"])
    assert code == EXIT_OK
    capsys.readouterr()
    header = out.read_text().splitlines()[0]
    assert header.startswith("a,b,score")


def test_eval_pairs_manifest(corpus, checkpoint, tmp_path, capsys):
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(
        "a_path,b_path,label\n"
        f"{corpus / 'xorchain' / 'xorchain0.v'},{corpus / 'xorchain' / 'xorchain1.v'},1\n"
        f"{corpus / 'xorchain' / 'xorchain0.v'},{corpus / 'addsub' / 'addsub2.v'},-1\n")
    code = main(["eval", "--pairs", str(manifest), "--checkpoint", str(checkpoint)])
    assert code == EXIT_OK
    assert "accuracy" in capsys.readouterr().out


def test_eval_pairs_honours_split(corpus, checkpoint, tmp_path, capsys):
    a, b, c = (corpus / "andor" / "andor0.v", corpus / "andor" / "andor1.v",
               corpus / "muxes" / "muxes0.v")
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(f"a_path,b_path,label,split\n{a},{b},1,test\n"
                        f"{a},{c},-1,test\n{b},{c},-1,train\n")
    for split, count in (("test", 2), ("train", 1), ("all", 3)):
        code = main(["eval", "--pairs", str(manifest), "--checkpoint", str(checkpoint),
                     "--split", split])
        assert code == EXIT_OK
        assert f"pairs: {count} " in capsys.readouterr().out

    untagged = tmp_path / "untagged.csv"
    untagged.write_text(f"a_path,b_path,label\n{a},{b},1\n")
    code = main(["eval", "--pairs", str(untagged), "--checkpoint", str(checkpoint),
                 "--split", "test"])
    assert code == EXIT_INPUT
    assert "error: no pairs to evaluate" in capsys.readouterr().err


def test_manifest_refs_resolve_against_manifest_dir(corpus, checkpoint, tmp_path,
                                                    monkeypatch, capsys):
    designs = tmp_path / "bundle" / "designs"
    designs.mkdir(parents=True)
    for family, stem in (("andor", "andor0"), ("andor", "andor2"), ("xorchain", "xorchain0")):
        shutil.copy(corpus / family / f"{stem}.v", designs)
    manifest = tmp_path / "bundle" / "pairs.csv"
    manifest.write_text("a_path,b_path,label,split\n"
                        "designs/andor0.v,designs/andor2.v,1,test\n"
                        "designs/andor0.v,designs/xorchain0.v,-1,test\n")
    monkeypatch.chdir(tmp_path)
    code = main(["compare", "--batch", str(manifest), "--checkpoint", str(checkpoint)])
    assert code == EXIT_OK
    verdicts = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(v["a"], v["b"]) for v in verdicts] == [
        ("designs/andor0.v", "designs/andor2.v"), ("designs/andor0.v", "designs/xorchain0.v")]
    code = main(["eval", "--pairs", str(manifest), "--checkpoint", str(checkpoint)])
    assert code == EXIT_OK
    assert "pairs: 2 (+1 / -1)" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, message", [
    ("--pool-ratio", "0", "pool_ratio"),
    ("--batch-size", "0", "batch size"),
    ("--hidden", "0", "hidden_dim"),
    ("--delta", "2", "delta"),
    ("--lr", "nan", "lr"),
    ("--margin", "nan", "margin"),
    ("--margin", "inf", "margin"),
])
def test_train_bad_settings_are_input_errors(corpus, tmp_path, capsys, flag, value, message):
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.ckpt"),
                 *TRAIN_ARGS, flag, value])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert "internal error" not in err


def test_compare_rejects_delta_out_of_range(corpus, checkpoint, capsys):
    design = str(corpus / "andor" / "andor0.v")
    code = main(["compare", design, design, "--checkpoint", str(checkpoint), "--delta", "2"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "error:" in captured.err and "delta" in captured.err
    assert captured.out == ""


def test_eval_rejects_delta_out_of_range(corpus, checkpoint, tmp_path, capsys):
    design = corpus / "andor" / "andor0.v"
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(f"a_path,b_path,label\n{design},{design},1\n")
    code = main(["eval", "--pairs", str(manifest), "--checkpoint", str(checkpoint),
                 "--delta", "2"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert "error:" in captured.err and "delta" in captured.err
    assert captured.out == ""


def test_train_rejects_zero_epochs_before_compiling(tmp_path, capsys):
    # The corpus does not exist, so only a check made before the corpus
    # is read can produce the epochs message.
    code = main(["train", "--corpus", str(tmp_path / "missing"), "--out", str(tmp_path / "m.ckpt"),
                 "--epochs", "0"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: epochs must be at least 1" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_without_training_pairs_is_an_input_error(tmp_path, capsys):
    # Two one-design families make one pair, and a 0.6 split sends it to test.
    root = tmp_path / "corpus"
    for family in ("andor", "xorchain"):
        (root / family).mkdir(parents=True)
        (root / family / f"{family}0.v").write_text(FAMILIES[family][0].format(i=0))
    code = main(["train", "--corpus", str(root), "--out", str(tmp_path / "m.ckpt"),
                 *TRAIN_ARGS, "--test-fraction", "0.6"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: no training pairs (train 0, test 1)" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_project_csv(corpus, checkpoint, tmp_path, capsys):
    out = tmp_path / "coords.csv"
    code = main(["project", "--corpus", str(corpus),
                 "--checkpoint", str(checkpoint), "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "name,family,x,y"
    assert len(lines) == 13  # 12 designs + header


def test_project_needs_two_designs(corpus, checkpoint, tmp_path, capsys):
    manifest = tmp_path / "one.csv"
    manifest.write_text(f"family_id,path,abstraction\nandor,{corpus / 'andor' / 'andor0.v'},rtl\n")
    code = main(["project", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
                 "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "error: a projection needs two or more embeddings, got shape (1, 8)" in err
    assert not (tmp_path / "c.csv").exists()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "ipsim" in capsys.readouterr().out


def test_manifest_alone_selects_designs(corpus, checkpoint, tmp_path, capsys):
    manifest = tmp_path / "designs.csv"
    manifest.write_text("family_id,path,abstraction\n" + "".join(
        f"{family},{corpus / family / f'{family}{i}.v'},rtl\n"
        for family in ("andor", "muxes") for i in range(2)))
    model = tmp_path / "m.ckpt"
    assert main(["train", "--manifest", str(manifest), "--out", str(model),
                 *TRAIN_ARGS]) == EXIT_OK
    assert "designs: 4" in capsys.readouterr().out
    coords = tmp_path / "coords.csv"
    assert main(["project", "--manifest", str(manifest), "--checkpoint", str(checkpoint),
                 "--out", str(coords)]) == EXIT_OK
    capsys.readouterr()
    assert len(coords.read_text().splitlines()) == 5  # 4 designs + header


def test_corpus_commands_need_a_design_source(checkpoint, tmp_path, capsys):
    for command, sources in (
            (["train", "--out", str(tmp_path / "m.ckpt")], "--corpus or --manifest"),
            (["project", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "c.csv")],
             "--corpus or --manifest"),
            (["eval", "--checkpoint", str(checkpoint)], "--corpus, --manifest or --pairs")):
        assert main(command) == EXIT_INPUT, command
        assert f"error: need {sources}\n" in capsys.readouterr().err


def test_zero_embeddings_are_input_errors_naming_the_design(corpus, checkpoint, tmp_path,
                                                            capsys):
    params, hyper, _ = load_checkpoint(checkpoint)
    dead = tmp_path / "dead.ckpt"
    save_checkpoint(dead, ModelParams(np.zeros_like(params.flat), params.shapes), hyper)
    a, b = str(corpus / "andor" / "andor0.v"), str(corpus / "muxes" / "muxes0.v")
    manifest = tmp_path / "pairs.csv"
    manifest.write_text(f"a_path,b_path,label\n{a},{b},-1\n")
    for command, design in ((["compare", a, b], a),
                            (["compare", "--batch", str(manifest)], a),
                            (["eval", "--corpus", str(corpus)], "addsub:rtl:addsub0"),
                            (["eval", "--pairs", str(manifest)], a)):
        assert main([*command, "--checkpoint", str(dead)]) == EXIT_INPUT, command
        captured = capsys.readouterr()
        assert f"error: design {design!r} has a zero embedding" in captured.err, command
        assert captured.out == ""


def test_nan_weight_is_an_input_error_naming_the_design(corpus, checkpoint, tmp_path, capsys):
    params, hyper, _ = load_checkpoint(checkpoint)
    params.arrays()[0][0, 0] = float("nan")
    broken = tmp_path / "nan.ckpt"
    save_checkpoint(broken, params, hyper)
    a, b = str(corpus / "andor" / "andor0.v"), str(corpus / "muxes" / "muxes0.v")
    assert main(["compare", a, b, "--checkpoint", str(broken)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"error: design {a!r} has a NaN or inf embedding" in captured.err
    assert captured.out == ""


def test_compare_rejects_malformed_checkpoint_header(corpus, checkpoint, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(doctor_header(checkpoint.read_bytes(), MALFORMED_HEADERS["no-arrays"][0]))
    design = str(corpus / "andor" / "andor0.v")
    assert main(["compare", design, design, "--checkpoint", str(bad)]) == EXIT_INPUT
    assert "error: corrupt checkpoint header: KeyError: 'arrays'" in capsys.readouterr().err


def test_eval_sources_agree(corpus, tmp_path, capsys):
    model, manifest = tmp_path / "m.ckpt", tmp_path / "pairs.csv"
    assert main(["train", "--corpus", str(corpus), "--out", str(model),
                 "--pairs-out", str(manifest), *TRAIN_ARGS]) == EXIT_OK
    capsys.readouterr()
    reports, scores = [], []
    for source in (["--corpus", str(corpus), "--seed", "1"], ["--pairs", str(manifest)]):
        out = tmp_path / "verdicts.jsonl"
        assert main(["eval", *source, "--checkpoint", str(model), "--split", "test",
                     "--out", str(out)]) == EXIT_OK
        reports.append([line for line in capsys.readouterr().out.splitlines()
                        if line.startswith(("pairs:", "accuracy", "confusion"))])
        scores.append([json.loads(line)["score"] for line in out.read_text().splitlines()])
    assert len(reports[0]) == 3 and reports[0] == reports[1]
    assert len(scores[0]) == len(scores[1])
    assert max(abs(x - y) for x, y in zip(*scores)) <= 1e-12


def test_compare_of_corpus_designs_does_not_load_scipy(tmp_path, monkeypatch):
    # Two corpus designs pack to fewer than SPARSE_THRESHOLD rows, so to
    # a dense matrix; two 32-bit ladder adders pack past it, to a CSR,
    # whose product loads scipy's compiled kernel alone. Neither compare
    # imports scipy, whose import would outweigh its work.
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params(Hyper(), 0), Hyper())
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ladder = importlib.import_module("ladder")
    netlists = [tmp_path / f"adder_{seed}.v" for seed in (0, 1)]
    for seed, path in enumerate(netlists):
        path.write_text(ladder.adder(32, seed).text)
    script = ("import sys\n"
              "from ipsim.cli import main\n"
              "code = main(['compare', *sys.argv[1:]])\n"
              "print(code, 'scipy' in sys.modules, 'scipy.sparse' in sys.modules)\n")
    src_root = str(Path(ipsim.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")])))
    for designs in ([CORPUS_ROOT / "adder8" / name for name in ("behav8.v", "rca8.v")], netlists):
        run = subprocess.run([sys.executable, "-c", script, *map(str, designs),
                              "--checkpoint", str(ckpt)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"{EXIT_OK} False False"
