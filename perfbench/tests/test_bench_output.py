"""The command's output format, and the reduction of spans to metrics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import LAYER_METRICS, layer_metrics

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def run(*args, cwd=REPO):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run("--workload", "netlist_ladder", "--seed", "0", "--seconds", "1", "--trace", "0")
    result = last_json(proc)
    assert result["correct"] is True
    # One op in eight, the inverter chain, fails in every whole round.
    assert result["attempted"] % 8 == 0
    assert result["failed"] * 8 == result["attempted"]
    expect = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expect
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "reference_loop_ms before=" in proc.stdout


def test_traced_run_prints_every_per_layer_metric():
    proc = run("--workload", "compare_stream", "--seed", "0", "--seconds", "1", "--trace", "1")
    result = last_json(proc)
    assert result["correct"] is True and result["failed"] == 0
    expect = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expect
    assert result["metrics"]["detect.judge_us"]["value"] > 0
    assert result["metrics"]["model.forward_calls"]["value"] == 2


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == LAYER_METRICS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "desk_train", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    with pytest.raises(ValueError):
        json.loads(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")


def test_layer_metrics_self_time_and_counts():
    ms = 1_000_000
    spans = [
        # id, parent, name, start, end, op, tag, note
        (1, 0, "dfg.build", 0, 10 * ms, 1, "parity_32", None),
        (2, 1, "dfg.trim", 2 * ms, 8 * ms, 1, "parity_32", [30, 20]),
        (3, 0, "model.forward", 10 * ms, 10 * ms + 4000, 1, "parity_32", None),
        (4, 0, "model.forward", 11 * ms, 11 * ms + 2000, 2, "adder_16", None),
    ]
    out = layer_metrics(spans, ops=2, import_s=0.25)
    assert out["import.ipsim_ms"] == 250.0
    assert out["dfg.build_ms"] == 4.0
    assert out["dfg.trim_ms"] == 6.0
    assert out["dfg.trim_ms.parity_32"] == 6.0
    assert out["dfg.trim_ms.adder_16"] == 0.0
    assert out["dfg.nodes_raw"] == 30 and out["dfg.nodes_trimmed"] == 20
    assert out["model.forward_us"] == 3.0
    assert out["model.forward_calls"] == 1.0
    assert out["model.backward_calls"] == 0.0
    assert out["trace.spans_per_op"] == 2.0
