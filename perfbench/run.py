#!/usr/bin/env python3
"""Benchmark of ipsim: desk training, compare latency and netlist compiles.

    python3 perfbench/run.py --workload desk_train|compare_stream|netlist_ladder
        --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/ipsim`` and ``corpus``.
The seeded inputs are written under ``.perfbench_work/`` first; then each
workload runs in fresh interpreters started one after another from this
process (one caller). With ``--trace 0`` it runs one measured process between
SETUP_PROBES set-up-only processes, and prints the end-to-end metrics.
With ``--trace 1`` it runs one process whose rounds alternate
untraced and traced, and prints the per-layer metrics with the tracing
overhead. A fixed pure-Python reference loop is timed before and after
the workload and printed beside the metrics, so a reader can tell
machine drift from a program change. The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import write_inputs  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("desk_train", "compare_stream", "netlist_ladder")
SETUP_PROBES = 6        # set-up-only processes, half before and half after the
                        # measured one: 7 samples spread over the whole run
CHILD_GRACE_S = 120     # a process may run this long past its window
WORK_DIR = Path(".perfbench_work")
END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB")]


def reference_loop_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop; machine speed, not ipsim."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    # At most nproc = 2 threads: corpus.load_graphs' pool, single-threaded BLAS.
    env["IPSIM_THREADS"] = "2"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: Path, out: Path, mode: str, seconds: float) -> dict:
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    cmd = [sys.executable, str(HERE / "workload.py"), str(spec), str(out),
           "--mode", mode, "--seconds", repr(seconds), "--t0", repr(t0)]
    subprocess.run(cmd, env=child_env(), check=True, timeout=seconds + CHILD_GRACE_S,
                   stdout=sys.stderr)
    return json.loads(out.read_text())


def probe_setup(spec: Path, work: Path, index: int) -> float:
    return run_child(spec, work / f"probe{index}.json", "probe", 0.0)["setup_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (Path("src/ipsim").is_dir() and Path("corpus").is_dir()):
        print("run.py: run from the root of an ipsim checkout (src/ipsim and corpus)",
              file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{args.seed}"
    spec = write_inputs(args.workload, args.seed, Path("corpus"), work)
    loop_before = reference_loop_ms()
    if args.trace:
        result = run_child(spec, work / "traced.json", "trace", args.seconds)
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        half = SETUP_PROBES // 2
        setups = [probe_setup(spec, work, i) for i in range(half)]
        result = run_child(spec, work / "run.json", "run", args.seconds)
        setups.append(result["setup_s"])
        setups += [probe_setup(spec, work, i) for i in range(half, SETUP_PROBES)]
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    loop_after = reference_loop_ms()

    problems = result["problems"]
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"notes: {json.dumps(result['notes'])} ops_timed={result['ops_timed']} "
          f"window_s={result['window_s']:.3f}")
    print(f"reference_loop_ms before={loop_before:.3f} after={loop_after:.3f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
