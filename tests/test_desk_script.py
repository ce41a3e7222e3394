import re
import subprocess
import sys
from pathlib import Path

from ipsim.train import load_checkpoint

SCRIPT = Path(__file__).parent.parent / "scripts" / "run_desk_eval.py"


def test_desk_script_one_epoch(tmp_path):
    out, trace = tmp_path / "desk.ckpt", tmp_path / "desk.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--epochs", "1", "--quiet",
         "--out", str(out), "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=True)
    assert re.search(r"^held-out accuracy \d\.\d{4} at swept delta [+-]\d\.\d\d$",
                     proc.stdout, re.MULTILINE)
    params, hyper, meta = load_checkpoint(out)
    assert meta["epochs_run"] == 1 and meta["seed"] == 9
    assert len(params.weights) == hyper.num_layers
    assert len(trace.read_text().splitlines()) == 2  # header + 1 epoch
