import re
import subprocess
import sys
from pathlib import Path

from conftest import CORPUS_ROOT
from ipsim.cli import main
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

    # The script is `ipsim train` with its pinned recipe as flags.
    cli_out, cli_trace = tmp_path / "cli.ckpt", tmp_path / "cli.csv"
    assert main(["train", "--corpus", str(CORPUS_ROOT), "--out", str(cli_out),
                 "--trace", str(cli_trace), "--seed", "9", "--lr", "0.005",
                 "--optimizer", "adam", "--patience", "-1", "--epochs", "1", "--quiet"]) == 0
    assert cli_out.read_bytes() == out.read_bytes()
    assert cli_trace.read_bytes() == trace.read_bytes()
