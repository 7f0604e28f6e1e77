"""tools/command_rss.py: each command's own peak RSS in a workload's operation."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "command_rss.py"
_spec = importlib.util.spec_from_file_location("command_rss", SCRIPT)
command_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(command_rss)


def test_toy_prints_its_one_command_and_the_maximum():
    done = subprocess.run([sys.executable, str(SCRIPT), "--workload", "toy", "--seed", "2"],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [(line[0], line[2]) for line in lines] == [("toy-experiment", "MB"), ("max", "MB")]
    peak = float(lines[0][1])
    assert float(lines[1][1]) == peak and 20 < peak < 200  # numpy alone takes about 27 MB


def test_a_failing_command_reports_its_exit_code(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SCRIPT.parents[1] / "src"))
    code, peak = command_rss.run_command(["gen-data", "--dims", "0", "--out", "x"], tmp_path, env)
    assert code == 2 and peak > 0
    assert not (tmp_path / "x").exists()
