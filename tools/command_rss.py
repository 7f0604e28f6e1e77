"""Each command's own peak memory in one operation of a benchmark workload.

Run from anywhere:

    python3 tools/command_rss.py --workload pipeline [--seed N]

It takes the operation of the workload at ``--seed`` (default 1, as in
``perfbench/run.py``) from ``perfbench/workloads.py``, runs its commands in
order as ``python -m tailcal`` against the ``src/`` tree next to this
script, in a fresh temporary directory, and prints one line per command
with its peak resident set size (``ru_maxrss``) in MB, then the operation's
maximum. It exits 1 if a command fails.

Each command starts by ``os.fork`` + ``os.execve`` from this process, which
never imports numpy. A forked child's high-water mark starts at the RSS of
the process it was forked from, here about 13 MB, below any command's own
peak. The benchmark harness starts its commands through ``subprocess``, by
vfork + exec, and a child started so inherits the whole high-water mark of
the harness: its ``peak_rss_mb`` cannot read below the harness's own peak
(on ``ingest`` about 61 MB, where the command alone peaks at about 53 MB).
The workload's inputs, which ``workloads.py`` writes with numpy, are made in
a forked child that exits before the first command starts.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("toy", "pipeline", "ingest")  # as perfbench/workloads.py names them


def operation_commands(workload: str, seed: int, work: Path) -> list[list[str]]:
    """The argv lists of one operation, built in a forked child so that
    numpy never enters this process; its inputs are written under ``work``."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            sys.path.insert(0, str(ROOT / "perfbench"))
            import workloads

            op = workloads.operation(workload, seed, work / "inputs")
            with open(write, "w") as channel:
                json.dump([list(argv) for argv in op.commands], channel)
        finally:
            os._exit(0)
    os.close(write)
    with open(read) as channel:
        payload = channel.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        raise SystemExit(f"building the {workload} operation failed "
                         f"(exit {os.waitstatus_to_exitcode(status)})")
    return json.loads(payload)


def run_command(argv: list[str], cwd: Path, env: dict) -> tuple[int, float]:
    """Run ``python -m tailcal *argv`` in ``cwd`` by fork + execve, with its
    output discarded; return its exit code and its peak RSS in MB."""
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            os.execve(sys.executable, [sys.executable, "-m", "tailcal", *argv], env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("TAILCAL_SEED", None)  # every seed is passed explicitly
    with tempfile.TemporaryDirectory(prefix="command_rss-") as tmp:
        work = Path(tmp)
        commands = operation_commands(args.workload, args.seed, work)
        (work / "op").mkdir()
        peaks = []
        for argv in commands:
            code, peak = run_command(argv, work / "op", env)
            print(f"{argv[0]:<16} {peak:8.2f} MB" + (f"  exit {code}" if code else ""),
                  flush=True)
            if code:
                return 1
            peaks.append(peak)
    print(f"{'max':<16} {max(peaks):8.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
