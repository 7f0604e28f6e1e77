"""In-process runner: calls ``tailcal.cli.main(argv)`` for an operation's
commands, optionally under the tracer.

Run as ``python3 perfbench/child.py SPEC.json`` with ``tailcal`` importable
(``PYTHONPATH=src``). The spec names the commands, the run directory, how
long to keep going and whether to trace. Operations go into fresh
directories ``op<k>`` of the run directory. With tracing on, untraced and
traced operations alternate, so that the tracing overhead is measured on
the same argv. The results, and the spans of the last traced operation,
are written as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import tracing


def run_commands(main, commands, op_dir: Path) -> list[int]:
    codes = []
    cwd = os.getcwd()
    os.chdir(op_dir)
    try:
        with open("stdout.txt", "w") as out, open("stderr.txt", "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in commands:
                try:
                    codes.append(main(list(argv)))
                except SystemExit as exc:
                    codes.append(exc.code if isinstance(exc.code, int) else 1)
                except Exception:  # a crash is a failed command, not a failed benchmark
                    traceback.print_exc()
                    codes.append(1)
    finally:
        os.chdir(cwd)
    return codes


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    from tailcal.cli import main as cli_main  # imported before any timing

    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer) if spec["trace"] else None
    run_dir = Path(spec["run_dir"])
    results, spans = [], []
    started = time.perf_counter()
    k = 0
    while k < spec["min_ops"] or time.perf_counter() - started < spec["seconds"]:
        # with tracing on, operation 0 warms the process up and is not
        # timed; traced (odd k) and untraced (even k) operations follow
        traced = instrumentation is not None and k % 2 == 1
        op_dir = run_dir / f"{spec['prefix']}{k}"
        op_dir.mkdir(parents=True)
        tracer.reset()
        if traced:
            instrumentation.install()
        try:
            t0 = time.perf_counter()
            codes = run_commands(cli_main, spec["commands"], op_dir)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                instrumentation.uninstall()
        record = {"dir": str(op_dir), "traced": traced, "warmup": k == 0, "wall_s": wall,
                  "codes": codes}
        if traced:
            record["stats"] = tracing.aggregate(tracer.spans)
            spans = tracer.spans
        results.append(record)
        k += 1
    payload = {"ops": results}
    if instrumentation is not None:
        payload["functions"] = sorted(instrumentation.functions)
    Path(spec["result"]).write_text(json.dumps(payload))
    if spec.get("spans"):
        Path(spec["spans"]).write_text(json.dumps([asdict(s) for s in spans]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
