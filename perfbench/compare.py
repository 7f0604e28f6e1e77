"""Compare two saved benchmark results.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Results are the files run.py saves under ``.perfbench_work/results/``.
Prints each metric of both results with the change in percent, and flags
the comparison when the machine records differ (load average excepted) or
the two results ran different workloads, seeds, run lengths or modes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "blas", "thread_env")
RUN_KEYS = ("workload", "seed", "seconds", "trace")


def differences(a: dict, b: dict) -> list[str]:
    flags = [f"machine {k}: {a['machine'].get(k)!r} != {b['machine'].get(k)!r}"
             for k in MACHINE_KEYS if a["machine"].get(k) != b["machine"].get(k)]
    flags += [f"{k}: {a.get(k)!r} != {b.get(k)!r}" for k in RUN_KEYS if a.get(k) != b.get(k)]
    return flags


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    for flag in differences(a, b):
        print(f"WARNING: not comparable, {flag}")
    for name, m in a["metrics"].items():
        if name not in b["metrics"]:
            print(f"{name:<40} {m['value']:>14.6g} {'absent':>14}")
            continue
        va, vb = m["value"], b["metrics"][name]["value"]
        change = f"{100.0 * (vb - va) / va:+.1f}%" if va else "-"
        print(f"{name:<40} {va:>14.6g} {vb:>14.6g} {change:>8} {m['unit']}")
    for name in b["metrics"].keys() - a["metrics"].keys():
        print(f"{name:<40} {'absent':>14} {b['metrics'][name]['value']:>14.6g}")
    for label, r in (("before", a), ("after", b)):
        if not r["correct"]:
            print(f"WARNING: {label} failed {r['failed']}/{r['attempted']} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
