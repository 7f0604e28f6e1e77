"""Alternating benchmark runs of two trees, and whether a claimed gain holds.

Run from anywhere:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload toy \\
        [--pairs 10] [--seconds 35] [--seed N]

Each pair runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0`` once in each tree, from that tree's root: the parent first in
odd pairs (1, 3, ...), the change first in even ones. Both trees run their
own copy of the benchmark, so give them the same ``perfbench/``.

For every end-to-end metric that ``CHANGE_TREE/BENCHMARK.json`` declares it
prints each side's median and quartiles, the pairs the change won (a tie
counts for neither side, a run without a result as a loss) and whether the
gain rule holds: the change wins at least nine tenths of the pairs run, and
its median beats the parent's by more than the distance between the
parent's quartiles. It prints every run whose operations failed a gate or
that gave no result, and exits 1 if there was one.

It refuses (exit 2) a tree that holds ``src/tailcal/__pycache__``: a start
that finds that bytecode skips compiling the package, so the two trees
would not start alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # the least share of pairs the change must win


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict | None, dict | None]], better: dict[str, str]) -> dict:
    """Per metric, both sides' quartiles, the change's wins and the gain rule.

    ``pairs`` holds one ``(parent, change)`` tuple per pair run, each side a
    ``{metric: value}`` dict or None for a run that gave no result, and
    ``better`` maps each metric to "higher" or "lower".
    """
    summary = {}
    for metric, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        sides = {"parent": [], "change": []}
        wins = 0
        for parent, change in pairs:
            for side, result in (("parent", parent), ("change", change)):
                if result is not None:
                    sides[side].append(result[metric])
            if parent is not None and change is not None:
                wins += int(sign * (change[metric] - parent[metric]) > 0)
        row = {side: quartiles(v) for side, v in sides.items() if v}
        holds = False
        if len(row) == 2:
            (p_q1, p_median, p_q3), (_, c_median, _) = row["parent"], row["change"]
            holds = wins >= WIN_SHARE * len(pairs) and sign * (c_median - p_median) > p_q3 - p_q1
        summary[metric] = dict(row, wins=wins, pairs=len(pairs), holds=holds)
    return summary


def run_once(tree: Path, args) -> tuple[dict | None, list[str]]:
    """One benchmark run in ``tree``: its metric values, or None, and the
    lines that report a failed gate or a failed run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    problems = [line.strip() for line in lines if line.strip().startswith("FAIL ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, problems + [f"no result (exit {proc.returncode}): {tail}"]
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} commands failed")
    return {name: m["value"] for name, m in result["metrics"].items()}, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_TREE")
    parser.add_argument("change", type=Path, metavar="CHANGE_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for tree in (args.parent, args.change):
        cache = tree / "src" / "tailcal" / "__pycache__"
        if cache.exists():
            parser.error(f"{cache} holds bytecode, which the other tree may lack; remove it")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in declared}

    pairs, failures = [], []
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        results = {}
        for side in order:
            results[side], problems = run_once(getattr(args, side), args)
            failures += [f"pair {i} {side}: {p}" for p in problems]
            shown = results[side] or {}
            print(f"pair {i} {side}: " + ", ".join(f"{k} {shown[k]:.6g}" for k in better
                                                    if k in shown), flush=True)
        pairs.append((results["parent"], results["change"]))

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s at seed {args.seed}, "
          "parent first in odd pairs")
    print(f"{'metric':<12} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'wins':>7}  gain rule")
    for metric, row in summarize(pairs, better).items():
        cells = [f"{row[s][1]:.4g} [{row[s][0]:.4g}, {row[s][2]:.4g}]" if s in row else "-"
                 for s in ("parent", "change")]
        print(f"{metric:<12} {cells[0]:>30} {cells[1]:>30} {row['wins']:>3}/{row['pairs']:<3}"
              f"  {'holds' if row['holds'] else 'does not hold'}")
    print("\n".join(failures) if failures else "gates: every run passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
