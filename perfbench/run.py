"""The tailcal benchmark. Run it from the repository root:

    python3 perfbench/run.py --workload toy --seed 1 --seconds 35 --trace 0

Workloads are ``toy``, ``pipeline`` and ``ingest`` (see workloads.py and
README.md). With ``--trace 0`` each operation runs as ``python -m tailcal``
processes, one at a time, and the end-to-end metrics are reported. With
``--trace 1`` the same argv runs in one process under the outside-in tracer
and the per-layer metrics are reported. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the machine record, is also saved under
``.perfbench_work/results/``.

``python3 perfbench/run.py --record-reference`` rewrites reference.json
from the current code; do that only when a change of outputs is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gates
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 15  # least interpreter starts per run; setup_s is their median
RUN_LIMIT_S = 170.0  # every process is killed before the run reaches 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
# Figures a workload reports besides the metrics: op.units per second.
RATE_DETAIL = {"toy": "toy_trials_per_s", "pipeline": "pipeline_commands_per_s",
               "ingest": "ingest_rows_per_s"}
LAYER_STATS = ("self_s", "calls", "errors")


class Budget:
    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TAILCAL_SEED", None)  # every seed is passed explicitly
    return env


def run_process(argv, cwd: Path, log: Path, budget: Budget) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall s, max RSS MB).
    A process still running when the budget ends is killed (code -9)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=out)
        killer = threading.Timer(max(budget.left(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def setup_seconds(budget: Budget) -> float:
    """Seconds from launching an interpreter until ``tailcal.cli`` is
    imported. The child reports its monotonic clock, which is shared
    between processes on Linux."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import time, tailcal.cli; print(repr(time.perf_counter()))"],
            env=child_env(), capture_output=True, text=True, timeout=max(budget.left(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError("importing tailcal.cli ran out of time") from exc
    if done.returncode != 0:
        raise RuntimeError(f"importing tailcal.cli failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def run_child(run_dir: Path, commands, prefix: str, seconds: float, min_ops: int,
              trace: bool, budget: Budget, spans: Path | None = None) -> dict:
    """Run operations in-process (see child.py) and return its results."""
    spec = {"commands": [list(c) for c in commands], "run_dir": str(run_dir), "prefix": prefix,
            "seconds": seconds, "min_ops": min_ops, "trace": trace,
            "result": str(run_dir / f"{prefix}-result.json"), "spans": str(spans) if spans else None}
    spec_path = run_dir / f"{prefix}-spec.json"
    spec_path.write_text(json.dumps(spec))
    log = run_dir / f"{prefix}-child.log"
    code, _, _ = run_process([sys.executable, str(HERE / "child.py"), str(spec_path)],
                             run_dir, log, budget)
    if code != 0:
        raise RuntimeError(f"in-process runner exited with {code}: {log.read_text()[-500:]}")
    return json.loads(Path(spec["result"]).read_text())


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def blas_name() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def machine_record(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_before": loadavg(),
        "seed": seed,
    }


class Tally:
    """Operations attempted and failed, counted in CLI invocations."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def record(self, label: str, commands, problems: list[str]) -> None:
        self.attempted += len(commands)
        if problems:
            self.failed += len(commands)
            self.problems += [f"{label}: {p}" for p in problems]

    def replay(self, op_dir: Path, outs) -> list[str]:
        digest = gates.outputs_digest(op_dir, outs)
        if self.digest is None:
            self.digest = digest
        return [] if digest == self.digest else ["outputs differ from the first operation's"]


def run_reference(workload: str, run_dir: Path, budget: Budget):
    """Run the workload's small fixed-seed operation in process; return its
    commands, the values of its JSON outputs and the problems found."""
    ref = workloads.reference_operation(workload, run_dir / "ref_inputs")
    result = run_child(run_dir, ref.commands, "ref", 0.0, 1, False, budget)["ops"][0]
    op_dir = Path(result["dir"])
    problems = gates.check_operation(workload, op_dir, ref.outs, result["codes"], invariants=False)
    values = {} if problems else gates.reference_values(op_dir, ref.outs)
    return ref.commands, values, problems


def check_reference(workload: str, run_dir: Path, tally: Tally, budget: Budget) -> None:
    commands, values, problems = run_reference(workload, run_dir, budget)
    if not problems:
        problems = gates.compare_reference(values, json.loads(REFERENCE.read_text())[workload])
    tally.record("reference", commands, problems)


def untraced(workload: str, op, run_dir: Path, seconds: float, tally: Tally,
             budget: Budget) -> tuple[dict, dict]:
    setups, walls, rss, quality = [], [], [], None
    busy = wall = 0.0
    started = time.perf_counter()
    k = 0
    # start another operation only if it should end within the run
    while (k < 2 or time.perf_counter() - started + wall <= seconds) and budget.left() > 0:
        op_dir = run_dir / f"op{k}"
        op_dir.mkdir()
        codes, wall, peak = [], 0.0, 0.0
        for argv in op.commands:
            setups.append(setup_seconds(budget))  # spread over the run, as the commands are
            code, w, r = run_process([sys.executable, "-m", "tailcal", *argv], op_dir,
                                     op_dir / "log.txt", budget)
            codes.append(code)
            wall, peak = wall + w, max(peak, r)
            if code != 0:
                break
        busy += wall
        codes += [None] * (len(op.commands) - len(codes))  # not run after a failure
        problems = gates.check_operation(workload, op_dir, op.outs, codes)
        if not problems:
            problems = tally.replay(op_dir, op.outs)
            quality = gates.quality(op_dir, op.quality) if quality is None else quality
        tally.record(f"op{k}", op.commands, problems)
        if not problems:
            walls.append(wall)
            rss.append(peak)
        shutil.rmtree(op_dir)
        k += 1
    if not walls:
        raise RuntimeError("no operation succeeded")
    setups += [setup_seconds(budget) for _ in range(SETUP_REPEATS - len(setups))]
    # Throughput over the whole run, not a median of operations: the host
    # flips between a fast and a ~50 % slower state every few seconds, and
    # a median jumps between the two when they are near even, while the
    # run's total moves smoothly with the share of slow time.
    ops_per_s = len(walls) / busy
    metrics = {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s,
               "peak_rss_mb": statistics.median(rss)}
    details = {"operations": len(walls), "op_wall_s_median": statistics.median(walls),
               "op_wall_s_all": walls, "setup_s_all": setups,
               RATE_DETAIL[workload]: op.units * ops_per_s, "quality": quality}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def is_layer_metric(name: str) -> bool:
    parts = name.split(".")
    return len(parts) == 2 and parts[1] in LAYER_STATS


def traced(workload: str, op, run_dir: Path, seconds: float, tally: Tally,
           budget: Budget) -> tuple[dict, dict]:
    spans = WORK / "results" / f"{workload}-spans.json"
    result = run_child(run_dir, op.commands, "op", seconds, 3, True, budget, spans)
    per_op, absent = [], set()
    walls = {True: [], False: []}
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    # the declared layers, and any module a refactor adds
    layers = {tracing.layer_of(n) for n in declared if is_layer_metric(n)}
    layers |= {tracing.layer_of(n) for n in result["functions"]}
    wanted = [n for n in declared if not is_layer_metric(n) and not n.startswith("trace.")]
    for k, record in enumerate(result["ops"]):
        op_dir = Path(record["dir"])
        problems = gates.check_operation(workload, op_dir, op.outs, record["codes"])
        problems = problems or tally.replay(op_dir, op.outs)
        tally.record(f"op{k}", op.commands, problems)
        shutil.rmtree(op_dir)
        if problems:
            continue
        if not record["warmup"]:
            walls[record["traced"]].append(record["wall_s"])
        if record["traced"]:
            metrics, missing = tracing.op_metrics(record["stats"], result["functions"],
                                                  sorted(layers), wanted)
            per_op.append(metrics)
            absent.update(missing)
    if not per_op or not walls[False]:
        raise RuntimeError("no traced and untraced operation pair succeeded")
    metrics = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}
    traced_s, untraced_s = statistics.median(walls[True]), statistics.median(walls[False])
    metrics.update({"trace.overhead_frac": traced_s / untraced_s - 1.0,
                    "trace.traced_s": traced_s, "trace.untraced_s": untraced_s})
    shares = {layer: metrics[f"{layer}.self_s"] / traced_s for layer in sorted(layers)}
    details = {"absent": sorted(absent), "layer_share_of_traced_wall": shares,
               "traced_ops": len(walls[True]), "untraced_ops": len(walls[False])}
    return {k: (v, tracing.unit_of(k)) for k, v in metrics.items()}, details


def record_reference() -> int:
    budget = Budget(RUN_LIMIT_S * 3)
    reference = {}
    for workload in workloads.WORKLOADS:
        run_dir = fresh_dir(WORK / f"reference-{workload}")
        _, reference[workload], problems = run_reference(workload, run_dir, budget)
        shutil.rmtree(run_dir)
        if problems:
            print(f"{workload}: {problems}", file=sys.stderr)
            return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if not (SRC / "tailcal" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: run from the repository root; no src/tailcal under {ROOT}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")

    budget = Budget(RUN_LIMIT_S)
    machine = machine_record(args.seed)
    run_dir = fresh_dir(WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    (WORK / "results").mkdir(exist_ok=True)
    tally = Tally()
    try:
        setup_seconds(budget)  # compiles the package's bytecode; not measured
        op = workloads.operation(args.workload, args.seed, run_dir / "inputs")
        check_reference(args.workload, run_dir, tally, budget)
        measure = traced if args.trace else untraced
        metrics, details = measure(args.workload, op, run_dir, args.seconds, tally, budget)
    except RuntimeError as exc:  # nothing measurable: no result line
        print(f"perfbench: {exc}; problems: {tally.problems}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    machine["loadavg_after"] = loadavg()

    details["failed_frac"] = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    saved = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                 seconds=args.seconds, machine=machine, problems=tally.problems, details=details)
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(saved, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{tally.attempted} commands, {tally.failed} failed")
    for problem in tally.problems:
        print(f"  FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for name, value in details.items():
        if isinstance(value, (int, float)):
            print(f"  ({name:<38} {value:>14.6g})")
    print(f"machine: {json.dumps(machine)}")
    print(f"saved: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
