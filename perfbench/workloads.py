"""The benchmark's workloads: CLI argv lists and the inputs they read.

One operation of a workload is a fixed list of ``tailcal`` commands, run in
order from a fresh, empty working directory. Every command writes into its
own fresh ``--out`` directory there. Inputs are made from the benchmark seed
with numpy alone, outside the timed region: this module imports nothing from
``tailcal``, so the program under test never makes its own benchmark inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Fixed seed of the small reference operations whose outputs were recorded
# in reference.json.
REFERENCE_SEED = 20260808

TOY_TRIALS = 10


@dataclass(frozen=True)
class Operation:
    commands: tuple[tuple[str, ...], ...]  # argv lists, program name excluded
    outs: tuple[str, ...]  # the --out directory of each command
    units: float  # work items per operation: trials, commands or dump rows
    quality: tuple[str, str]  # (output file, JSON key) of the result's quality


def _outs(commands) -> tuple[str, ...]:
    return tuple(argv[argv.index("--out") + 1] for argv in commands)


def toy(seed: int, trials: int = TOY_TRIALS) -> Operation:
    commands = (("toy-experiment", "--trials", str(trials), "--seed", str(seed), "--out", "toy"),)
    return Operation(commands, _outs(commands), trials, ("toy/summary.json", "variants.p2p.balanced_mean"))


def pipeline(seed: int, max_count: int = 5000, val: int = 500, test: int = 2000) -> Operation:
    """The README chain on a CIFAR-10-LT-shaped split (12 408 train rows)."""
    s = str(seed)
    commands = (
        ("gen-data", "--classes", "10", "--dims", "32", "--max-count", str(max_count),
         "--imbalance", "100", "--val-per-class", str(val), "--test-per-class", str(test),
         "--seed", s, "--out", "data"),
        ("train", "--data", "data/train.csv", "--seed", s, "--out", "s1"),
        ("train", "--data", "data/train.csv", "--stage", "2", "--mode", "FT",
         "--init", "s1/model.json", "--seed", s, "--out", "s2"),
        ("estimate-prior", "--model", "s1/model.json", "--data", "data/train.csv",
         "--estimator", "train", "--out", "est"),
        ("estimate-prior", "--model", "s2/model.json", "--data", "data/val.csv",
         "--train-data", "data/train.csv", "--estimator", "averaged", "--out", "est2"),
        ("adjust", "--model", "s1/model.json", "--data", "data/test.csv",
         "--method", "p2p-ce", "--prior", "est/prior.json", "--out", "adj"),
        ("eval", "--logits", "adj/adjusted_logits.csv", "--train-counts", "data/counts.json",
         "--out", "report"),
        ("sweep-alpha", "--prior", "est/prior.json", "--model", "s1/model.json",
         "--data", "data/val.csv", "--out", "sweep"),
    )
    return Operation(commands, _outs(commands), len(commands), ("report/report.json", "balanced_accuracy"))


# The external dump: CIFAR-100-LT train counts, balanced eval rows, and
# logits that carry a known absorbed log-prior bias.
INGEST_FULL = {"classes": 100, "eval_per_class": 100, "max_count": 500}
INGEST_SIGNAL = 3.0  # logit margin of the true class before the bias
INGEST_BIAS = 1.0  # weight of log(train prior) absorbed into every row


def ingest_counts(classes: int, max_count: int, imbalance: float = 100.0) -> np.ndarray:
    i = np.arange(classes, dtype=np.float64)
    return np.floor(max_count * imbalance ** (-i / (classes - 1))).astype(np.int64)


def write_logit_dump(path: Path, labels: np.ndarray, logits: np.ndarray) -> None:
    """Write ``id,logit_0,...,logit_{C-1},label`` with numpy, not tailcal."""
    n, c = logits.shape
    table = np.column_stack([np.arange(n), logits, labels])
    header = "id," + ",".join(f"logit_{j}" for j in range(c)) + ",label"
    np.savetxt(path, table, fmt=["%d"] + ["%.17g"] * c + ["%d"], delimiter=",",
               header=header, comments="")


def write_ingest_inputs(directory: Path, seed: int, classes: int, eval_per_class: int,
                        max_count: int) -> int:
    """Write eval_logits.csv, train_logits.csv and counts.json; return the
    number of dump rows."""
    rng = np.random.default_rng([seed, 100])
    counts = ingest_counts(classes, max_count)
    log_prior = np.log(counts / counts.sum())
    rows = 0
    for name, per_class in (("eval", np.full(classes, eval_per_class)), ("train", counts)):
        labels = rng.permutation(np.repeat(np.arange(classes), per_class))
        logits = rng.normal(size=(labels.size, classes)) + INGEST_BIAS * log_prior
        logits[np.arange(labels.size), labels] += INGEST_SIGNAL
        write_logit_dump(directory / f"{name}_logits.csv", labels, logits)
        rows += labels.size
    (directory / "counts.json").write_text(json.dumps({"counts": counts.tolist()}) + "\n")
    return rows


def ingest(seed: int, inputs: Path, size: dict = INGEST_FULL) -> Operation:
    """Write the dump under ``inputs`` (a sibling of the operation's working
    directory) and return the ingest-logits operation that reads it."""
    inputs.mkdir(parents=True, exist_ok=True)
    rows = write_ingest_inputs(inputs, seed, **size)
    rel = f"../{inputs.name}"
    commands = (
        ("ingest-logits", "--logits", f"{rel}/eval_logits.csv",
         "--train-logits", f"{rel}/train_logits.csv", "--counts", f"{rel}/counts.json",
         "--seed", str(seed), "--out", "ingest"),
    )
    return Operation(commands, _outs(commands), rows, ("ingest/ingest_report.json", "top1_after"))


WORKLOADS = ("toy", "pipeline", "ingest")


def operation(name: str, seed: int, inputs: Path) -> Operation:
    """The timed operation of a workload."""
    if name == "toy":
        return toy(seed)
    if name == "pipeline":
        return pipeline(seed)
    return ingest(seed, inputs)


def reference_operation(name: str, inputs: Path) -> Operation:
    """A small fixed-seed operation whose outputs are checked against
    reference.json: it catches a changed step count, loss or split."""
    if name == "toy":
        return toy(REFERENCE_SEED, trials=2)
    if name == "pipeline":
        return pipeline(REFERENCE_SEED, max_count=500, val=50, test=100)
    return ingest(REFERENCE_SEED, inputs, {"classes": 20, "eval_per_class": 50, "max_count": 200})
