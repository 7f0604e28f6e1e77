"""Digest every output of a fixed-seed run of all tailcal subcommands.

Run from anywhere:

    python3 tools/output_digests.py [--work DIR]

It runs a small chain of ``python -m tailcal`` processes against the
``src/`` tree next to this script: gen-data (2- and 10-class), stage-1
linear and MLP training, the same linear training with ``--batch-size 2000``
(``s1full``: the full batch of d2's 1 960 + 40 training rows named, so its
``model.json`` and ``loss_trace.json`` print the digests of ``s1``'s), linear
training with a cosine schedule, stage-2 CL
and FT of the linear model, stage-2 CL of the 10-class MLP and of a 2-class
one (whose new head is a two-class linear model), full-batch linear training
on the 10-class data and a stage-2 FT from it (the linear softmax step, which
two-class linear models skip for their log-odds step), estimate-prior with all four
estimators and with a counts-file target prior, adjust with all four methods,
eval by both input routes, sweep-alpha, toy-experiment with its default
worker count, with ``--workers 1`` and with ``--workers 3`` (three parts, so
on two CPUs more processes than CPUs and an uneven split), shift-eval and ingest-logits with a
train-side dump; one gen-data run reads ``cfg.json`` and one train run
``train_cfg.json``. One train and two
ingest-logits runs read a dataset and logit dumps of 700 rows, more than two
of the reader's 256-line blocks, with blank lines on block boundaries: CRLF
line endings in ``crlf_data.csv`` and ``crlf_dump.csv``, lone CRs in
``cr_dump.csv``. The first block of ``crlf_data.csv`` holds a whitespace-only
line and a ``1_0`` cell, which ``np.loadtxt`` rejects, so the reader parses
that block line by line. Two runs write files of more than the 100 000
values (``dataset.CSV_SPLIT_CELLS``) from which a write is split in two
across two CPUs, with odd row counts: gen-data ``dbig`` (train 7 001 x 16
and test 7 005 x 16 values; val stays below) and ingest-logits
``big_ingest`` (5 041 adjusted rows of 20 logits), which reads
``big_dump.csv`` and folds the train-side ``big_train_dump.csv`` in a
forked child. On a machine with one usable CPU both stay in one process.
The script writes these inputs first. It then prints one
``sha256  path`` line per output file, per command's stdout and per
``--help`` text (``tailcal`` and each subcommand), sorted, except
``manifest.json``; each manifest
contributes its ``config``, ``inputs`` and ``outputs`` objects instead,
because its wall clock and timestamp differ between runs. A command whose
stderr holds a ``notice:`` line or a warning adds one ``sha256
<out>/<stderr>`` line, the digest of those lines in their order, each
warning as its category and message only (see DIVERGED below). It also runs a
fixed list of command lines that a check refuses (``REFUSED``: per command,
one case of each kind of check it makes on its flags, none asking for a large
size or many workers, two counts files that do not fit the scores: a
``--target-prior`` and, with the target left to its default, a ``--counts``,
and an ``--alpha`` or ``--grid`` entry of 1e308, whose product with the log
of d2's prior overflows, for ``adjust``, ``sweep-alpha`` and ``train --loss
la``) and
prints one ``sha256  <refused>/<case> exit <code>`` line per case, the digest
of its stderr, so a changed message shows. One run diverges
(``DIVERGED``: two-class ``train --lr 1e308`` on d2, which stops at its
second step) and prints one ``sha256  <diverged>/train-lr-1e308 exit <code>`` line,
the digest of its last ``error:`` line and its warnings' categories and
messages, sorted, without the file and line that each warning names, as
those move with any edit of the code. The three
toy-experiment runs print the same digests; their manifests differ only in
``workers``, the flag as given, and ``processes``, the count of trial
processes used, which is at most the usable CPUs of the machine. A manifest's
``config`` is the command's whole resolved option table, the seed included,
and the values the command worked out itself, so a row added to a table, or
a changed default, moves the manifest lines of that command. A flag declared
in another place moves the ``<help>`` line of its command and the
``<refused>/<command>-kind`` line, whose stderr starts with the usage;
``--seed``, for one, is a row of each seeded command's table (``gen-data``,
``train``, ``toy-experiment``, ``shift-eval``, ``ingest-logits``), so a
usage lists it after the table's other flags (in ``toy-experiment``, before
the ``--workers`` that its table adds to the toy's own rows).

Every CSV that tailcal writes has a binary twin ``<name>.npy`` beside it,
which gets a digest line like any output. The script then loads each twin
and checks that it holds what parsing its CSV returns: the values, labels
and ids bit for bit, and a digest that binds them to the CSV, which the
script computes itself. That digest is the SHA-256 of the CSV's SHA-256
digest followed, per array, by a line ``<dtype> <shape> <C or F>`` and the
array's bytes in C order.

Two trees produce the same outputs when this script prints the same text
for both. Paths are relative to the work directory, which defaults to a
fresh temporary one. Exits 1 if any command fails or a twin does not hold
its CSV's parse, which it then names on stderr.

When outputs are meant to move by rounding only, compare them value by
value instead. Run each tree's copy of this script with its own ``--work``
directory, then

    python3 tools/output_digests.py --compare WORK_A WORK_B

prints, per output file, the largest relative difference |a - b| / max(|a|,
|b|) between the numbers at the same place in the two files: ``0`` where
every number has the same value. The text between the numbers must match;
a file where it does not, or that only one directory holds, prints
``differs`` or ``missing``, and the script then exits 1. ``manifest.json``
files are skipped: their input digests follow from the files compared, and
their wall clock differs between runs. Twins are compared by their arrays:
the largest relative difference between their values, and ``differs`` when
their labels, ids or shapes differ. Their digests are skipped, as each
follows from its CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = "7"
CONFIG = {"counts": [450, 50], "val_per_class": 20, "test_per_class": 30, "seed": 7}
TRAIN_CONFIG = {"lr": 1, "iterations": 40, "batch_size": 500, "schedule": "cosine", "seed": 3}
SUBCOMMANDS = ("gen-data", "train", "estimate-prior", "adjust", "eval", "toy-experiment",
               "shift-eval", "ingest-logits", "sweep-alpha")
CRLF_CLASSES = 3
CRLF_ROWS = 700
# Empty lines at these 1-based line numbers of the files: the last line of
# the first 256-line block after the header and the first line of the third.
BOUNDARY_BLANKS = (257, 514)


def write_crlf_inputs(work: Path) -> None:
    """Write crlf_data.csv, crlf_dump.csv (CRLF line endings), cr_dump.csv
    (the dump's lines ended by lone CRs) and cr_counts.json: an empty line
    after every 40th row, on two block boundaries and at the end, signed
    zeros and subnormals; in the data's first block, a ``1_0`` cell at line 6
    and a whitespace-only line at line 10."""
    rng = random.Random(int(SEED))
    data, dump = ["f0,f1,label"], ["id,logit_0,logit_1,logit_2,label"]
    for i in range(CRLF_ROWS):
        label = 0 if i % 5 else 1
        cells = [rng.gauss(1.0 - 2.0 * label, 1.0) for _ in range(2)]
        data.append(",".join(map(repr, cells)) + f",{label}")
        label = i % CRLF_CLASSES
        logits = [rng.gauss(0.0, 1.0) + 2.0 * (j == label) - 0.5 * j for j in range(CRLF_CLASSES)]
        logits[(label + 1) % CRLF_CLASSES] = (-0.0, 0.0, 5e-324, -5e-324)[i % 4]
        dump.append(f"img-{i:03d}.png," + ",".join(map(repr, logits)) + f",{label}")
        if i % 40 == 39:
            data.append("")
            dump.append("")
    data[5] = "1_0," + data[5].split(",", 1)[1]
    data.insert(9, " \t")
    for lineno in BOUNDARY_BLANKS:
        data.insert(lineno - 1, "")
        dump.insert(lineno - 1, "")
    for name, lines, end in (("crlf_data.csv", data, "\r\n"), ("crlf_dump.csv", dump, "\r\n"),
                             ("cr_dump.csv", dump, "\r")):
        (work / name).write_bytes((end.join(lines) + end + end).encode("utf-8"))
    counts = [len(range(j, CRLF_ROWS, CRLF_CLASSES)) for j in range(CRLF_CLASSES)]
    (work / "cr_counts.json").write_text(json.dumps({"counts": counts}) + "\n")


BIG_CLASSES = 20
BIG_ROWS = {"big_dump.csv": 6301, "big_train_dump.csv": 4001}  # 6 301 - 1 260 held out


def write_big_inputs(work: Path) -> None:
    """Write big_dump.csv and big_train_dump.csv, 20-class logit dumps whose
    label column carries a bias, and big_counts.json."""
    rng = random.Random(int(SEED) + 1)
    for name, rows in BIG_ROWS.items():
        lines = ["id," + ",".join(f"logit_{j}" for j in range(BIG_CLASSES)) + ",label"]
        for i in range(rows):
            label = i % BIG_CLASSES
            logits = [rng.gauss(0.0, 2.0) + 3.0 * (j == label) for j in range(BIG_CLASSES)]
            lines.append(f"{name[:-4]}-{i}," + ",".join(map(repr, logits)) + f",{label}")
        (work / name).write_text("\n".join(lines) + "\n")
    counts = [len(range(j, BIG_ROWS["big_train_dump.csv"], BIG_CLASSES))
              for j in range(BIG_CLASSES)]
    (work / "big_counts.json").write_text(json.dumps({"counts": counts}) + "\n")


CHAIN = [
    ["gen-data", "--out", "d2", "--seed", SEED, "--counts", "1960,40",
     "--val-per-class", "200", "--test-per-class", "300"],
    ["gen-data", "--out", "d10", "--seed", SEED, "--classes", "10", "--dims", "4",
     "--max-count", "300", "--imbalance", "10", "--val-per-class", "30",
     "--test-per-class", "30"],
    ["gen-data", "--config", "cfg.json", "--out", "dcfg", "--test-per-class", "40"],
    ["train", "--data", "d2/train.csv", "--out", "s1", "--seed", SEED],
    ["train", "--data", "d2/train.csv", "--out", "s1full", "--seed", SEED,
     "--batch-size", "2000"],
    ["train", "--data", "d10/train.csv", "--out", "m10", "--seed", SEED, "--arch", "mlp",
     "--hidden", "8", "--lr", "0.5", "--iterations", "30", "--batch-size", "256"],
    ["train", "--data", "d10/train.csv", "--out", "m10cl", "--seed", SEED, "--stage", "2",
     "--mode", "CL", "--init", "m10/model.json", "--lr", "0.5", "--iterations", "30",
     "--batch-size", "256"],
    ["train", "--data", "d2/train.csv", "--out", "m2", "--seed", SEED, "--arch", "mlp",
     "--hidden", "8", "--lr", "0.5", "--iterations", "30", "--batch-size", "256"],
    ["train", "--data", "d2/train.csv", "--out", "m2cl", "--seed", SEED, "--stage", "2",
     "--mode", "CL", "--init", "m2/model.json", "--lr", "0.5", "--iterations", "30",
     "--batch-size", "256"],
    ["train", "--data", "d10/train.csv", "--out", "l10", "--seed", SEED, "--lr", "0.5",
     "--iterations", "30"],
    ["train", "--data", "d10/train.csv", "--out", "l10ft", "--seed", SEED, "--stage", "2",
     "--mode", "FT", "--init", "l10/model.json", "--lr", "0.5", "--iterations", "30"],
    ["train", "--data", "d2/train.csv", "--out", "s1cos", "--seed", SEED, "--schedule", "cosine"],
    ["train", "--config", "train_cfg.json", "--data", "d2/train.csv", "--out", "s1cfg",
     "--iterations", "30"],
    ["train", "--data", "d2/train.csv", "--out", "s2cl", "--seed", SEED, "--stage", "2",
     "--mode", "CL", "--init", "s1/model.json"],
    ["train", "--data", "d2/train.csv", "--out", "s2ft", "--seed", SEED, "--stage", "2",
     "--mode", "FT", "--init", "s1/model.json"],
    ["estimate-prior", "--model", "s1/model.json", "--data", "d2/train.csv",
     "--estimator", "train", "--out", "est_train"],
    ["estimate-prior", "--model", "s1/model.json", "--data", "d2/val.csv",
     "--estimator", "val", "--out", "est_val"],
    ["estimate-prior", "--model", "s2ft/model.json", "--data", "d2/train.csv",
     "--estimator", "train-reweighted", "--target-prior", "uniform", "--out", "est_rw"],
    ["estimate-prior", "--model", "s2ft/model.json", "--data", "d2/train.csv",
     "--estimator", "train-reweighted", "--target-prior", "d2/counts.json",
     "--out", "est_counts"],
    ["estimate-prior", "--model", "s2ft/model.json", "--data", "d2/val.csv",
     "--train-data", "d2/train.csv", "--estimator", "averaged", "--out", "est_avg"],
    ["adjust", "--model", "s1/model.json", "--data", "d2/test.csv", "--method", "none",
     "--out", "adj_none"],
    ["adjust", "--model", "s1/model.json", "--data", "d2/train.csv", "--method", "none",
     "--out", "adj_train"],
    ["adjust", "--logits", "adj_none/adjusted_logits.csv", "--method", "class-frequency",
     "--counts", "d2/counts.json", "--target-prior", "uniform", "--out", "adj_cf"],
    ["adjust", "--model", "s1/model.json", "--data", "d2/test.csv", "--method", "p2p-ce",
     "--prior", "est_train/prior.json", "--target-prior", "uniform", "--out", "adj_ce"],
    ["adjust", "--model", "s2ft/model.json", "--data", "d2/test.csv", "--method", "p2p-la",
     "--prior", "est_avg/prior.json", "--target-prior", "[0.5, 0.5]", "--out", "adj_la"],
    ["eval", "--logits", "adj_ce/adjusted_logits.csv", "--train-counts", "d2/counts.json",
     "--out", "ev_logits"],
    ["eval", "--model", "m10/model.json", "--data", "d10/test.csv",
     "--train-counts", "d10/counts.json", "--groups", "200,50", "--out", "ev_model"],
    ["sweep-alpha", "--prior", "est_train/prior.json", "--logits",
     "adj_none/adjusted_logits.csv", "--grid", "0,0.5,1,1.5", "--out", "sweep"],
    ["adjust", "--logits", "adj_none/adjusted_logits.csv", "--method", "p2p-ce",
     "--prior", "est_train/prior.json", "--alpha-from-sweep", "sweep/chosen_alpha.json",
     "--out", "adj_sweep"],
    ["toy-experiment", "--trials", "3", "--samples", "2000", "--test-samples", "2000",
     "--seed", SEED, "--out", "toy"],
    ["toy-experiment", "--trials", "3", "--samples", "2000", "--test-samples", "2000",
     "--seed", SEED, "--workers", "1", "--out", "toy_w1"],
    ["toy-experiment", "--trials", "3", "--samples", "2000", "--test-samples", "2000",
     "--seed", SEED, "--workers", "3", "--out", "toy_w3"],
    ["shift-eval", "--model", "s2ft/model.json", "--train-data", "d2/train.csv",
     "--ratios", "5", "--trials", "2", "--test-samples", "1000", "--seed", SEED,
     "--out", "shift"],
    ["ingest-logits", "--logits", "adj_none/adjusted_logits.csv",
     "--train-logits", "adj_train/adjusted_logits.csv", "--counts", "d2/counts.json",
     "--seed", SEED, "--out", "ingest"],
    ["train", "--data", "crlf_data.csv", "--out", "crlf_s1", "--seed", SEED],
    ["ingest-logits", "--logits", "crlf_dump.csv", "--seed", SEED, "--out", "crlf_ingest"],
    ["ingest-logits", "--logits", "cr_dump.csv", "--train-logits", "crlf_dump.csv",
     "--counts", "cr_counts.json", "--seed", SEED, "--out", "cr_ingest"],
    ["gen-data", "--out", "dbig", "--seed", SEED, "--classes", "3", "--dims", "16",
     "--counts", "4001,2000,1000", "--val-per-class", "11", "--test-per-class", "2335"],
    ["ingest-logits", "--logits", "big_dump.csv", "--train-logits", "big_train_dump.csv",
     "--counts", "big_counts.json", "--seed", SEED, "--out", "big_ingest"],
]


# Each case but the last five names files that do not exist: its check runs before any
# input is read. The last five read files of the chain: two read a 2-class dump and a
# 10-class counts file, and three an alpha that overflows the correction of d2's prior.
SCORES = ["--logits", "absent.csv"]
SHIFT = ["shift-eval", "--model", "absent.json", "--train-data", "absent.csv"]
REFUSED = {
    "gen-data-kind": ["gen-data", "--classes", "x"],
    "gen-data-bound": ["gen-data", "--classes", "1"],
    "gen-data-empty-list": ["gen-data", "--counts", ","],
    "gen-data-counts-length": ["gen-data", "--counts", "5,6,7"],
    "gen-data-config-key": ["gen-data", "--config", "refused_gen.json"],
    "gen-data-config-means": ["gen-data", "--config", "refused_means.json"],
    "gen-data-config-sigmas": ["gen-data", "--config", "refused_sigmas.json"],
    "train-kind": ["train", "--data", "absent.csv", "--iterations", "x"],
    "train-bound": ["train", "--data", "absent.csv", "--alpha", "-1"],
    "train-strict-bound": ["train", "--data", "absent.csv", "--lr", "0"],
    "train-requirement": ["train", "--data", "absent.csv", "--stage", "2"],
    "train-config-key": ["train", "--data", "absent.csv", "--config", "refused_train.json"],
    "train-config-unknown-key": ["train", "--data", "absent.csv", "--config",
                                 "refused_unknown.json"],
    "estimate-prior-kind": ["estimate-prior", "--model", "absent.json", "--data", "absent.csv",
                            "--estimator", "mean"],
    "estimate-prior-requirement": ["estimate-prior", "--model", "absent.json", "--data",
                                   "absent.csv", "--estimator", "averaged"],
    "adjust-kind": ["adjust", *SCORES, "--method", "p2p-ce", "--prior", "absent.json",
                    "--alpha", "x"],
    "adjust-bound": ["adjust", *SCORES, "--method", "p2p-ce", "--prior", "absent.json",
                     "--alpha=-1"],
    "adjust-requirement": ["adjust", *SCORES, "--method", "p2p-ce"],
    "eval-kind": ["eval", *SCORES, "--groups", "x"],
    "eval-requirement": ["eval", "--model", "absent.json"],
    "toy-experiment-kind": ["toy-experiment", "--trials", "x"],
    "toy-experiment-bound": ["toy-experiment", "--trials", "0"],
    "toy-experiment-strict-bound": ["toy-experiment", "--lr", "0"],
    "toy-experiment-iterations": ["toy-experiment", "--iterations", "0"],
    "toy-experiment-batch-size": ["toy-experiment", "--samples", "100", "--batch-size", "500"],
    "shift-eval-kind": [*SHIFT, "--ratios", "x"],
    "shift-eval-bound": [*SHIFT, "--ratios", "0.5"],
    "shift-eval-empty-list": [*SHIFT, "--directions", ","],
    "ingest-logits-kind": ["ingest-logits", *SCORES, "--split", "x"],
    "ingest-logits-bound": ["ingest-logits", *SCORES, "--grid=-1"],
    "ingest-logits-strict-bound": ["ingest-logits", *SCORES, "--split", "1"],
    "ingest-logits-empty-list": ["ingest-logits", *SCORES, "--grid", ","],
    "ingest-logits-requirement": ["ingest-logits", *SCORES, "--train-logits", "absent.csv"],
    "sweep-alpha-kind": ["sweep-alpha", "--prior", "absent.json", *SCORES, "--grid", "x"],
    "sweep-alpha-bound": ["sweep-alpha", "--prior", "absent.json", *SCORES, "--grid=-1"],
    "sweep-alpha-empty-list": ["sweep-alpha", "--prior", "absent.json", *SCORES, "--grid", ","],
    "sweep-alpha-requirement": ["sweep-alpha", "--prior", "absent.json"],
    "eval-target-prior-classes": ["eval", "--logits", "adj_none/adjusted_logits.csv",
                                  "--target-prior", "d10/counts.json"],
    "adjust-counts-classes": ["adjust", "--logits", "adj_none/adjusted_logits.csv", "--method",
                              "class-frequency", "--counts", "d10/counts.json"],
    "adjust-alpha-overflow": ["adjust", "--logits", "adj_none/adjusted_logits.csv", "--method",
                              "p2p-ce", "--prior", "est_train/prior.json", "--alpha", "1e308"],
    "sweep-alpha-grid-overflow": ["sweep-alpha", "--prior", "est_train/prior.json", "--logits",
                                  "adj_none/adjusted_logits.csv", "--grid", "1,1e308"],
    "train-alpha-overflow": ["train", "--data", "d2/train.csv", "--loss", "la", "--alpha",
                             "1e308"],
}
REFUSED_CONFIGS = {"refused_gen.json": {"classes": 1}, "refused_means.json": {"means": [[0, 0]]},
                   "refused_sigmas.json": {"sigmas": [1, -1]}, "refused_train.json": {"lr": 0},
                   "refused_unknown.json": {"learning_rate": 0.001}}


def run_refused(work: Path, env: dict) -> list[str]:
    """One ``sha256  <refused>/<case> exit <code>`` line per REFUSED case;
    the config files the cases read are removed again."""
    for name, config in REFUSED_CONFIGS.items():
        (work / name).write_text(json.dumps(config) + "\n")
    lines = []
    for case, argv in REFUSED.items():
        proc = subprocess.run([sys.executable, "-m", "tailcal", *argv, "--out", "refused"],
                              cwd=work, env=env, capture_output=True)
        lines.append(f"{hashlib.sha256(proc.stderr).hexdigest()}  <refused>/{case} "
                     f"exit {proc.returncode}")
    for name in REFUSED_CONFIGS:
        (work / name).unlink()
    return lines


DIVERGED = ["train", "--data", "d2/train.csv", "--seed", SEED, "--lr", "1e308", "--out", "diverged"]
WARNING = re.compile(r"^.*:\d+: (\w+Warning: .*)$")  # "<file>:<line>: <category>: <message>"


def kept_stderr(stderr: str) -> list[str]:
    """The ``notice:`` lines of ``stderr`` and its warnings' categories and
    messages, in their order."""
    kept = []
    for line in stderr.splitlines():
        if line.startswith("notice:"):
            kept.append(line)
        elif m := WARNING.match(line):
            kept.append(m.group(1))
    return kept


def run_diverged(work: Path, env: dict) -> str:
    """The ``sha256  <diverged>/train-lr-1e308 exit <code>`` line of DIVERGED."""
    proc = subprocess.run([sys.executable, "-m", "tailcal", *DIVERGED], cwd=work, env=env,
                          capture_output=True, text=True)
    stderr = proc.stderr.splitlines()
    errors = [line for line in stderr if line.startswith("error:")]
    warned = sorted(kept_stderr(proc.stderr))  # train prints no notice
    digest = hashlib.sha256("".join(f"{line}\n" for line in errors[-1:] + warned).encode())
    return f"{digest.hexdigest()}  <diverged>/train-lr-1e308 exit {proc.returncode}"


def run_chain(work: Path) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("TAILCAL_SEED", None)
    lines = []
    (work / "cfg.json").write_text(json.dumps(CONFIG) + "\n")
    (work / "train_cfg.json").write_text(json.dumps(TRAIN_CONFIG) + "\n")
    write_crlf_inputs(work)
    write_big_inputs(work)
    for argv in CHAIN:
        proc = subprocess.run(
            [sys.executable, "-m", "tailcal", *argv],
            cwd=work, env=env, capture_output=True,
        )
        out = argv[argv.index("--out") + 1]
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise SystemExit(f"tailcal {' '.join(argv)}: exit {proc.returncode}")
        lines.append(f"{hashlib.sha256(proc.stdout).hexdigest()}  {out}/<stdout>")
        if kept := kept_stderr(proc.stderr.decode()):
            digest = hashlib.sha256("".join(f"{line}\n" for line in kept).encode())
            lines.append(f"{digest.hexdigest()}  {out}/<stderr>")
    lines += run_refused(work, env)
    lines.append(run_diverged(work, env))
    for command in ("", *SUBCOMMANDS):
        argv = [sys.executable, "-m", "tailcal", *command.split(), "--help"]
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, check=True)
        lines.append(f"{hashlib.sha256(proc.stdout).hexdigest()}  <help>/{command or 'tailcal'}")
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = path.relative_to(work).as_posix()
        if path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            kept = {k: manifest[k] for k in ("config", "inputs", "outputs")}
            lines.append(f"{rel}  {json.dumps(kept, sort_keys=True)}")
        else:
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel}")
    return sorted(lines)


def load_twin(path: Path) -> list:
    """The arrays of a twin: its digest, values, labels and, for a logit
    dump, ids."""
    arrays = []
    with path.open("rb") as raw:
        while raw.peek(1):
            arrays.append(np.load(raw, allow_pickle=False))
    return arrays


def binding(csv: Path, arrays) -> bytes:
    """The digest that binds a twin's arrays to the CSV at ``csv``."""
    digest = hashlib.sha256(hashlib.sha256(csv.read_bytes()).digest())
    for array in arrays:
        order = "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"
        digest.update(f"{array.dtype.str} {array.shape} {order}\n".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.digest()


def check_twins(work: Path) -> list[str]:
    """One line per twin under ``work`` that does not hold the parse of its
    CSV, which tailcal's streamed reader (it reads no twin) makes."""
    sys.path.insert(0, str(SRC))
    from tailcal.dataset import _csv_blocks

    problems = []
    for twin in sorted(work.rglob("*.csv.npy")):
        csv = twin.with_suffix("")
        digest, values, labels, *ids = load_twin(twin)
        blocks = list(_csv_blocks(csv, lambda names: (names[0] == "id", None)))
        parsed = [np.concatenate([block[k] for block in blocks]) for k in (1, 2)]
        parsed_ids = [i for block in blocks for i in block[0]]  # none in a dataset
        held = (digest.tobytes() == binding(csv, [values, labels, *ids])
                and all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                        for a, b in zip((values, labels), parsed))
                and [i.tolist() for i in ids] == ([parsed_ids] if parsed_ids else []))
        if not held:
            problems.append(f"{twin.relative_to(work).as_posix()}: not the parse of its CSV")
    return problems


NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?")


def largest_relative_difference(a: str, b: str) -> float | None:
    """The largest relative difference between the numbers of two texts, or
    None when the text between them differs."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if parts_a != parts_b:
        return None
    largest = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x != y:
            largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return largest


def twin_difference(a: Path, b: Path) -> float | None:
    """The largest relative difference between the values of two twins, or
    None when their labels, ids or shapes differ."""
    (_, values_a, *rest_a), (_, values_b, *rest_b) = load_twin(a), load_twin(b)
    if values_a.shape != values_b.shape or len(rest_a) != len(rest_b) or not all(
            x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(rest_a, rest_b)):
        return None
    differ = values_a != values_b
    if not differ.any():
        return 0.0
    x, y = values_a[differ], values_b[differ]
    return float((np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))).max())


def compare(work_a: Path, work_b: Path) -> int:
    """Print one line per output file of either directory; 1 if any differs
    in its text or is missing from one, else 0."""
    def files(work: Path) -> set[str]:
        return {p.relative_to(work).as_posix() for p in work.rglob("*")
                if p.is_file() and p.name != "manifest.json"}

    status = 0
    for rel in sorted(files(work_a) | files(work_b)):
        a, b = work_a / rel, work_b / rel
        if not (a.is_file() and b.is_file()):
            verdict = "missing"
        else:
            diff = (twin_difference(a, b) if rel.endswith(".npy") else
                    largest_relative_difference(a.read_text(), b.read_text()))
            verdict = "differs" if diff is None else f"{diff:.3g}"
        status |= verdict in ("missing", "differs")
        print(f"{verdict}  {rel}")
    return status


def report(work: Path) -> int:
    """Print the digest lines of a run in ``work``; 1 if a twin fails its
    check, which goes to stderr, else 0."""
    print("\n".join(run_chain(work)))
    problems = check_twins(work)
    sys.stderr.write("".join(line + "\n" for line in problems))
    return 1 if problems else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", help="empty or new directory for the run outputs")
    parser.add_argument("--compare", nargs=2, metavar=("WORK_A", "WORK_B"),
                        help="compare two work directories value by value")
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(compare(*map(Path, args.compare)))
    if args.work:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        raise SystemExit(report(work))
    with tempfile.TemporaryDirectory() as tmp:
        status = report(Path(tmp))
    raise SystemExit(status)


if __name__ == "__main__":
    main()
