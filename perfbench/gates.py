"""Correctness gates applied to every benchmark operation.

Three kinds, each of which makes an operation count as failed:

- the invariants every run must satisfy: exit code 0, and every file a
  command's manifest lists exists; plus oracle invariants that do not depend
  on the implementation (toy orderings, ingest improvement);
- replay: within one benchmark invocation, every operation's outputs except
  ``manifest.json`` hash the same as the first operation's;
- reference values: the small fixed-seed reference operation reproduces the
  numbers recorded in reference.json when the benchmark was added, within
  a tolerance that admits reordered floating-point sums but not a changed
  step count, loss or split.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# |got - want| <= ABS_TOL + REL_TOL * |want|: float reordering drifts by
# about 1e-14 relative; a changed loss or step count moves values by far
# more than 1e-6.
REL_TOL = 1e-6
ABS_TOL = 1e-9


def lookup(payload, dotted: str):
    for key in dotted.split("."):
        payload = payload[key]
    return payload


def quality(op_dir: Path, source: tuple[str, str]) -> float | None:
    """The result's own score, or None once its file or key is renamed."""
    path, key = source
    try:
        return float(lookup(json.loads((op_dir / path).read_text()), key))
    except (OSError, KeyError):
        return None


def output_files(op_dir: Path, outs) -> list[Path]:
    """The files the operation's commands wrote, except their manifests."""
    files = []
    for out in outs:
        files += [p for p in (op_dir / out).rglob("*") if p.is_file() and p.name != "manifest.json"]
    return sorted(files)


def outputs_digest(op_dir: Path, outs) -> str:
    h = hashlib.sha256()
    for path in output_files(op_dir, outs):
        h.update(str(path.relative_to(op_dir)).encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def check_operation(workload: str, op_dir: Path, outs, codes, invariants: bool = True) -> list[str]:
    """Problems found in one finished operation; empty when it is correct.
    The oracle invariants are statistical and apply to full-size operations
    only, not to the small reference operations."""
    problems = [f"command {i + 1} exited with {c}" for i, c in enumerate(codes) if c != 0]
    if problems:
        return problems
    for out in outs:
        manifest = op_dir / out / "manifest.json"
        if not manifest.is_file():
            problems.append(f"{out}: no manifest.json")
            continue
        for listed in json.loads(manifest.read_text())["outputs"]:
            if not (op_dir / listed).is_file():
                problems.append(f"{out}: manifest lists missing {listed}")
    if invariants and not problems:
        problems += INVARIANTS.get(workload, lambda d: [])(op_dir)
    return problems


def toy_invariants(op_dir: Path) -> list[str]:
    """The paper's toy claims at the benchmark's trial count.

    The CLI's own ``balanced_ce_lt_classfreq_le_p2p`` flag compares two
    point estimates whose mean gap (about 0.04 points) is below their
    standard error at 10 trials (about 0.1 points), so here class-freq <= p2p
    must hold within two standard errors; the strict ordering is a
    100-trial claim that the acceptance tests check.
    """
    s = json.loads((op_dir / "toy" / "summary.json").read_text())
    v, trials = s["variants"], s["trials"]
    ce, cf, p2p = (v[k]["balanced_mean"] for k in ("ce", "class-freq", "p2p"))
    se = math.hypot(v["class-freq"]["balanced_std"], v["p2p"]["balanced_std"]) / math.sqrt(trials)
    problems = []
    if not (ce < cf and cf <= p2p + 2.0 * se):
        problems.append(f"balanced ordering ce < class-freq <= p2p fails: {ce}, {cf}, {p2p}")
    if not s["orderings"]["offset_p2p_lt_classfreq_lt_ce"]:
        problems.append("offset ordering p2p < class-freq < ce fails")
    if not s["orderings"]["p2p_within_1pt_of_bayes"]:
        problems.append("p2p is not within 1 point of Bayes")
    head = s["effective_prior"]["head_exceeds_frequency_trials"]
    if head < 0.95 * trials:
        problems.append(f"effective head prior exceeds frequency in only {head}/{trials} trials")
    return problems


def ingest_invariants(op_dir: Path) -> list[str]:
    r = json.loads((op_dir / "ingest" / "ingest_report.json").read_text())
    if r["top1_after"] > r["top1_before"]:
        return []
    return [f"correction did not help: top-1 {r['top1_before']} -> {r['top1_after']}"]


INVARIANTS = {"toy": toy_invariants, "ingest": ingest_invariants}


def flatten(payload, prefix: str = "") -> dict:
    if isinstance(payload, dict):
        items = payload.items()
    elif isinstance(payload, list):
        items = enumerate(payload)
    else:
        return {prefix: payload}
    flat = {}
    for key, value in items:
        flat.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
    return flat


def reference_values(op_dir: Path, outs) -> dict:
    """Every leaf of every JSON output, keyed ``<file>:<dotted key>``."""
    values = {}
    for path in output_files(op_dir, outs):
        if path.suffix == ".json":
            for key, value in flatten(json.loads(path.read_text())).items():
                values[f"{path.relative_to(op_dir)}:{key}"] = value
    return values


def compare_reference(got: dict, want: dict) -> list[str]:
    """Keys of ``want`` that are missing or differ; extra keys are allowed,
    so that outputs may gain fields."""
    problems = []
    for key, expected in want.items():
        if key not in got:
            problems.append(f"{key}: missing")
            continue
        value = got[key]
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (value, expected))
        if numeric:
            if not abs(value - expected) <= ABS_TOL + REL_TOL * abs(expected):
                problems.append(f"{key}: {value!r} != reference {expected!r}")
        elif value != expected:
            problems.append(f"{key}: {value!r} != reference {expected!r}")
    return problems
