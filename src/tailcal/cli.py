"""Command-line surface: data generation, two-stage training, prior
estimation, post-hoc adjustment, evaluation, alpha sweeps, the seeded
multi-trial toy experiment, shifted-prior evaluation, and external logit
ingestion. Every run directory gets a manifest recording the resolved
configuration, seeds, and input digests so numeric outputs replay exactly.

Exit codes: 0 success, 2 usage/config error, 3 data/parse error, 4 numeric
failure. :func:`main` prints a raised :class:`~tailcal.errors.UsageError`,
:class:`~tailcal.errors.DataError` or :class:`~tailcal.errors.NumericError`
as ``error: <message>`` and returns its ``exit_code``; an OSError exits 3.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import sys
import time
import warnings
from contextlib import ExitStack, nullcontext
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

# The library is imported where it runs, so a start loads only the modules
# of its command; the option tables read their choices from the package.
from . import (
    ACTIVATIONS,
    DEFAULT_ALPHA_GRID,
    ESTIMATORS,
    METHODS,
    PRIOR_KINDS,
    SCHEDULES,
    SHIFT_DIRECTIONS,
    STAGE_TWO_MODES,
    __version__,
)
from .errors import DataError, NumericError, TailcalError, UsageError

DEFAULT_SEED = 20260808
SEED_ENV_VAR = "TAILCAL_SEED"
INT64 = np.iinfo(np.int64)

# Toy training defaults: full-batch gradient descent stopped well before
# convergence. The early stop is what leaves a measurable gap between the
# prior the model absorbed and the raw count frequencies.
TOY_LEARNING_RATE = 5.0
TOY_ITERATIONS = 100
TOY_SCHEDULE = "constant"


def _master_seed() -> int:
    """$TAILCAL_SEED, else the default; a usage error naming the variable
    unless it is an int64 integer."""
    text = os.environ.get(SEED_ENV_VAR, DEFAULT_SEED)
    try:
        if INT64.min <= (seed := int(text)) <= INT64.max:
            return seed
    except ValueError:
        pass
    raise UsageError(f"{SEED_ENV_VAR} must fit in a signed 64-bit integer, got {text!r}")


@dataclass
class RunDir:
    """One run's record: its --out directory, the output files named in it,
    what its command worked out for the manifest's config, and its notices."""

    path: Path
    outputs: list[str] = field(default_factory=list)
    derived: dict = field(default_factory=dict)
    notices: list[str] = field(default_factory=list)

    def output(self, name: str) -> Path:
        """``path/name``, recorded as an output. The first call creates the
        directory and removes any manifest an earlier run left in it, so a
        manifest lists only the outputs of a run that finished."""
        if not self.outputs:
            self.path.mkdir(parents=True, exist_ok=True)
            (self.path / "manifest.json").unlink(missing_ok=True)
        self.outputs.append(str(self.path / name))
        return self.path / name


def write_manifest(
    run: RunDir, command: str, argv: list[str], config: dict, inputs: dict, started: float
) -> None:
    manifest = {
        "schema": 1,
        "tool": f"tailcal {__version__}",
        "command": command,
        "argv": list(argv),
        "config": config,
        "inputs": inputs,
        "outputs": sorted(run.outputs),
        "wall_clock_s": time.time() - started,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    tmp = run.path / "manifest.json.tmp"  # a --target-prior list and a target are arrays
    tmp.write_text(json.dumps(manifest, indent=1, default=np.ndarray.tolist) + "\n")
    os.replace(tmp, run.path / "manifest.json")


def load_manifest(path) -> dict:
    return json.loads(Path(path).read_text())


def _option(default, kind, flag: str | None = "", choices=None, help=None, least=None,
            above=None, below=None, needs=None, required=False, key=True):
    """A row of a command's option table, also its --config key unless ``key``
    is False: a dataclass field with its default, its ``kind`` (int, float,
    str, a list of one, or a parser of a flag's text), its flag ("" for the
    kebab-cased name, None for a config key without one), the ``choices`` of
    each entry, its help, whether it is ``required``, its bounds (>=
    ``least``, > ``above``, < ``below``) and what it ``needs``: a row any
    value needs, or a dict from a value to its row."""
    meta = dict(kind=kind, flag=flag, choices=choices, help=help, least=least, above=above,
                below=below, needs=needs, required=required, key=key)
    return field(default_factory=lambda: default, metadata=meta)  # also takes a list default


_table = dataclass(frozen=True, eq=False, repr=False)  # no __eq__, __repr__ to make at start


def _flag(option) -> str:
    return option.metadata["flag"] or "--" + option.name.replace("_", "-")


def _list_of(convert):
    """Comma-separated values, each passed through ``convert``; blanks skipped."""

    def parse(text: str) -> list:
        return [convert(v.strip()) for v in text.split(",") if v.strip()]

    parse.__name__ = f"comma-separated {convert.__name__}"  # "invalid <name> value: ..."
    return parse


LIST_PARSERS = {kind: _list_of(get_args(kind)[0]) for kind in (list[int], list[float], list[str])}


def _add_options(parser, table) -> None:
    for option in table:  # dataclass fields made by _option
        meta = option.metadata
        if meta["flag"] is not None:
            parser.add_argument(  # argparse would test a whole list against the choices
                _flag(option), dest=option.name, help=meta["help"], required=meta["required"],
                choices=None if meta["kind"] in LIST_PARSERS else meta["choices"],
                type=LIST_PARSERS.get(meta["kind"], meta["kind"]),
            )


def _leaves(value) -> list:
    return [leaf for v in value for leaf in _leaves(v)] if isinstance(value, list) else [value]


def _check(name: str, value, meta) -> None:
    """A usage error naming ``name`` unless ``value`` is of its option's kind,
    holds an entry if it is a list, and is among its choices, with every
    integer in it fitting int64, every float finite and every number within
    its bounds. An int may stand for a float but a bool for no number, and a
    list must be one numpy reads as a rectangular array. A parser's value,
    which argparse made, is taken as it is."""
    kind, choices, leaves = meta["kind"], meta["choices"], _leaves(value)
    listed = get_origin(kind) is list
    if not (listed or isinstance(kind, type)):
        return
    entry = get_args(kind)[0] if listed else kind
    allowed = (int, float) if entry is float else (entry,)
    fits = isinstance(value, list) == listed and all(type(v) in allowed for v in leaves)
    try:
        np.shape(value)  # ragged nesting raises
    except ValueError:
        fits = False
    if not fits:
        raise UsageError(f"{name} must be {kind if listed else kind.__name__}, got {value!r}")
    if listed and not leaves:
        raise UsageError(f"{name} must not be empty, got {value!r}")
    if choices is not None and not all(v in choices for v in leaves):
        raise UsageError(f"{name} must be one of {', '.join(map(str, choices))}, got {value!r}")
    if not all(INT64.min <= v <= INT64.max for v in leaves if type(v) is int):
        raise UsageError(f"{name} must fit in a signed 64-bit integer, got {value!r}")
    if not all(np.isfinite(v) for v in leaves if type(v) is float):
        raise UsageError(f"{name} must be finite, got {value!r}")
    for word, holds, key in ((">=", operator.ge, "least"), (">", operator.gt, "above"),
                             ("<", operator.lt, "below")):
        limit = meta[key]
        if limit is not None and not all(holds(v, limit) for v in leaves):
            raise UsageError(f"{name} must be {word} {limit}, got {value!r}")


def _resolve(args, options):
    """The ``options`` dataclass resolved from ``args``, and per key the name
    of what set it: flags beat the --config file, which beats the defaults.
    A value from the file is named ``config <file>: key '<k>'``, any other by
    its flag, and a seed not given is _master_seed's. A key of the file that
    is no config key of the table is a usage error naming it. Every value
    given, as a flag or in the file, passes _check; then a value that needs
    a row left unset is a usage error naming both."""
    table = fields(options)
    names = {option.name: _flag(option) for option in table}
    given = []
    path = getattr(args, "config", None)
    if path is not None:
        try:
            config = json.loads(Path(path).read_text())
        except ValueError as exc:  # not JSON, or not text
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        keys = [o.name for o in table if o.metadata["key"]]
        for key in config:
            _refuse(key not in keys, f"config {path}: key {key!r} is not one of {', '.join(keys)}")
        given = [(o, config[o.name], f"config {path}: key {o.name!r}")
                 for o in table if o.name in config]
    given += [(o, v, _flag(o)) for o in table if (v := getattr(args, o.name, None)) is not None]
    values = {}
    for option, value, name in given:
        _check(name, value, option.metadata)
        values[option.name], names[option.name] = value, name
    if "seed" in names and "seed" not in values:  # a seed not given comes from the environment
        values["seed"] = _master_seed()
    opts = options(**values)
    for option in table:
        value, needs = getattr(opts, option.name), option.metadata["needs"]
        need = needs.get(value) if isinstance(needs, dict) else value is not None and needs
        if need and getattr(opts, need) is None:
            raise UsageError(f"{names[option.name]} {value} needs --{need.replace('_', '-')}")
    return opts, names


def _refuse(refused: bool, message: str) -> None:
    """A usage error with ``message`` if ``refused``."""
    if refused:
        raise UsageError(message)


def _check_uniform_ratio(direction_name: str, directions, ratio_name: str, ratios) -> None:
    """A usage error naming both options if a uniform shift is paired with a
    ratio other than 1, as :class:`ShiftSpec` would refuse it later."""
    if "uniform" in _leaves(directions) and any(r != 1 for r in _leaves(ratios)):
        raise UsageError(f"{ratio_name} must be 1 with {direction_name} uniform, got {ratios!r}")


# ---------------------------------------------------------------------------
# flag value formats: text that does not parse is an argparse usage error (exit 2)


def _group_thresholds(text: str):
    """The evaluation.GroupThresholds that 'many_min,few_max' gives."""
    from .evaluation import GroupThresholds

    try:
        many, few = (int(v) for v in text.split(","))
        return GroupThresholds(many, few)
    except (ValueError, TailcalError) as exc:
        raise argparse.ArgumentTypeError(f"expected many_min,few_max, got {text!r}: {exc}")


def _target_prior(text: str):
    """'uniform' and counts-file paths pass through; a JSON list is parsed here."""
    if not text.strip().startswith("["):
        return text
    from .numerics import prob_vector

    try:
        values = np.asarray(json.loads(text), dtype=np.float64)
        with np.errstate(all="ignore"):
            return prob_vector(values / values.sum())
    except (ValueError, TypeError, TailcalError) as exc:
        raise argparse.ArgumentTypeError(f"not a probability list: {text!r}: {exc}")


def _resolve_target(opts, run: RunDir, num_classes: int, positive: bool = False) -> np.ndarray:
    """The --target-prior of ``opts`` for scores of ``num_classes`` classes,
    recorded on ``run`` as ``target``; None is uniform, with a notice. A
    counts file is checked by :func:`_check_classes`. With ``positive``, for
    a correction that adds the target's log, a zero entry is a numeric error
    naming its class."""
    value = opts.target_prior
    if value is None:
        run.notices.append("no --target-prior given; defaulting to uniform")
    if value is None or isinstance(value, str) and value == "uniform":
        target = np.full(num_classes, 1.0 / num_classes)
    elif isinstance(value, str):
        from .dataset import empirical_prior, load_counts

        counts = load_counts(value)
        _check_classes(f"--target-prior {value}", counts.size, opts, num_classes)
        target = empirical_prior(counts)
    else:
        _refuse(value.shape != (num_classes,),
                f"--target-prior lists {value.shape[0]} classes, the scores have {num_classes}")
        if positive and not value.all():  # only a list can hold a zero
            raise NumericError(f"--target-prior gives class {int(np.argmin(value))} probability "
                               "0; the correction would add log 0 = -inf to its logits")
        target = value
    run.derived["target"] = target
    return target


# ---------------------------------------------------------------------------
# logit dumps: header id,logit_0,...,logit_{C-1},label


def save_logit_dump(ids, logits, labels, path) -> Path | None:
    """Write the dump CSV and its binary twin; returns the twin's path, or None."""
    from .dataset import _write_csv

    logits = np.asarray(logits, dtype=np.float64)
    header = ["id"] + [f"logit_{j}" for j in range(logits.shape[1])] + ["label"]
    return _write_csv(path, header, logits, labels, ids, num_classes=logits.shape[1])


def _check_dump_header(names: list[str]) -> tuple[bool, int]:
    if names[0] != "id" or names[-1] != "label" or len(names) < 4:
        raise ValueError(
            f"expected header 'id,logit_0,...,label', got {','.join(names)!r}"
        )
    return True, len(names) - 2


def load_logit_dump(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    from .dataset import _read_csv

    return _read_csv(path, _check_dump_header)


def _dump_posterior_means(path) -> tuple[np.ndarray, int]:
    """Column means of the softmax of a logit dump's rows, and the row count,
    read a block at a time: the dump is never held whole."""
    from . import prior
    from .dataset import _csv_blocks
    from .numerics import softmax_rows

    blocks = _csv_blocks(Path(path), _check_dump_header)
    return prior.column_means(softmax_rows(logits) for _, logits, _ in blocks)


# ---------------------------------------------------------------------------
# shared model helpers


def _train_side_posteriors(model, provenance, features) -> np.ndarray:
    """Posteriors as seen by the training loss: the train-time shift of the
    provenance's loss re-applied (zero for a plain CE model)."""
    from .model import _loss_shift, predict_logits
    from .numerics import softmax_rows

    return softmax_rows(
        predict_logits(model, features) + _loss_shift(provenance.loss, model.num_classes)
    )


def _raw_posteriors(model, features) -> np.ndarray:
    from .model import predict_logits
    from .numerics import softmax_rows

    return softmax_rows(predict_logits(model, features))


def _load_for(model, opts, name: str, path: str):
    """The dataset at ``path``, given as ``name``, for ``model`` read from the
    --model of ``opts``: its labels below the model's class count, and a data
    error naming both files unless its features are as many as the model's."""
    from .dataset import load_dataset

    ds = load_dataset(path, num_classes=model.num_classes)
    if ds.dims != model.dims:
        raise DataError(f"{name} {path} has {ds.dims} features, but --model {opts.model} "
                        f"expects {model.dims}")
    return ds


# ---------------------------------------------------------------------------
# gen-data


class _allocating:
    """Guards the allocation of a ``rows`` x ``cols`` float array named
    ``what``: raises ``UsageError("<what> is too big to allocate")`` when made
    if numpy cannot size the array (more bytes than an intp counts, halved to
    leave room for counts that round up), and when a MemoryError leaves the
    block it guards."""

    def __init__(self, what: str, rows: int, cols: int):
        self.error = UsageError(f"{what} is too big to allocate")
        if rows * max(cols, 1) * 16 > np.iinfo(np.intp).max:
            raise self.error

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, MemoryError):
            raise self.error from None


def _default_means(classes: int, dims: int) -> np.ndarray:
    if classes == 2:
        means = np.zeros((2, dims))
        means[0, 0], means[1, 0] = -1.0, 1.0
        return means
    angles = 2.0 * np.pi * np.arange(classes) / classes
    means = np.zeros((classes, dims))
    means[:, 0] = 2.0 * np.cos(angles)
    means[:, 1] = 2.0 * np.sin(angles)
    return means


PROFILE_KINDS = ("exponential", "step")  # training count profiles of gen-data


@_table
class GenOptions:
    classes: int = _option(2, int, least=2)
    dims: int = _option(2, int, least=1)
    means: list | None = _option(None, list[float], flag=None)
    sigmas: list | None = _option(None, list[float], flag=None, above=0)
    profile: str = _option("exponential", str, choices=PROFILE_KINDS)
    max_count: int = _option(9901, int, least=1)
    imbalance: float = _option(100.0, float, least=1)
    counts: list | None = _option(None, list[int], least=1,
                                   help="comma-separated explicit per-class counts")
    val_per_class: int = _option(1000, int, least=1)
    test_per_class: int = _option(5000, int, least=1)
    shift_direction: str = _option("uniform", str, choices=SHIFT_DIRECTIONS)
    shift_ratio: float = _option(1.0, float, least=1)
    seed: int | None = _option(None, int)


def _check_gen_data(opts: GenOptions, names: dict) -> None:
    """A uniform shift only at ratio 1, and counts, means and sigmas that fit
    --classes and --dims."""
    _check_uniform_ratio(names["shift_direction"], opts.shift_direction,
                         names["shift_ratio"], opts.shift_ratio)
    classes, dims = opts.classes, opts.dims
    _refuse(opts.means is None and classes > 2 and dims < 2,  # the default means span 2 dims
            f"{names['dims']} must be >= 2 for the default means of {classes} classes, got {dims}")
    _refuse(opts.counts is not None and len(opts.counts) != classes,
            f"{names['counts']} lists {len(opts.counts or ())} counts, "
            f"but {names['classes']} is {classes}")
    _refuse(opts.means is not None and np.shape(opts.means) != (classes, dims),
            f"{names['means']} has shape {np.shape(opts.means)}, but {names['classes']} is "
            f"{classes} and {names['dims']} is {dims}")
    _refuse(opts.sigmas is not None and np.shape(opts.sigmas) != (classes,),
            f"{names['sigmas']} has shape {np.shape(opts.sigmas)}, but {names['classes']} is "
            f"{classes}")


def cmd_gen_data(opts: GenOptions, names: dict, run: RunDir) -> None:
    from .dataset import (GaussianMixtureSpec, ShiftSpec, make_longtail_counts,
                          make_shifted_counts, sample_dataset, save_counts, save_dataset)
    from .numerics import RngStream

    classes, dims = opts.classes, opts.dims
    with _allocating(f"{names['classes' if classes >= dims else 'dims']}: a mixture of "
                     f"{classes} classes in {dims} dims", classes, dims):  # named by the larger size
        means = _default_means(classes, dims) if opts.means is None else opts.means
        sigmas = np.ones(classes) if opts.sigmas is None else opts.sigmas
        gmm = GaussianMixtureSpec(means, sigmas)
    train_counts = (np.array(opts.counts) if opts.counts is not None else
                    make_longtail_counts(classes, opts.max_count, float(opts.imbalance),
                                         opts.profile))
    shift = ShiftSpec(opts.shift_direction, float(opts.shift_ratio))
    test_counts = make_shifted_counts(np.full(classes, opts.test_per_class), shift)
    val_counts = np.full(classes, opts.val_per_class)

    master = RngStream(opts.seed)
    splits = []  # every split is sized before any is written
    for stream, (split, counts, key) in enumerate((
        ("train", train_counts, "max_count" if opts.counts is None else "counts"),
        ("val", val_counts, "val_per_class"), ("test", test_counts, "test_per_class"),
    )):
        rows = sum(counts.tolist())
        what = f"{names[key]}: the {split} split of {rows} rows of {gmm.dims} features"
        splits.append((rows, stream, split, counts, _allocating(what, rows, gmm.dims)))
    # One split in memory at a time, the largest first: its matrices meet a
    # heap that formatting the other splits has not fragmented yet.
    for _, stream, split, counts, guard in sorted(splits, key=lambda s: -s[0]):
        with guard:
            ds = sample_dataset(gmm, counts, master.child(stream))
        if twin := save_dataset(ds, run.output(f"{split}.csv")):
            run.output(twin.name)
        del ds
    save_counts(train_counts, run.output("counts.json"))

    print(f"{'class':>6} {'train':>8} {'val':>8} {'test':>8}")
    for i in range(classes):
        print(f"{i:>6} {train_counts[i]:>8} {val_counts[i]:>8} {test_counts[i]:>8}")


# ---------------------------------------------------------------------------
# train


@_table
class TrainOptions:
    data: str = _option(None, str, required=True, key=False)
    stage: int = _option(1, int, choices=(1, 2), needs={2: "init"})
    mode: str = _option("FT", str, choices=STAGE_TWO_MODES)
    init: str | None = _option(None, str, help="stage-1 model file for stage-2 runs", key=False)
    loss: str = _option("ce", str, choices=("ce", "la"))
    alpha: float = _option(1.0, float, least=0)
    lr: float = _option(TOY_LEARNING_RATE, float, above=0)
    iterations: int = _option(TOY_ITERATIONS, int, least=0)
    batch_size: int | None = _option(None, int, least=1)  # full batch
    schedule: str = _option(TOY_SCHEDULE, str, choices=SCHEDULES)
    arch: str = _option("linear", str, choices=("linear", "mlp"))
    hidden: int = _option(16, int, least=1)
    activation: str = _option("relu", str, choices=ACTIVATIONS)
    seed: int | None = _option(None, int)


def cmd_train(opts: TrainOptions, names: dict, run: RunDir) -> None:
    from .dataset import empirical_prior, load_dataset
    from .model import (LossSpec, ModelProvenance, TrainConfig, init_linear, init_mlp,
                        load_model, save_model, stage2_retrain, train)
    from .numerics import RngStream

    ds = load_dataset(opts.data)
    _refuse(opts.batch_size is not None and opts.batch_size > ds.n,
            f"{names['batch_size']} {opts.batch_size} exceeds the {ds.n} rows of --data "
            f"{opts.data}")
    seed = RngStream(opts.seed)
    train_cfg = TrainConfig(
        learning_rate=float(opts.lr),
        iterations=opts.iterations,
        batch_size=ds.n if opts.batch_size is None else opts.batch_size,
        seed=seed.child(1),
        schedule=opts.schedule,
    )
    freq = empirical_prior(ds.counts)
    stage, alpha = opts.stage, float(opts.alpha)
    la = stage == 2 or opts.loss == "la"  # stage 2 always trains logit-adjusted
    loss = LossSpec("logit-adjusted", freq, alpha) if la else LossSpec()
    if stage == 2:
        init_model, _ = load_model(opts.init)
        fits = [f"{m.num_classes} classes over {m.dims} features" for m in (init_model, ds)]
        if fits[0] != fits[1]:  # before any training step
            raise DataError(f"--init {opts.init} has {fits[0]}, "
                            f"but --data {opts.data} has {fits[1]}")
        result = stage2_retrain(init_model, ds, opts.mode, train_cfg, freq, alpha)
    elif opts.arch == "mlp":  # (rows x hidden) activations, (hidden x dims) weights
        with _allocating(f"{names['hidden']}: a hidden layer of {opts.hidden} units on {ds.n} "
                         f"rows of {ds.dims} features", max(ds.n, ds.dims), opts.hidden):
            model0 = init_mlp(ds.num_classes, ds.dims, opts.hidden, opts.activation, seed.child(0))
            result = train(model0, ds, loss, train_cfg)
    else:
        result = train(init_linear(ds.num_classes, ds.dims), ds, loss, train_cfg)
    provenance = ModelProvenance(stage, loss, (train_cfg.seed.seed, train_cfg.seed.stream_id))

    model_path = run.output("model.json")
    save_model(result.model, model_path, provenance)
    trace = {"epoch_mean_loss": result.loss_trace}
    run.output("loss_trace.json").write_text(json.dumps(trace) + "\n")
    print(f"trained stage-{stage} model -> {model_path}")
    if result.loss_trace:
        print(f"final epoch mean loss: {result.loss_trace[-1]:.6f}")


# ---------------------------------------------------------------------------
# estimate-prior


@_table
class EstimateOptions:
    target_prior: str | np.ndarray | None = _option(None, _target_prior)
    model: str = _option(None, str, required=True)
    data: str = _option(None, str, required=True)
    estimator: str = _option(None, str, choices=("train", "val", "train-reweighted", "averaged"),
                             required=True, needs={"averaged": "train_data"})
    train_data: str | None = _option(None, str)


def cmd_estimate_prior(opts: EstimateOptions, names: dict, run: RunDir) -> None:
    from . import prior
    from .dataset import empirical_prior
    from .model import load_model

    model, provenance = load_model(opts.model)
    ds = _load_for(model, opts, "--data", opts.data)
    freq = empirical_prior(ds.counts)
    if opts.estimator == "train":
        estimate = prior.effective_prior_train(
            _train_side_posteriors(model, provenance, ds.features)
        )
    elif opts.estimator == "val":
        estimate = prior.pmbar_from_val(_raw_posteriors(model, ds.features))
    else:  # train-reweighted, or averaged with the val estimate of --data
        target = _resolve_target(opts, run, model.num_classes)
        averaged = opts.estimator == "averaged"
        ds_train = _load_for(model, opts, "--train-data", opts.train_data) if averaged else ds
        freq = empirical_prior(ds_train.counts)
        estimate = prior.pmbar_from_train(
            _train_side_posteriors(model, provenance, ds_train.features), target, freq
        )
        if averaged:
            est_val = prior.pmbar_from_val(_raw_posteriors(model, ds.features))
            estimate = prior.average_estimates(est_val, estimate)

    prior.save_prior(estimate, run.output("prior.json"))
    print(f"{'class':>6} {'frequency':>12} {'effective':>12}")
    for i, (f, e) in enumerate(zip(freq, estimate.probs)):
        print(f"{i:>6} {f:>12.6f} {e:>12.6f}")
    print(f"estimator: {estimate.estimator}  samples: {estimate.samples}")


# ---------------------------------------------------------------------------
# adjust


@_table
class ScoresOptions:  # the rows with which adjust, eval and sweep-alpha name their scores
    target_prior: str | np.ndarray | None = _option(None, _target_prior)
    logits: str | None = _option(None, str)
    model: str | None = _option(None, str)
    data: str | None = _option(None, str)


def _check_scores(command: str, opts: ScoresOptions, names: dict) -> None:
    """The flags from which adjust, eval and sweep-alpha read scores."""
    _refuse(not (opts.logits or opts.model and opts.data),
            f"{command} needs --logits, or --model with --data")


def _check_classes(name: str, count: int, opts, classes: int) -> None:
    """A data error unless the ``count`` classes ``name`` lists are the
    ``classes`` of the scores from the --logits, else the --model, of ``opts``."""
    if count != classes:
        logits = getattr(opts, "logits", None)  # estimate-prior has only --model
        scores = f"--logits {logits}" if logits else f"--model {opts.model}"
        raise DataError(f"{name} lists {count} classes, but {scores} has {classes}")


@_table
class AdjustOptions(ScoresOptions):
    method: str = _option(None, str, choices=METHODS, required=True, needs={
        "class-frequency": "counts", "p2p-ce": "prior", "p2p-la": "prior"})
    prior: str | None = _option(None, str, help="effective-prior JSON for p2p methods")
    counts: str | None = _option(None, str, help="counts JSON for class-frequency")
    alpha: float | None = _option(None, float, least=0)
    alpha_from_sweep: str | None = _option(None, str,
                                           help="chosen_alpha.json from a sweep-alpha run")


def _check_adjust(opts: AdjustOptions, names: dict) -> None:
    """adjust's scores flags, and no alpha given twice unless --method is none."""
    _check_scores("adjust", opts, names)
    _refuse(opts.method != "none" and opts.alpha is not None and opts.alpha_from_sweep is not None,
            "give either --alpha or --alpha-from-sweep, not both")


def _resolve_alpha(opts: AdjustOptions) -> float | None:
    """The --alpha value, or the alpha of the --alpha-from-sweep file, a finite
    JSON number >= 0. None means the prior's own."""
    if opts.alpha_from_sweep is not None:
        from . import prior

        try:
            payload = json.loads(Path(opts.alpha_from_sweep).read_text())
            return prior._json_alpha(payload["alpha"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"{opts.alpha_from_sweep}: not a sweep result: {exc}"
            ) from exc
    return opts.alpha


def _adjustment(opts: AdjustOptions, run: RunDir, num_classes: int):
    """The adjust.AdjustmentSpec that --method and its files give."""
    from . import adjust, prior

    if opts.method == "none":
        return adjust.no_adjustment()
    target = _resolve_target(opts, run, num_classes, positive=True)
    alpha = _resolve_alpha(opts)
    if opts.method == "class-frequency":
        from .dataset import empirical_prior, load_counts

        counts = load_counts(opts.counts)
        _check_classes(f"--counts {opts.counts}", counts.size, opts, num_classes)
        return adjust.class_frequency_spec(empirical_prior(counts), target,
                                           1.0 if alpha is None else alpha)
    estimate = prior.load_prior(opts.prior)
    _check_classes(f"--prior {opts.prior}", estimate.probs.size, opts, num_classes)
    return adjust.spec_from_estimate(opts.method, estimate, target, alpha)


def _load_scores(opts: ScoresOptions) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Row ids, logits and labels from --logits, or from --model run on --data."""
    if opts.logits:
        return load_logit_dump(opts.logits)
    from .model import load_model, predict_logits

    model, _ = load_model(opts.model)
    ds = _load_for(model, opts, "--data", opts.data)
    return [str(i) for i in range(ds.n)], predict_logits(model, ds.features), ds.labels


def cmd_adjust(opts: AdjustOptions, names: dict, run: RunDir) -> None:
    from . import adjust, evaluation

    ids, logits, labels = _load_scores(opts)
    spec = _adjustment(opts, run, logits.shape[1])
    adjusted = adjust.adjust_logits(logits, spec)

    if twin := save_logit_dump(ids, adjusted, labels, run.output("adjusted_logits.csv")):
        run.output(twin.name)
    adjust.save_spec(spec, run.output("adjustment.json"))
    acc_before = evaluation.top1_accuracy(np.argmax(logits, axis=1), labels)
    acc_after = evaluation.top1_accuracy(np.argmax(adjusted, axis=1), labels)
    print(f"top-1 before adjustment: {acc_before:.4f}")
    print(f"top-1 after adjustment:  {acc_after:.4f}")
    run.derived["spec"] = spec.to_json()


# ---------------------------------------------------------------------------
# eval


@_table
class EvalOptions(ScoresOptions):
    train_counts: str | None = _option(None, str)
    groups: object = _option(None, _group_thresholds,  # an evaluation.GroupThresholds
                             help="many_min,few_max thresholds")


def cmd_eval(opts: EvalOptions, names: dict, run: RunDir) -> None:
    from . import evaluation
    from .dataset import load_counts
    from .numerics import softmax_rows

    _, logits, labels = _load_scores(opts)
    provenance = (
        {"logits": opts.logits} if opts.logits else {"model": opts.model, "data": opts.data}
    )
    target = _resolve_target(opts, run, logits.shape[1])
    train_counts = None
    if opts.train_counts:
        train_counts = load_counts(opts.train_counts)
        _check_classes(f"--train-counts {opts.train_counts}", train_counts.size, opts,
                       logits.shape[1])
    report = evaluation.build_report(
        np.argmax(logits, axis=1),
        labels,
        softmax_rows(logits),
        target,
        train_counts=train_counts,
        thresholds=opts.groups,
        provenance=provenance,
    )
    paths = (run.output(f"report.{ext}") for ext in ("json", "csv", "txt"))
    print(evaluation.emit_report(report, *paths), end="")


# ---------------------------------------------------------------------------
# toy-experiment


@dataclass(frozen=True)
class ToyConfig:
    trials: int = _option(100, int, least=1)
    samples: int = _option(10000, int, least=2)
    imbalance: float = _option(100.0, float, least=1)
    test_samples: int = _option(10000, int, least=2)
    alpha: float = _option(1.0, float, least=0)
    learning_rate: float = _option(TOY_LEARNING_RATE, float, flag="--lr", above=0)
    iterations: int = _option(TOY_ITERATIONS, int, least=1)  # an untrained model has no boundary
    batch_size: int | None = _option(None, int, least=1)  # full batch
    schedule: str = _option(TOY_SCHEDULE, str, choices=SCHEDULES)
    seed: int = _option(DEFAULT_SEED, int)

    def train_counts(self) -> np.ndarray:
        tail = int(round(self.samples / (self.imbalance + 1.0)))
        if tail < 1:
            raise UsageError(f"--samples {self.samples} at --imbalance {self.imbalance} "
                             "leaves the tail class no sample")
        return np.array([self.samples - tail, tail], dtype=np.int64)

    def test_counts(self) -> np.ndarray:
        half = self.test_samples // 2
        return np.array([half, self.test_samples - half], dtype=np.int64)


TOY_VARIANTS = ("ce", "class-freq", "p2p")


def run_toy_trial(cfg: ToyConfig, trial: int) -> dict:
    """One seeded trial: sample, train CE, correct three ways, score all."""
    from . import adjust, evaluation, prior
    from .dataset import empirical_prior, sample_dataset
    from .model import LossSpec, TrainConfig, init_linear, predict_logits, train
    from .numerics import RngStream, softmax_rows
    from .oracle import bayes_classify, boundary_offset, toy_mixture

    gmm = toy_mixture()
    base = RngStream(cfg.seed).child(trial)
    ds_train = sample_dataset(gmm, cfg.train_counts(), base.child(0))
    ds_test = sample_dataset(gmm, cfg.test_counts(), base.child(1))
    train_cfg = TrainConfig(
        learning_rate=cfg.learning_rate,
        iterations=cfg.iterations,
        batch_size=ds_train.n if cfg.batch_size is None else cfg.batch_size,
        seed=base.child(2),
        schedule=cfg.schedule,
    )
    model = train(init_linear(2, 2), ds_train, LossSpec(), train_cfg).model
    uniform = np.full(2, 0.5)
    freq = empirical_prior(ds_train.counts)
    effective = prior.effective_prior_train(_raw_posteriors(model, ds_train.features))
    specs = {
        "ce": adjust.no_adjustment(),
        "class-freq": adjust.class_frequency_spec(freq, uniform, cfg.alpha),
        "p2p": adjust.spec_from_estimate("p2p-ce", effective, uniform, cfg.alpha),
    }
    models = {name: adjust.apply_to_linear_model(model, spec) for name, spec in specs.items()}
    logits_test = predict_logits(model, ds_test.features)
    result = {
        "trial": trial,
        "freq_prior": freq,
        "effective_prior": effective.probs,
        "variants": {},
    }
    for name, spec in specs.items():
        z = adjust.adjust_logits(logits_test, spec)
        confusion = evaluation.confusion_matrix(np.argmax(z, axis=1), ds_test.labels, 2)
        achieved = adjust.achieved_prior(softmax_rows(z))
        l1, _ = evaluation.prior_mismatch(achieved, uniform)
        offset = boundary_offset(models[name], gmm, uniform)
        result["variants"][name] = {
            "balanced": evaluation.balanced_accuracy(confusion),
            "offset": offset,
            "prior_l1": l1,
        }
    bayes_pred = bayes_classify(gmm, uniform, ds_test.features)
    confusion = evaluation.confusion_matrix(bayes_pred, ds_test.labels, 2)
    result["bayes_balanced"] = evaluation.balanced_accuracy(confusion)
    result["models"] = models
    return result


def toy_workers(trials: int, workers: int | None = None) -> int:
    """The process count for ``trials`` toy trials: ``workers``, by default
    one per usable CPU (the process's affinity mask where the OS has one),
    at most one per usable CPU and one per trial."""
    from .dataset import _usable_cpus

    most = min(trials, _usable_cpus())
    return most if workers is None else min(workers, most)


def _toy_part(cfg: ToyConfig, first: int, step: int) -> list[tuple]:
    """Trials ``first, first + step, ...`` in order, each as ``(trial,
    result, warnings)``: its result, or the error it raised, and the warnings
    it emitted under the current filters. The part stops at an error."""
    done = []
    with warnings.catch_warnings(record=True) as log:
        for trial in range(first, cfg.trials, step):
            start = len(log)
            try:
                done.append((trial, run_toy_trial(cfg, trial), log[start:]))
            except Exception as exc:
                done.append((trial, exc, log[start:]))
                break
    return done


def toy_experiment(cfg: ToyConfig, workers: int | None = None) -> dict:
    """Run all trials in :func:`toy_workers` processes and aggregate them in
    trial order.

    That is one process per usable CPU by default, and never more than the
    usable CPUs, the trials or ``workers``. Part ``p`` of ``k`` runs trials
    ``p, p + k, ...``; this process runs part 0 and a forked child
    (:func:`dataset._forked`) each other part, or runs them itself when there
    is one usable CPU or a fork fails. The trials' warnings are then shown,
    and the first error raised, in trial order, as one process running the
    trials in order would.
    Every trial draws only from its own per-trial stream, so the aggregate
    has the same bits for any worker count.
    """
    from .dataset import _forked

    if cfg.trials < 1:
        raise UsageError("need at least one trial")
    parts = toy_workers(cfg.trials, workers)
    with ExitStack() as children:
        waits = [children.enter_context(_forked(_toy_part, cfg, part, parts))
                 for part in range(1, parts)]
        done = _toy_part(cfg, 0, parts) + [trial for wait in waits for trial in wait()]
    # A part stops only at an error, so every trial below the lowest error ran.
    # A warning is replayed under the name of the module of its file, which
    # the filters match; warn_explicit drops one whose module is None.
    trials, registries = [], {}
    modules = {getattr(m, "__file__", None): name for name, m in list(sys.modules.items())}
    for _, result, caught in sorted(done, key=lambda trial: trial[0]):
        for w in caught:
            module = modules.get(w.filename) or w.filename.removesuffix(".py")
            registry = registries.setdefault(w.filename, {})
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, module, registry)
        if isinstance(result, Exception):
            raise result
        trials.append(result)

    config = asdict(cfg)
    del config["trials"]
    summary: dict = {"trials": cfg.trials, "variants": {}, "config": config}
    for name in TOY_VARIANTS:
        bal = np.array([t["variants"][name]["balanced"] for t in trials])
        off = np.array([abs(t["variants"][name]["offset"]) for t in trials])
        l1 = np.array([t["variants"][name]["prior_l1"] for t in trials])
        summary["variants"][name] = {
            "balanced_mean": float(bal.mean()),
            "balanced_std": float(bal.std()),
            "offset_abs_mean": float(off.mean()),
            "offset_abs_std": float(off.std()),
            "prior_l1_mean": float(l1.mean()),
        }
    bayes = np.array([t["bayes_balanced"] for t in trials])
    summary["bayes"] = {"balanced_mean": float(bayes.mean()), "balanced_std": float(bayes.std())}
    head_exceeds = sum(
        1
        for t in trials
        if t["effective_prior"][0] > t["freq_prior"][0]
        and t["effective_prior"][1] < t["freq_prior"][1]
    )
    summary["effective_prior"] = {
        "head_exceeds_frequency_trials": head_exceeds,
        "trials": cfg.trials,
    }
    v = summary["variants"]
    summary["orderings"] = {
        "balanced_ce_lt_classfreq_le_p2p": bool(
            v["ce"]["balanced_mean"] < v["class-freq"]["balanced_mean"]
            and v["class-freq"]["balanced_mean"] <= v["p2p"]["balanced_mean"]
        ),
        "offset_p2p_lt_classfreq_lt_ce": bool(
            v["p2p"]["offset_abs_mean"] < v["class-freq"]["offset_abs_mean"]
            and v["class-freq"]["offset_abs_mean"] < v["ce"]["offset_abs_mean"]
        ),
        "p2p_within_1pt_of_bayes": bool(
            summary["bayes"]["balanced_mean"] - v["p2p"]["balanced_mean"] <= 0.01
        ),
    }
    summary["_trial0"] = trials[0]
    return summary


@_table
class ToyOptions(ToyConfig):
    workers: int | None = _option(None, int, least=1, help="trial processes, capped at the "
                                  "usable CPUs and at --trials (default: that cap)")


def cmd_toy_experiment(opts: ToyOptions, names: dict, run: RunDir) -> None:
    from . import evaluation
    from .oracle import toy_mixture

    cfg = ToyConfig(**{f.name: getattr(opts, f.name) for f in fields(ToyConfig)})
    _refuse(cfg.batch_size is not None and cfg.batch_size > cfg.samples,
            f"{names['batch_size']} {cfg.batch_size} exceeds {names['samples']} {cfg.samples}")
    train_counts = cfg.train_counts()  # refuses an empty tail class before any trial starts
    splits = {key: _allocating(f"{names[key]}: the {split} split of {getattr(cfg, key)} rows "
                               "of 2 features", getattr(cfg, key), 2)
              for key, split in (("samples", "train"), ("test_samples", "test"))}
    workers = run.derived["processes"] = toy_workers(cfg.trials, opts.workers)
    with splits[max(splits, key=lambda key: getattr(cfg, key))]:  # named by the larger split
        summary = toy_experiment(cfg, workers)
    trial0 = summary.pop("_trial0")

    run.output("summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    csv_lines = ["variant,balanced_mean,balanced_std,offset_abs_mean,offset_abs_std,prior_l1_mean"]
    for name in TOY_VARIANTS:
        s = summary["variants"][name]
        csv_lines.append(
            f"{name},{s['balanced_mean']!r},{s['balanced_std']!r},"
            f"{s['offset_abs_mean']!r},{s['offset_abs_std']!r},{s['prior_l1_mean']!r}"
        )
    b = summary["bayes"]
    csv_lines.append(f"bayes,{b['balanced_mean']!r},{b['balanced_std']!r},,,")
    run.output("summary.csv").write_text("\n".join(csv_lines) + "\n")
    evaluation.export_boundary_data(
        [(name, trial0["models"][name]) for name in TOY_VARIANTS],
        toy_mixture(),
        np.full(2, 0.5),
        run.output("boundary_trial0.csv"),
    )
    evaluation.export_prior_bars(
        trial0["freq_prior"], trial0["effective_prior"], train_counts,
        run.output("prior_bars_trial0.csv"),
    )

    # a singleton run has no spread to report
    std_of = (lambda s: f"{s:8.4f}") if cfg.trials > 1 else (lambda s: f"{'-':>8}")
    print(f"{'variant':>12} {'balanced':>10} {'+-std':>8} {'|offset|':>10} {'prior L1':>10}")
    for name in TOY_VARIANTS:
        s = summary["variants"][name]
        print(
            f"{name:>12} {s['balanced_mean']:>10.4f} {std_of(s['balanced_std'])} "
            f"{s['offset_abs_mean']:>10.4f} {s['prior_l1_mean']:>10.4f}"
        )
    print(f"{'bayes':>12} {summary['bayes']['balanced_mean']:>10.4f} {std_of(summary['bayes']['balanced_std'])}")
    o = summary["orderings"]
    print(f"balanced ordering ce < class-freq <= p2p: {'PASS' if o['balanced_ce_lt_classfreq_le_p2p'] else 'FAIL'}")
    print(f"offset ordering p2p < class-freq < ce: {'PASS' if o['offset_p2p_lt_classfreq_lt_ce'] else 'FAIL'}")
    print(f"p2p within 1 point of bayes: {'PASS' if o['p2p_within_1pt_of_bayes'] else 'FAIL'}")
    e = summary["effective_prior"]
    print(f"effective head prior exceeds frequency in {e['head_exceeds_frequency_trials']}/{e['trials']} trials")


# ---------------------------------------------------------------------------
# shift-eval


def _shifts(directions, ratios) -> list[tuple[str, float]]:
    """The shifts shift-eval scores: uniform, then each direction at each ratio."""
    return [("uniform", 1.0)] + [(d, r) for d in directions for r in ratios]


@_table
class ShiftOptions:
    model: str = _option(None, str, required=True)
    train_data: str = _option(None, str, required=True,
                              help="training CSV for the effective-prior estimate")
    directions: list[str] = _option(["forward", "backward"], list[str], choices=SHIFT_DIRECTIONS)
    ratios: list[float] = _option([5.0, 10.0, 50.0], list[float], least=1)
    trials: int = _option(20, int, least=1)
    test_samples: int = _option(10000, int, least=1)
    alpha: float = _option(1.0, float, least=0)
    seed: int | None = _option(None, int)


def _check_shift_eval(opts: ShiftOptions, names: dict) -> None:
    """A uniform shift only at ratio 1, and a --test-samples whose test set
    keeps a sample of each class under every shift."""
    from .dataset import ShiftSpec, make_shifted_counts

    _check_uniform_ratio("--directions", opts.directions, "--ratios", opts.ratios)
    base_counts = np.full(2, opts.test_samples // 2)
    for direction, ratio in _shifts(opts.directions, opts.ratios):
        try:
            make_shifted_counts(base_counts, ShiftSpec(direction, ratio))
        except UsageError as exc:
            raise UsageError(f"--test-samples {opts.test_samples} under the {direction} shift "
                             f"at ratio {ratio:g}: {exc}") from exc


def shift_eval_rows(
    model,
    provenance,
    train_counts,
    train_side_estimate,
    directions,
    ratios,
    test_samples: int,
    trials: int,
    master,
    alpha: float = 1.0,
) -> list[dict]:
    """Accuracy of raw vs matched-target correction under label shifts.

    ``train_side_estimate`` is the effective prior measured on the training
    data (train-side kind); logit-adjusted models get it reweighted toward
    each shift's target. Every (direction, ratio) cell resamples the test set
    ``trials`` times; the uniform cell uses the same machinery with ratio 1,
    so it reproduces a plain balanced evaluation exactly.
    """
    from . import adjust, evaluation, prior
    from .dataset import ShiftSpec, empirical_prior, make_shifted_counts, sample_dataset
    from .model import predict_logits
    from .oracle import toy_mixture

    gmm = toy_mixture()
    freq = empirical_prior(train_counts)
    base_counts = np.full(2, test_samples // 2)
    rows = []
    for shift_index, (direction, ratio) in enumerate(_shifts(directions, ratios)):
        counts = make_shifted_counts(base_counts, ShiftSpec(direction, ratio))
        target = empirical_prior(counts)
        if provenance.loss.kind == "logit-adjusted":
            estimate = prior.reweight_means(
                train_side_estimate.probs, target, freq, train_side_estimate.samples
            )
            spec = adjust.spec_from_estimate("p2p-la", estimate, target, alpha)
        else:
            spec = adjust.spec_from_estimate("p2p-ce", train_side_estimate, target, alpha)
        accs_raw, accs_adj = [], []
        for t in range(trials):
            ds = sample_dataset(gmm, counts, master.child(shift_index * 1009 + t))
            z = predict_logits(model, ds.features)
            accs_raw.append(evaluation.top1_accuracy(np.argmax(z, axis=1), ds.labels))
            z_adj = adjust.adjust_logits(z, spec)
            accs_adj.append(evaluation.top1_accuracy(np.argmax(z_adj, axis=1), ds.labels))
        rows.append(
            {
                "direction": direction,
                "ratio": ratio,
                "unadjusted_mean": float(np.mean(accs_raw)),
                "adjusted_mean": float(np.mean(accs_adj)),
            }
        )
    return rows


def cmd_shift_eval(opts: ShiftOptions, names: dict, run: RunDir) -> None:
    from . import prior
    from .model import load_model
    from .numerics import RngStream

    test_split = _allocating(f"--test-samples: the test split of {opts.test_samples} rows of 2 "
                             "features", opts.test_samples, 2)
    model, provenance = load_model(opts.model)
    _refuse(model.num_classes != 2 or model.dims != 2,
            f"--model {opts.model}: shift-eval samples the two-class toy mixture in 2 "
            f"features, but the model has {model.num_classes} classes over {model.dims} features")
    ds_train = _load_for(model, opts, "--train-data", opts.train_data)
    estimate = prior.effective_prior_train(
        _train_side_posteriors(model, provenance, ds_train.features)
    )
    with test_split:
        rows = shift_eval_rows(model, provenance, ds_train.counts, estimate, opts.directions,
                               opts.ratios, opts.test_samples, opts.trials, RngStream(opts.seed),
                               alpha=opts.alpha)
    lines = ["direction,ratio,unadjusted_mean,adjusted_mean"]
    print(f"{'shift':>14} {'unadjusted':>12} {'adjusted':>12}")
    for row in rows:
        lines.append(
            f"{row['direction']},{row['ratio']!r},"
            f"{row['unadjusted_mean']!r},{row['adjusted_mean']!r}"
        )
        label = f"{row['direction']}@{row['ratio']:g}"
        print(f"{label:>14} {row['unadjusted_mean']:>12.4f} {row['adjusted_mean']:>12.4f}")
    run.output("shift_eval.csv").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# ingest-logits


def ingest_logits(
    ids,
    logits: np.ndarray,
    labels: np.ndarray,
    val_frac: float,
    master,
    target_prior: np.ndarray,
    grid,
    train_means: tuple[np.ndarray, int] | None = None,
    train_counts=None,
) -> dict:
    """Estimate the residual prior of an external dump, tune alpha on a
    held-out split, and adjust the remaining rows.

    ``train_means`` is ``(column means, row count)`` of a train-side dump's
    posteriors, as :func:`_dump_posterior_means` reads them, and
    ``train_counts`` its class counts; both have one entry per logit column.
    """
    from . import adjust, evaluation, prior
    from .dataset import empirical_prior
    from .numerics import softmax_rows

    n = logits.shape[0]
    if not 0.0 < val_frac < 1.0:
        raise UsageError(f"val fraction must be in (0, 1), got {val_frac}")
    n_val = max(1, int(round(n * val_frac)))
    if n_val >= n:  # n_val is at most n
        raise UsageError(f"--split {val_frac} holds out all {n} rows of --logits, "
                         "leaving none to adjust")
    perm = master.generator().permutation(n)
    val_idx, rest_idx = perm[:n_val], perm[n_val:]

    val = logits[val_idx]
    estimate = prior.pmbar_from_val(softmax_rows(val))
    if train_means is not None:
        means, samples = train_means
        est_train = prior.reweight_means(means, target_prior, empirical_prior(train_counts),
                                         samples)
        estimate = prior.average_estimates(estimate, est_train)

    alpha, curve = prior.tune_alpha_on_logits(
        val, labels[val_idx], "p2p-la", estimate, grid, target_prior
    )
    del val  # freed before the remaining rows are gathered
    spec = adjust.spec_from_estimate("p2p-la", estimate, target_prior, alpha)
    rest = logits[rest_idx]
    before = evaluation.top1_accuracy(np.argmax(rest, axis=1), labels[rest_idx])
    adjusted = adjust.adjust_logits(rest, spec, out=rest)
    after = evaluation.top1_accuracy(np.argmax(adjusted, axis=1), labels[rest_idx])
    return {
        "estimate": estimate.with_alpha(alpha),
        "alpha": alpha,
        "curve": curve,
        "val_size": int(n_val),
        "rest_ids": [ids[i] for i in rest_idx],
        "rest_labels": labels[rest_idx],
        "adjusted_logits": adjusted,
        "top1_before": before,
        "top1_after": after,
    }


@_table
class IngestOptions:
    target_prior: str | np.ndarray | None = _option(None, _target_prior)
    logits: str = _option(None, str, required=True)
    split: float = _option(0.2, float, above=0, below=1, help="holdout fraction for estimation")
    train_logits: str | None = _option(None, str, needs="counts")
    counts: str | None = _option(None, str,
                                 help="training counts JSON for the train-side estimate")
    grid: list[float] = _option(DEFAULT_ALPHA_GRID, list[float], least=0,
                                help="comma-separated alpha grid")
    seed: int | None = _option(None, int)


def cmd_ingest_logits(opts: IngestOptions, names: dict, run: RunDir) -> None:
    from . import prior
    from .dataset import _forked, load_counts
    from .numerics import RngStream

    # the train dump is folded in a forked child while the eval dump is parsed
    train_logits = opts.train_logits
    with _forked(_dump_posterior_means, train_logits) if train_logits else nullcontext() as fold:
        ids, logits, labels = load_logit_dump(opts.logits)
        target = _resolve_target(opts, run, logits.shape[1], positive=True)
        train_means = train_counts = None
        if train_logits:
            train_means = fold()
            train_counts = load_counts(opts.counts)
            _check_classes(f"--counts {opts.counts}", train_counts.size, opts, logits.shape[1])
            _check_classes(f"--train-logits {train_logits}", train_means[0].size, opts,
                           logits.shape[1])
    result = ingest_logits(
        ids,
        logits,
        labels,
        opts.split,
        RngStream(opts.seed).child(17),
        target,
        opts.grid,
        train_means=train_means,
        train_counts=train_counts,
    )
    run.derived["alpha"] = result["alpha"]
    prior.save_prior(result["estimate"], run.output("prior.json"))
    dump = run.output("adjusted_logits.csv")
    if twin := save_logit_dump(result["rest_ids"], result["adjusted_logits"],
                               result["rest_labels"], dump):
        run.output(twin.name)
    report = {
        "val_size": result["val_size"],
        "alpha": result["alpha"],
        "top1_before": result["top1_before"],
        "top1_after": result["top1_after"],
        "delta": result["top1_after"] - result["top1_before"],
        "alpha_curve": result["curve"],
    }
    run.output("ingest_report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"holdout split: {result['val_size']} rows; tuned alpha = {result['alpha']:g}")
    print(f"top-1 before: {result['top1_before']:.4f}  after: {result['top1_after']:.4f}  "
          f"delta: {report['delta']:+.4f}")


# ---------------------------------------------------------------------------
# sweep-alpha


@_table
class SweepOptions(ScoresOptions):
    prior: str = _option(None, str, required=True)
    method: str = _option("p2p-ce", str, choices=tuple(  # those that take a --prior estimate
        m for m, kinds in PRIOR_KINDS.items() if any(k in ESTIMATORS for k in kinds)))
    grid: list[float] = _option(DEFAULT_ALPHA_GRID, list[float], least=0)


def cmd_sweep_alpha(opts: SweepOptions, names: dict, run: RunDir) -> None:
    from . import prior

    estimate = prior.load_prior(opts.prior)
    _, logits, labels = _load_scores(opts)
    _check_classes(f"--prior {opts.prior}", estimate.probs.size, opts, logits.shape[1])
    target = _resolve_target(opts, run, logits.shape[1], positive=True)
    alpha, curve = prior.tune_alpha_on_logits(
        logits, labels, opts.method, estimate, opts.grid, target
    )
    run.output("alpha_curve.csv").write_text(
        "\n".join(["alpha,holdout_accuracy"] + [f"{a!r},{acc!r}" for a, acc in curve]) + "\n"
    )
    run.output("chosen_alpha.json").write_text(json.dumps({"alpha": alpha}) + "\n")
    for a, acc in curve:
        print(f"alpha={a:g}: accuracy={acc:.4f}")
    print(f"chosen alpha: {alpha:g}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcal",
        description="Measure and remove the class prior a classifier absorbed "
        "from long-tailed training data.",
    )
    parser.add_argument("--version", action="version", version=f"tailcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several subcommands share, each declared once
    out, config = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    out.add_argument("--out")
    config.add_argument("--config")
    for name, parents, options, func, check, help in (
        ("gen-data", [out, config], GenOptions, cmd_gen_data, _check_gen_data,
         "synthesize long-tailed Gaussian-mixture datasets"),
        ("train", [out, config], TrainOptions, cmd_train, None,
         "stage-1 or stage-2 training"),
        ("estimate-prior", [out], EstimateOptions, cmd_estimate_prior, None,
         "estimate the effective prior of a model"),
        ("adjust", [out], AdjustOptions, cmd_adjust, _check_adjust,
         "apply a post-hoc prior correction"),
        ("eval", [out], EvalOptions, cmd_eval, partial(_check_scores, "eval"),
         "evaluate a logit dump or model on data"),
        ("toy-experiment", [out], ToyOptions, cmd_toy_experiment, None,
         "seeded multi-trial toy comparison"),
        ("shift-eval", [out], ShiftOptions, cmd_shift_eval, _check_shift_eval,
         "evaluate under shifted test priors"),
        ("ingest-logits", [out], IngestOptions, cmd_ingest_logits, None,
         "correct an externally produced logit dump"),
        ("sweep-alpha", [out], SweepOptions, cmd_sweep_alpha,
         partial(_check_scores, "sweep-alpha"), "grid-search the estimate exponent"),
    ):
        p = sub.add_parser(name, parents=parents, help=help)
        _add_options(p, fields(options))
        p.set_defaults(func=func, options=options, check=check)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        opts, names = _resolve(args, args.options)  # before any input is hashed or read
        if args.check:  # the rules across flags that compute something
            args.check(opts, names)
        # The str value of a row without choices names a file, but a
        # --target-prior of 'uniform' (a list is an array by now).
        rows = [("config", getattr(args, "config", None))] + [
            (o.name, getattr(opts, o.name)) for o in fields(opts) if o.metadata["choices"] is None]
        from .dataset import _sha256

        inputs = {path: _sha256(path).hex() for name, path in rows
                  if isinstance(path, str) and (name, path) != ("target_prior", "uniform")}
        if args.out:
            run = RunDir(Path(args.out))
        else:
            import hashlib

            stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
            digest = hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:8]
            run = RunDir(Path("runs") / f"{stamp}-{digest}")
        args.func(opts, names, run)
        write_manifest(run, args.command, argv, asdict(opts) | run.derived, inputs, started)
        sys.stdout.flush()  # a finished run's notices follow its stdout, also in one pipe
        sys.stderr.write("".join(f"notice: {line}\n" for line in run.notices))
        return 0
    except TailcalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


def entry() -> None:
    code = main()
    # Frozen objects are out of the collector's reach, so shutdown does not
    # traverse them; finalizers, atexit handlers and stream flushes still run.
    # Not in main(): an in-process caller would keep every object alive.
    gc.freeze()
    sys.exit(code)
