"""Experiment orchestration: the full incremental protocol over all methods.

One run builds (or loads) a dataset, imbalances and splits it, walks the
incremental states training the classifier on new-class data plus the
exemplar memory, fits every requested calibrator per state, and scores
everything on the balanced test set of the classes seen so far.

Class labels are remapped to introduction order before the loop, so class
id and model row coincide everywhere downstream.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import backbone, calibration, dataset, memory, metrics
from .errors import ConfigurationError, ParameterError
from .rng import derive_seed

ALL_METHODS = ("none",) + calibration.METHOD_TAGS


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int
    dim: int
    per_class: int
    separation: float = 5.0
    noise: float = 1.0
    test_per_class: int | None = None


@dataclass
class ExperimentConfig:
    num_states: int
    memory: int
    synthetic: SyntheticSpec | None = None
    features_path: str | None = None
    manifest_path: str | None = None
    imbalance_kind: str = "none"
    train: backbone.TrainConfig = field(default_factory=backbone.TrainConfig)
    methods: tuple = ALL_METHODS
    val_fraction: float = 0.1
    data_seed: int = 0
    model_seed: int = 0
    protocol_seed: int = 0
    class_order: tuple | None = None
    ece_bins: int = metrics.ECE_BINS_DEFAULT
    output_dir: str | None = None

    def __post_init__(self):
        if (self.synthetic is None) == (self.features_path is None):
            raise ParameterError("data must configure exactly one of 'synthetic' or 'features'")
        if not self.methods:
            raise ParameterError("methods must name at least one calibrator tag")
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ParameterError(f"unknown calibrator tags: {sorted(unknown)}")
        if self.memory < 0 or self.num_states < 2:
            raise ParameterError("memory must be >= 0 and num_states >= 2")
        if self.ece_bins < 1:
            raise ParameterError(f"ece_bins must be >= 1, got {self.ece_bins}")
        if self.imbalance_kind not in dataset.IMBALANCE_KINDS:
            raise ParameterError(
                f"imbalance must be one of {', '.join(dataset.IMBALANCE_KINDS)}, "
                f"got {self.imbalance_kind!r}"
            )
        if not 0 < self.val_fraction < 1:
            raise ParameterError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")


# Each JSON type a config key may take, "a JSON <type>" in messages, and the
# Python types it reads as. A bool is none of them, though Python calls it an int.
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str, "object": dict,
               "list of tags": list, "list of class ids": list}

# Each config section's keys: JSON key -> (the field it sets, its JSON type).
# An "object" key is a section of its own, whose fields build the dataclass in
# _SECTION_TYPES or, where its field is None, join its parent's fields. A key
# left out sets nothing, so each default is written only in its dataclass.
_SECTIONS = {
    "": {
        "num_states": ("num_states", "integer"),
        "memory": ("memory", "integer"),
        "data": (None, "object"),
        "imbalance": ("imbalance_kind", "string"),
        "train": ("train", "object"),
        "methods": ("methods", "list of tags"),
        "val_fraction": ("val_fraction", "number"),
        "seeds": (None, "object"),
        "class_order": ("class_order", "list of class ids"),
        "ece_bins": ("ece_bins", "integer"),
        "output_dir": ("output_dir", "string"),
    },
    "data": {"synthetic": ("synthetic", "object"), "features": (None, "object")},
    "synthetic": {
        "classes": ("classes", "integer"),
        "dim": ("dim", "integer"),
        "per_class": ("per_class", "integer"),
        "separation": ("separation", "number"),
        "noise": ("noise", "number"),
        "test_per_class": ("test_per_class", "integer"),
    },
    "features": {"features_path": ("features_path", "string"),
                 "manifest_path": ("manifest_path", "string")},
    "train": {
        "epochs": ("epochs", "integer"),
        "lr": ("initial_lr", "number"),
        "patience": ("plateau_patience", "integer"),
        "decay": ("lr_decay", "number"),
        "batch_size": ("batch_size", "integer"),
    },
    "seeds": {"data": ("data_seed", "integer"), "model": ("model_seed", "integer"),
              "protocol": ("protocol_seed", "integer")},
}
_SECTION_TYPES = {"synthetic": SyntheticSpec, "train": backbone.TrainConfig}
# keys by the section-qualified names that messages give
REQUIRED_KEYS = ("num_states", "memory", "data", "synthetic.classes", "synthetic.dim",
                 "synthetic.per_class", "features.features_path", "features.manifest_path")
NULLABLE_KEYS = ("class_order", "output_dir", "synthetic.test_per_class")


def _fields(obj, section=""):
    """The fields that ``obj``, a JSON object of ``section``, sets: {field: value}.

    Refuses the first key the section does not define; then, in table order,
    a required key that is missing and a value not of its key's JSON type.
    """
    keys = _SECTIONS[section]
    prefix = section and section + "."
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ParameterError(f"unknown config key {prefix}{unknown[0]}")
    fields = {}
    for key, (name, kind) in keys.items():
        qualified = prefix + key
        value = obj.get(key)
        if key not in obj:
            if qualified in REQUIRED_KEYS:
                raise ParameterError(f"missing config key {qualified}")
        elif value is None and qualified in NULLABLE_KEYS:
            fields[name] = None
        elif not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool):
            raise ParameterError(f"{qualified} must be a JSON {kind}, got {value!r}")
        elif kind == "object" and name is None:
            fields.update(_fields(value, key))
        elif kind == "object":
            fields[name] = _SECTION_TYPES[key](**_fields(value, key))
        elif kind == "number":
            fields[name] = float(value)
            if not np.isfinite(fields[name]):
                raise ParameterError(f"{qualified} must be finite, got {fields[name]!r}")
        elif kind.startswith("list"):
            bad = [c for c in value if type(c) is not int]
            if kind == "list of class ids" and bad:
                raise ParameterError(f"{qualified} entries must be JSON integers, got {bad[0]!r}")
            fields[name] = tuple(value)
        else:
            fields[name] = value
    return fields


def config_from_dict(obj):
    """Build an ExperimentConfig from the documented JSON schema."""
    if not isinstance(obj, dict):
        raise ParameterError("the experiment config must be a JSON object")
    try:
        return ExperimentConfig(**_fields(obj))
    except (TypeError, OverflowError) as exc:
        raise ParameterError(f"bad experiment config: {exc}") from exc


def _build_table(cfg):
    if cfg.synthetic is not None:
        s = cfg.synthetic
        table = dataset.generate_synthetic(
            s.classes, s.dim, s.per_class, s.separation, s.noise,
            cfg.data_seed, test_per_class=s.test_per_class,
        )
    else:
        table = dataset.load_features(cfg.features_path, cfg.manifest_path)
    table = dataset.apply_imbalance(table, cfg.imbalance_kind, cfg.data_seed)
    return dataset.split_train_val(table, cfg.val_fraction, derive_seed(cfg.data_seed, 1))


def run_experiment(cfg):
    """Execute the protocol; returns (state reports, summary dict)."""
    table = _build_table(cfg)
    plan = dataset.plan_states(
        table, cfg.num_states,
        cfg.class_order if cfg.class_order is not None else cfg.protocol_seed,
    )
    seen_by_state = np.cumsum(plan.classes_per_state)
    # nem and bal need an exemplar of every class seen, so B >= classes
    needs_exemplars = [m for m in cfg.methods if m in calibration.FEATURE_METHODS]
    if needs_exemplars and cfg.memory < seen_by_state[-1]:
        k = int(np.argmax(seen_by_state > cfg.memory))
        raise ConfigurationError(
            f"state {k + 1}, method {needs_exemplars[0]}: memory {cfg.memory} is "
            f"smaller than the {seen_by_state[k]} classes seen"
        )
    # one-vs-all Platt scaling needs a negative class at every state
    if "pl" in cfg.methods and plan.classes_per_state[0] == 1:
        raise ConfigurationError(
            "state 1, method pl: the state holds a single class, so one-vs-all "
            "Platt scaling has no negative sample"
        )
    # each state trains on an exemplar of every old class, so B >= classes
    # seen before the last state
    if cfg.memory < seen_by_state[-2]:
        k = int(np.argmax(seen_by_state > cfg.memory))
        raise ConfigurationError(
            f"state {k + 2}: memory {cfg.memory} is smaller than the "
            f"{seen_by_state[k]} classes seen before it"
        )
    # remap labels to introduction order: class id == model row
    mapping = {orig: i for i, orig in enumerate(plan.ordering)}
    table = table.relabeled(mapping)

    buffer = memory.MemoryBuffer.empty(cfg.memory)
    model = None
    reports = []
    starts = seen_by_state - plan.classes_per_state
    for k, (start, seen) in enumerate(zip(starts, seen_by_state), start=1):
        model, buffer, report = _run_state(cfg, k, table, model, buffer, range(start, seen))
        reports.append(report)

    summary = summarize(reports, cfg.methods)
    return reports, summary


def _run_state(cfg, k, table, model, buffer, new_ids):
    """State ``k``, which adds the classes ``new_ids``: (model, buffer, report).

    The state's rows are picked here, once, as row ids into ``table``: the
    new classes' train and val rows in table order, then the memory's rows
    class by class in herded order. They are checked, then trained on and
    admitted; the state's tables and score matrices live only in this call,
    and each is dropped after its last reader.
    """
    new = (table.labels >= new_ids.start) & (table.labels < new_ids.stop)
    new_rows = np.flatnonzero(new & (table.splits != dataset.TEST))
    rows = np.concatenate([new_rows, memory.memory_dataset(buffer)])
    labels = table.labels[rows]
    train = table.splits[rows] == dataset.TRAIN
    counts = np.bincount(labels[train], minlength=new_ids.stop)
    if np.any(counts == 0):
        raise ConfigurationError(f"state {k}: a class has no train records")
    if train.all():
        raise ConfigurationError(f"state {k}: no validation samples")
    if not np.any(labels[~train] >= new_ids.start):
        raise ConfigurationError(f"state {k}: no samples from new classes")

    model = backbone.extend_model(model, len(new_ids), table.dim, derive_seed(cfg.model_seed, 1, k))
    train_part = table.subset(rows[train])
    train_config = replace(cfg.train, seed=derive_seed(cfg.model_seed, 1000, k))
    model = backbone.train(model, train_part, train_config)
    # the training scores are made only for the methods that read them, and
    # live until the last of those has run
    last_reader = max((i for i, m in enumerate(cfg.methods)
                       if m in calibration.TRAIN_SCORE_METHODS), default=None)
    train_scores = None if last_reader is None else backbone.scores(model, train_part.features)
    train_labels = train_part.labels
    del train_part  # herding and the calibrators run without the training copy
    buffer = memory.admit_and_rebalance(buffer, table, new_rows)

    val_rows = rows[~train]
    ctx = calibration.CalibContext(
        train_scores=train_scores,
        train_labels=train_labels,
        val_scores=backbone.scores(model, table.features[val_rows]),
        val_labels=labels[~train],
        class_counts=counts,
        old_classes=tuple(range(new_ids.start)),
        new_classes=tuple(new_ids),
        table=table,
        buffer=buffer,
    )
    del train_scores  # ctx holds them alone
    mu_old, mu_new = metrics.group_mean_scores(
        ctx.val_scores, ctx.val_labels, (ctx.old_classes, ctx.new_classes)
    )

    test_part = table.subset((table.splits == dataset.TEST) & (table.labels < new_ids.stop))
    raw = backbone.scores(model, test_part.features)
    bal_config = replace(cfg.train, seed=derive_seed(cfg.model_seed, 2000, k))
    per_method = {}
    for i, method in enumerate(cfg.methods):
        try:
            calibrated = calibration.calibrate(
                method, ctx, raw, test_part.features, model, bal_config
            )
        except (ParameterError, ConfigurationError) as exc:
            raise ConfigurationError(f"state {k}, method {method}: {exc}") from exc
        if i == last_reader:
            ctx = replace(ctx, train_scores=None)
        preds = calibration.predict(calibrated)
        # the ECE softmax overwrites a method's own scores, but never raw,
        # which the later methods read
        probs_out = None if calibrated is raw else calibrated
        per_method[method] = metrics.MethodResult(
            top1=metrics.top1(preds, test_part.labels),
            ece=metrics.ece(backbone.softmax(calibrated, out=probs_out), preds,
                            test_part.labels, cfg.ece_bins),
        )
        # the next method fits without this one's (test rows, classes) scores
        del calibrated, preds, probs_out
    return model, buffer, metrics.StateReport(k, mu_old, mu_new, per_method)


def summarize(reports, methods):
    """Per-method averages over states 2..k (the first state is ignored)."""
    summary = {}
    for method in methods:
        summary[method] = {
            "avg_top1": metrics.average_incremental_accuracy(
                [r.per_method[method].top1 for r in reports]
            ),
            "avg_ece": metrics.average_incremental_accuracy(
                [r.per_method[method].ece for r in reports]
            ),
        }
    return summary


def _fmt(value):
    return "" if value is None else format(value, ".10g")


def write_outputs(reports, summary, out_dir):
    """Write states.csv, summary.json and figdata.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "states.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "method", "top1", "ece", "mean_old", "mean_new"])
        for r in reports:
            for method, res in r.per_method.items():
                writer.writerow(
                    [r.state_index, method, _fmt(res.top1), _fmt(res.ece),
                     _fmt(r.mean_score_old), _fmt(r.mean_score_new)]
                )
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "figdata.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state", "mu_old", "mu_new"])
        for r in reports:
            if r.state_index >= 2:
                writer.writerow(
                    [r.state_index, _fmt(r.mean_score_old), _fmt(r.mean_score_new)]
                )
