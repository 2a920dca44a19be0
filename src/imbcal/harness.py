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


_REQUIRED = object()


def _typed(obj, key, kind, default, described, section=""):
    """``obj[key]`` (or ``default`` when absent) if it is a ``kind`` other than bool.

    A ``default`` of _REQUIRED makes the key required.
    """
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise KeyError(key)
    if value is not default and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ParameterError(f"{section}{key} must be {described}, got {value!r}")
    return value


def _integer(obj, key, default=_REQUIRED, section=""):
    """``obj[key]`` as a JSON integer; ``3.0`` and ``true`` are refused."""
    return _typed(obj, key, int, default, "a JSON integer", section)


def _number(obj, key, default, section=""):
    """``obj[key]`` as a finite float from a JSON number; ``true``, ``"7"`` and NaN are refused."""
    value = float(_typed(obj, key, (int, float), default, "a JSON number", section))
    if not np.isfinite(value):
        raise ParameterError(f"{section}{key} must be finite, got {value!r}")
    return value


def _string(obj, key, default=_REQUIRED, section=""):
    """``obj[key]`` as a JSON string; a null ``default`` also passes a null value."""
    return _typed(obj, key, str, default, "a JSON string", section)


def _known(obj, keys, section=""):
    """``obj`` if it defines no key outside ``keys``; the first other key is refused."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ParameterError(f"unknown config key {section}{unknown[0]}")
    return obj


def config_from_dict(obj):
    """Build an ExperimentConfig from the documented JSON schema."""
    if not isinstance(obj, dict):
        raise ParameterError("the experiment config must be a JSON object")
    _known(obj, ("num_states", "memory", "data", "imbalance", "train", "methods",
                 "val_fraction", "seeds", "class_order", "ece_bins", "output_dir"))
    try:
        data = _known(_typed(obj, "data", dict, _REQUIRED, "a JSON object"),
                      ("synthetic", "features"), "data.")
        synthetic = features_path = manifest_path = None
        if "synthetic" in data:
            s = _known(_typed(data, "synthetic", dict, _REQUIRED, "a JSON object", "data."),
                       ("classes", "dim", "per_class", "separation", "noise", "test_per_class"),
                       "synthetic.")
            synthetic = SyntheticSpec(
                classes=_integer(s, "classes", section="synthetic."),
                dim=_integer(s, "dim", section="synthetic."),
                per_class=_integer(s, "per_class", section="synthetic."),
                separation=_number(s, "separation", 5.0, "synthetic."),
                noise=_number(s, "noise", 1.0, "synthetic."),
                test_per_class=_integer(s, "test_per_class", None, "synthetic."),
            )
        if "features" in data:
            f = _known(_typed(data, "features", dict, _REQUIRED, "a JSON object", "data."),
                       ("features_path", "manifest_path"), "features.")
            features_path = _string(f, "features_path", section="features.")
            manifest_path = _string(f, "manifest_path", section="features.")
        t = _known(_typed(obj, "train", dict, {}, "a JSON object"),
                   ("epochs", "lr", "patience", "decay", "batch_size"), "train.")
        seeds = _known(_typed(obj, "seeds", dict, {}, "a JSON object"),
                       ("data", "model", "protocol"), "seeds.")
        methods = _typed(obj, "methods", list, list(ALL_METHODS), "a JSON list of tags")
        class_order = _typed(obj, "class_order", list, None, "a JSON list of class ids")
        bad = [c for c in class_order or () if type(c) is not int]
        if bad:
            raise ParameterError(f"class_order entries must be JSON integers, got {bad[0]!r}")
        return ExperimentConfig(
            num_states=_integer(obj, "num_states"),
            memory=_integer(obj, "memory"),
            synthetic=synthetic,
            features_path=features_path,
            manifest_path=manifest_path,
            imbalance_kind=_string(obj, "imbalance", "none"),
            train=backbone.TrainConfig(
                epochs=_integer(t, "epochs", 25, "train."),
                initial_lr=_number(t, "lr", 0.1, "train."),
                plateau_patience=_integer(t, "patience", 5, "train."),
                lr_decay=_number(t, "decay", 0.1, "train."),
                batch_size=_integer(t, "batch_size", 32, "train."),
            ),
            methods=tuple(methods),
            val_fraction=_number(obj, "val_fraction", 0.1),
            data_seed=_integer(seeds, "data", 0, "seeds."),
            model_seed=_integer(seeds, "model", 0, "seeds."),
            protocol_seed=_integer(seeds, "protocol", 0, "seeds."),
            class_order=None if class_order is None else tuple(class_order),
            ece_bins=_integer(obj, "ece_bins", metrics.ECE_BINS_DEFAULT),
            output_dir=_string(obj, "output_dir", None),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ParameterError):
            raise
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

    The state's tables and score matrices live only in this call.
    """
    model = backbone.extend_model(model, len(new_ids), table.dim, derive_seed(cfg.model_seed, 1, k))
    current = dataset.DatasetTable.concat([
        table.only(split=(dataset.TRAIN, dataset.VAL), classes=new_ids),
        memory.memory_dataset(buffer, table),
    ])
    train_config = replace(cfg.train, seed=derive_seed(cfg.model_seed, 1000, k))
    model = backbone.train(model, current, train_config)
    buffer = memory.admit_and_rebalance(buffer, table, new_ids)

    # current holds only train and val rows
    train = current.splits == dataset.TRAIN
    counts = np.bincount(current.labels[train], minlength=new_ids.stop)
    if np.any(counts == 0):
        raise ConfigurationError(f"state {k}: a class has no train records")
    ctx = calibration.CalibContext(
        train_scores=backbone.scores(model, current.features[train]),
        train_labels=current.labels[train],
        val_scores=backbone.scores(model, current.features[~train]),
        val_labels=current.labels[~train],
        class_counts=counts,
        old_classes=tuple(range(new_ids.start)),
        new_classes=tuple(new_ids),
        table=table,
        buffer=buffer,
    )

    test_part = table.only(split=dataset.TEST, classes=range(new_ids.stop))
    raw = backbone.scores(model, test_part.features)
    bal_config = replace(cfg.train, seed=derive_seed(cfg.model_seed, 2000, k))
    per_method = {}
    for method in cfg.methods:
        try:
            calibrated = calibration.calibrate(
                method, ctx, raw, test_part.features, model, bal_config
            )
        except (ParameterError, ConfigurationError) as exc:
            raise ConfigurationError(f"state {k}, method {method}: {exc}") from exc
        preds = calibration.predict(calibrated)
        per_method[method] = metrics.MethodResult(
            top1=metrics.top1(preds, test_part.labels),
            ece=metrics.ece(backbone.softmax(calibrated), preds, test_part.labels, cfg.ece_bins),
        )
    mu_old, mu_new = metrics.group_mean_scores(
        ctx.val_scores, ctx.val_labels, ctx.old_classes, ctx.new_classes
    )
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
