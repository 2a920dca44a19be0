"""Span recorder for the traced benchmark run, and the per-layer arithmetic.

The recorder replaces module attributes of imbcal with wrappers, from the
outside: every call the program makes through a wrapped attribute becomes
a span (id, parent id, name, start, end, tracemalloc peak, info). Spans are
kept in memory and written out once, when the traced invocation ends.

A span's name is ``<layer>.<function>``; the layer is the imbcal module the
function lives in. Self time is a span's duration minus the durations of
its children. The program is single-threaded, so children never overlap
and the sum of all self times equals the sum of the root spans.
"""

from __future__ import annotations

import functools
import statistics
import time
import tracemalloc

# span tuple fields
ID, PARENT, NAME, START, END, PEAK, INFO = range(7)

LAYERS = (
    "import", "cli", "harness", "dataset", "backbone",
    "memory", "breaks", "calibration", "metrics",
)

CALIBRATORS = {
    "iso": ("fit_isotonic", "apply_isotonic"),
    "pl": ("fit_platt", "apply_platt"),
    "th": ("fit_threshold", "apply_threshold"),
    "nem": ("fit_nem", "apply_nem"),
    "bal": ("fit_balanced", "apply_balanced"),
    "mb": ("fit_mb", "apply_mb"),
    "fj": ("fit_fj", "apply_fj"),
}


class Recorder:
    """Nested spans held in memory, optionally with a tracemalloc peak each.

    tracemalloc slows every Python allocation several-fold, far more in
    pure-Python loops than in numpy code, so spans timed with it on would
    misstate the layers' shares. Time spans with ``memory=False`` and take
    allocation peaks from a separate invocation with ``memory=True``.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self._stack = []  # open spans: [id, parent, name, start, alloc_at_enter, running_peak]
        self._patched = []
        self._next_id = 0

    def start(self):
        if self.memory:
            tracemalloc.start()

    def stop(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self.memory:
            tracemalloc.stop()

    def _enter(self, name):
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][5] = max(self._stack[-1][5], peak)
            tracemalloc.reset_peak()
        parent_id = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent_id, name, 0.0, current, current]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame, info=None, *call):
        end = time.perf_counter()
        self._stack.pop()
        top = frame[5]
        if self.memory:
            top = max(top, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1][5] = max(self._stack[-1][5], top)
            tracemalloc.reset_peak()
        counts = info(*call) if info else None
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end, top - frame[4], counts))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def wrap(self, module, attr, layer, info=None, skip_within_layer=False):
        """Record every call made through ``module.attr``.

        ``info(args, result)`` adds counts to the span. With
        ``skip_within_layer`` a call made from inside a span of the same
        layer is not recorded (a hot helper the layer calls in its inner
        loop is not a layer boundary).
        """
        original = getattr(module, attr)
        name = f"{layer}.{attr}"
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if skip_within_layer and stack and stack[-1][2].startswith(layer + "."):
                return original(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._exit(frame)
                raise
            self._exit(frame, info, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))


def _train_batches(args, result):
    table, config = args[1], args[2]
    n = int((table.splits == "train").sum())
    return {"batches": config.epochs * -(-n // config.batch_size)}


def _rows(args, result):
    return {"rows": len(result)}


def _admitted(args, result):
    old = args[0].classes
    return {"kept": sum(len(s) for c, s in result.classes.items() if c not in old)}


def _platt_flags(args, result):
    converged = result.flags["converged"]
    return {"classes": int(len(converged)), "converged": int(converged.sum())}


def install(recorder):
    """Wrap the attributes imbcal's own code looks up, module by module."""
    from imbcal import backbone, calibration, dataset, harness, memory, metrics

    w = recorder.wrap
    w(dataset, "generate_synthetic", "dataset", _rows)
    w(dataset, "load_features", "dataset", _rows)
    for attr in ("apply_imbalance", "split_train_val", "plan_states"):
        w(dataset, attr, "dataset")
    w(backbone, "train", "backbone", _train_batches)
    w(backbone, "extend_model", "backbone")
    w(backbone, "scores", "backbone")
    # train calls softmax once per mini-batch through the same global
    w(backbone, "softmax", "backbone", skip_within_layer=True)
    w(memory, "admit_and_rebalance", "memory", _admitted)
    w(memory, "memory_dataset", "memory")
    w(memory, "herd_order", "memory", _rows)
    # calibration imports fisher_jenks by name, so wrap that binding
    w(calibration, "fisher_jenks", "breaks")
    for fit, apply in CALIBRATORS.values():
        w(calibration, fit, "calibration", _platt_flags if fit == "fit_platt" else None)
        w(calibration, apply, "calibration")
    w(calibration, "pava", "calibration")
    w(calibration, "predict", "calibration")
    for attr in ("top1", "ece", "group_mean_scores", "average_incremental_accuracy"):
        w(metrics, attr, "metrics")
    for attr in ("config_from_dict", "run_experiment", "write_outputs"):
        w(harness, attr, "harness")


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans):
    """Map span id -> duration minus the durations of its direct children."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_self_times(spans):
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s[NAME].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own[s[ID]]
    return totals


def layer_metrics(spans):
    """Per-layer metrics of one traced invocation, from its spans alone."""
    own = self_times(spans)
    by_id = {s[ID]: s for s in spans}

    def named(name):
        return [s for s in spans if s[NAME] == name]

    def total(*names):
        return sum(s[END] - s[START] for n in names for s in named(n))

    def parent_name(s):
        return by_id[s[PARENT]][NAME] if s[PARENT] is not None else None

    def info_sum(name, key):
        return sum((s[INFO] or {}).get(key, 0) for s in named(name))

    out = {}
    build_s = total("dataset.generate_synthetic", "dataset.load_features")
    rows = info_sum("dataset.generate_synthetic", "rows") + info_sum("dataset.load_features", "rows")
    out["dataset.build_s"] = build_s
    out["dataset.load_rows_per_s"] = rows / build_s if build_s > 0 else 0.0
    out["dataset.prep_s"] = total("dataset.apply_imbalance", "dataset.split_train_val",
                                  "dataset.plan_states")

    harness_train = [s for s in named("backbone.train")
                     if parent_name(s) == "harness.run_experiment"]
    out["backbone.train_s"] = sum(own[s[ID]] for s in harness_train)
    out["backbone.train_batches"] = sum((s[INFO] or {}).get("batches", 0) for s in harness_train)
    out["backbone.scores_s"] = total("backbone.scores")

    out["memory.admit_s"] = total("memory.admit_and_rebalance")
    out["memory.herd_s"] = total("memory.herd_order")
    herd_rows = info_sum("memory.herd_order", "rows")
    out["memory.herd_rows"] = herd_rows
    kept = info_sum("memory.admit_and_rebalance", "kept")
    out["memory.herd_kept_ratio"] = kept / herd_rows if herd_rows else 0.0

    out["breaks.fisher_jenks_s"] = total("breaks.fisher_jenks")
    out["breaks.fisher_jenks_calls"] = len(named("breaks.fisher_jenks"))

    for tag, (fit, apply) in CALIBRATORS.items():
        out[f"calibration.{tag}.fit_s"] = total(f"calibration.{fit}")
        out[f"calibration.{tag}.apply_s"] = total(f"calibration.{apply}")
    out["calibration.iso.pava_calls"] = len(named("calibration.pava"))
    fitted = info_sum("calibration.fit_platt", "classes")
    out["calibration.pl.classes_fitted"] = fitted
    out["calibration.pl.converged_ratio"] = (
        info_sum("calibration.fit_platt", "converged") / fitted if fitted else 0.0
    )
    out["calibration.bal.train_s"] = sum(
        s[END] - s[START] for s in named("backbone.train")
        if parent_name(s) == "calibration.fit_balanced"
    )
    nem = named("calibration.fit_nem") + named("calibration.apply_nem")
    out["calibration.nem.alloc_peak_mb"] = max((s[PEAK] for s in nem), default=0) / 2**20

    out["metrics.ece_s"] = total("metrics.ece")
    layers = layer_self_times(spans)
    out["metrics.s"] = layers["metrics"]
    out["harness.self_s"] = sum(own[s[ID]] for s in named("harness.run_experiment"))
    out["harness.write_s"] = total("harness.write_outputs")
    out["cli.config_s"] = total("harness.config_from_dict")

    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = layers[layer]
    out["trace.spans"] = len(spans)
    return out


def add_shares(metrics):
    """Each layer's self time as a share of all layers' self time."""
    total = sum(metrics[f"layer.{layer}.self_s"] for layer in LAYERS)
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = metrics[f"layer.{layer}.self_s"] / total if total > 0 else 0.0
    return metrics


def roots_total(spans):
    return sum(s[END] - s[START] for s in spans if s[PARENT] is None)


def median_metrics(per_invocation):
    """Median of each metric over the traced invocations."""
    return {k: statistics.median(m[k] for m in per_invocation) for k in per_invocation[0]}
