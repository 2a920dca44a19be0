"""Command-line entry point.

Subcommands:
  run        execute a full experiment from a JSON config
  gen        write a synthetic feature CSV + manifest
  breaks     Fisher-Jenks natural breaks of a value list, as JSON
  calibrate  fit-and-apply a score-based calibrator to a labeled score CSV

Exit codes: 0 success, 2 configuration/usage error, 3 data or file error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import calibration, dataset, harness
from .breaks import fisher_jenks
from .errors import ConfigurationError, FormatError, ParameterError

# calibrators that can be fitted from a labeled score file alone
SCORE_METHODS = tuple(
    m for m in calibration.METHOD_TAGS if m not in calibration.FEATURE_METHODS
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="imbcal",
        description="Incremental-learning calibration experiments on feature data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (default: config output_dir or '.')")

    p_gen = sub.add_parser("gen", help="generate a synthetic feature file")
    p_gen.add_argument("--classes", type=int, required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--per-class", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="feature CSV path; manifest goes next to it")
    p_gen.add_argument("--separation", type=float, default=5.0)
    p_gen.add_argument("--noise", type=float, default=1.0)
    p_gen.add_argument("--test-per-class", type=int, default=None)

    p_breaks = sub.add_parser("breaks", help="Fisher-Jenks natural breaks")
    p_breaks.add_argument("--values", required=True, help="comma-separated numbers")
    p_breaks.add_argument("--k", type=int, required=True, help="number of clusters")

    p_cal = sub.add_parser("calibrate", help="fit and apply a calibrator to a score CSV")
    p_cal.add_argument("--method", required=True, choices=SCORE_METHODS)
    p_cal.add_argument("--scores", required=True, help="CSV with header label,s0,...,s{N-1}")
    p_cal.add_argument("--counts", default=None, help="CSV of class,count rows (th, fj)")
    p_cal.add_argument("--old", default=None, help="comma-separated old class ids (mb)")
    p_cal.add_argument("--new", default=None, help="comma-separated new class ids (mb)")
    p_cal.add_argument("--out", default=None, help="output CSV (default: stdout)")
    return parser


def _read_scores(path):
    with dataset.open_text(path) as fh:
        header = dataset.read_header(fh, path)
        if not header or header[0] != "label":
            raise FormatError(f"{path}: first column must be 'label'")
        n_cols = len(header) - 1
        if n_cols < 1:
            raise FormatError(f"{path}: no score columns")
        # raised after the non-finite check, which takes precedence
        out_of_range = []

        def parse_label(lineno, fields, n_fields):
            if n_fields != n_cols + 1:
                raise FormatError(f"{path}: line {lineno}: expected {n_cols + 1} fields")
            try:
                label = dataset._class_id(fields[0])
            except ValueError:
                raise FormatError(f"{path}: line {lineno}: non-numeric value") from None
            fault = dataset._label_fault(label, n_cols)
            if fault is not None and not out_of_range:
                out_of_range.append(FormatError(f"{path}: line {lineno}: {fault}"))
            return label

        labels, scores = dataset.read_rows(fh, path, 1, n_cols, parse_label, "non-numeric value")
    if not labels:
        raise FormatError(f"{path}: no records")
    bad = np.flatnonzero(~np.isfinite(scores).all(axis=1))
    if len(bad):
        raise FormatError(f"{path}: line {bad[0] + 2}: non-finite score")
    if out_of_range:
        raise out_of_range[0]
    return scores, np.array(labels, dtype=np.int64)


def _read_counts(path, num_classes):
    listed = np.zeros(num_classes, dtype=bool)

    def parse_class(lineno, fields, n_fields):
        if n_fields != 2:
            raise FormatError(f"{path}: line {lineno}: expected class,count")
        try:
            if not dataset._INTEGER.fullmatch(fields[1]):
                raise ValueError("not an integer")
            c = dataset._class_id(fields[0])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: non-integer value") from None
        if np.isinf(float(fields[1])):
            raise FormatError(f"{path}: line {lineno}: count too large for a float")
        if c is None:
            raise FormatError(f"{path}: line {lineno}: class id out of range, too many digits")
        if not 0 <= c < num_classes:
            raise FormatError(f"{path}: line {lineno}: class {c} out of range")
        if listed[c]:
            raise FormatError(f"{path}: line {lineno}: class {c} listed twice")
        listed[c] = True
        return c

    with dataset.open_text(path) as fh:
        classes, values = dataset.read_rows(fh, path, 1, 1, parse_class, "non-integer value", 1)
    counts = np.zeros(num_classes)
    counts[classes] = values[:, 0] + 0.0  # + 0.0 reads a count of -0 as 0
    bad = np.flatnonzero(counts <= 0)
    if len(bad):
        raise FormatError(
            f"{path}: every class needs a positive count, class {bad[0]} has {counts[bad[0]]:g}"
        )
    return counts


def _parse_ids(text, num_classes, option):
    if text is None:
        raise ParameterError(f"--{option} is required for this method")
    try:
        ids = tuple(dataset._class_id(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise ParameterError(f"--{option}: class ids must be comma-separated integers") from None
    if any(c is None or not 0 <= c < num_classes for c in ids):
        raise ParameterError(f"--{option}: class id out of range")
    return ids


def _cmd_run(args):
    try:
        with dataset.open_text(args.config) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{args.config}: invalid JSON ({exc})") from exc
    cfg = harness.config_from_dict(obj)
    out_dir = args.out or cfg.output_dir or "."
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise ParameterError(f"{out_dir}: output path exists and is not a directory")
    ancestor = os.path.abspath(out_dir)
    while not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if not os.path.isdir(ancestor):
        raise OSError(f"cannot write outputs to {out_dir}: {ancestor} is not a directory")
    reports, summary = harness.run_experiment(cfg)
    try:
        harness.write_outputs(reports, summary, out_dir)
    except OSError as exc:
        raise OSError(f"cannot write outputs to {out_dir}: {exc}") from exc
    print(f"wrote states.csv, summary.json, figdata.csv to {out_dir}")


def _cmd_gen(args):
    table = dataset.generate_synthetic(
        args.classes, args.dim, args.per_class, args.separation, args.noise,
        args.seed, test_per_class=args.test_per_class,
    )
    manifest = args.out + ".manifest.json"
    dataset.save_features(table, args.out, manifest, name=f"synthetic-{args.seed}")
    print(f"wrote {args.out} and {manifest}")


def _cmd_breaks(args):
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ParameterError("--values must be a comma-separated list of numbers") from None
    result = fisher_jenks(values, args.k)
    print(json.dumps({
        "boundaries": list(result.boundaries),
        "ssd": result.ssd,
        "assignments": result.assignments.tolist(),
    }))


def _cmd_calibrate(args):
    scores, labels = _read_scores(args.scores)
    n_classes = scores.shape[1]
    # class priors only matter for th/fj; the others get uniform placeholders
    counts = np.ones(n_classes)
    if args.method in ("th", "fj"):
        if args.counts is None:
            raise ParameterError(f"--counts is required for method {args.method}")
        counts = _read_counts(args.counts, n_classes)
    if args.method == "mb":
        old = _parse_ids(args.old, n_classes, "old")
        new = _parse_ids(args.new, n_classes, "new")
        shared = sorted(set(old) & set(new))
        if shared:
            raise ParameterError(f"--old and --new share class {shared[0]}")
    else:
        old, new = (), tuple(range(n_classes))

    ctx = calibration.CalibContext(
        train_scores=scores, train_labels=labels,
        val_scores=scores, val_labels=labels,
        class_counts=counts, old_classes=old, new_classes=new,
    )
    out = calibration.calibrate(args.method, ctx, scores)

    target = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["label"] + [f"s{i}" for i in range(n_classes)])
        for y, row in zip(labels, out):
            writer.writerow([int(y)] + [format(v, ".10g") for v in row])
    finally:
        if args.out:
            target.close()


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "gen": _cmd_gen,
        "breaks": _cmd_breaks,
        "calibrate": _cmd_calibrate,
    }
    try:
        handlers[args.command](args)
    except (ParameterError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
