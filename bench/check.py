"""Checks on the three files one `imbcal run` writes.

``check_outputs`` tests the files against each other and against the
config: one states.csv row per (state, method) in order, accuracies that
are whole counts of the balanced test set, and summary.json and
figdata.csv that agree with states.csv. ``compare_reference`` tests them
against outputs recorded from an earlier commit. Each returns a list of
problems; an empty list means the outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

FILES = ("states.csv", "summary.json", "figdata.csv")
STATES_HEADER = ["state", "method", "top1", "ece", "mean_old", "mean_new"]
# states.csv holds 10 significant digits; summary.json is computed unrounded
REL_TOL = 1e-8


def read_outputs(out_dir):
    """File name -> text, for the files that exist."""
    out_dir = Path(out_dir)
    return {name: (out_dir / name).read_text(encoding="utf-8")
            for name in FILES if (out_dir / name).is_file()}


def digest(texts):
    return hashlib.sha256("\0".join(texts.get(name, "") for name in FILES).encode()).hexdigest()


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _num(text):
    return None if text == "" else float(text)


def balanced_test_sizes(classes, num_states, test_per_class):
    """Test-set size at each state: seen classes times test rows per class."""
    base, rem = divmod(classes, num_states)
    seen, rows = 0, []
    for size in [base + 1] * rem + [base] * (num_states - rem):
        seen += size
        rows.append(seen * test_per_class)
    return rows


def check_outputs(texts, methods, test_rows):
    """Problems with one run's outputs; ``test_rows[k-1]`` is state k's test size."""
    missing = [name for name in FILES if name not in texts]
    if missing:
        return [f"missing output files: {missing}"]
    problems = []
    rows = list(csv.reader(io.StringIO(texts["states.csv"])))
    if not rows or rows[0] != STATES_HEADER:
        return ["states.csv: bad header"]
    body = rows[1:]
    expected_keys = [(str(k), m) for k in range(1, len(test_rows) + 1) for m in methods]
    if [(r[0], r[1]) for r in body if len(r) >= 2] != expected_keys or any(len(r) != 6 for r in body):
        return ["states.csv: rows are not one per (state, method) in order"]

    per_method = {m: [] for m in methods}
    group_means = {}
    for r in body:
        k, method = int(r[0]), r[1]
        top1, ece, mu_old, mu_new = float(r[2]), float(r[3]), _num(r[4]), _num(r[5])
        means = (r[4], r[5])
        correct = top1 * test_rows[k - 1] / 100.0
        if not 0 <= top1 <= 100 or abs(correct - round(correct)) > 1e-6:
            problems.append(f"states.csv: state {k} {method}: top1 {top1} is not a count "
                            f"of {test_rows[k - 1]} test rows")
        if not 0 <= ece <= 1:
            problems.append(f"states.csv: state {k} {method}: ece {ece} outside [0, 1]")
        if (mu_old is None) != (k == 1) or mu_new is None:
            problems.append(f"states.csv: state {k}: mean_old/mean_new missing or misplaced")
        if group_means.setdefault(k, means) != means:
            problems.append(f"states.csv: state {k}: mean scores differ between methods")
        per_method[method].append((top1, ece))

    try:
        summary = json.loads(texts["summary.json"])
    except json.JSONDecodeError as exc:
        return problems + [f"summary.json: {exc}"]
    if sorted(summary) != sorted(methods):
        problems.append(f"summary.json: methods {sorted(summary)} != {sorted(methods)}")
    else:
        for m, values in per_method.items():
            later = values[1:]
            avg_top1 = sum(v[0] for v in later) / len(later)
            avg_ece = sum(v[1] for v in later) / len(later)
            got = summary[m]
            if not (_close(got.get("avg_top1", math.nan), avg_top1)
                    and _close(got.get("avg_ece", math.nan), avg_ece)):
                problems.append(f"summary.json: {m} disagrees with states.csv")

    fig = list(csv.reader(io.StringIO(texts["figdata.csv"])))
    expected_fig = [["state", "mu_old", "mu_new"]] + [
        [str(k), *group_means[k]] for k in sorted(group_means) if k >= 2
    ]
    if fig != expected_fig:
        problems.append("figdata.csv: does not match the state mean scores in states.csv")
    return problems


def _values(texts):
    """Every number in the outputs, in file order, with its non-numeric context."""
    out = []
    for name in FILES:
        if name == "summary.json":
            flat = json.loads(texts[name])
            out += [(f"{name}:{m}.{key}", float(v)) for m in sorted(flat)
                    for key, v in sorted(flat[m].items())]
            continue
        for i, row in enumerate(csv.reader(io.StringIO(texts[name]))):
            for j, cell in enumerate(row):
                try:
                    out.append((f"{name}:{i}:{j}", float(cell)))
                except ValueError:
                    out.append((f"{name}:{i}:{j}", cell))
    return out


def compare_reference(texts, reference):
    """Problems where the outputs differ from recorded ones by more than REL_TOL."""
    got, want = _values(texts), _values(reference)
    if [k for k, _ in got] != [k for k, _ in want]:
        return ["outputs differ in shape from the reference"]
    problems = []
    for (where, a), (_, b) in zip(got, want):
        same = _close(a, b) if isinstance(a, float) and isinstance(b, float) else a == b
        if not same:
            problems.append(f"{where}: {a!r} != reference {b!r}")
    return problems[:10]
