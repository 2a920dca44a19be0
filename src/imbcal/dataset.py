"""Dataset construction, imbalancing, state planning and feature-file I/O.

Tables are immutable and numpy-backed: a table is a (n, d) feature matrix
plus parallel label and split arrays. All operations return new tables and
are deterministic given their seeds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import FormatError, ParameterError

TRAIN = "train"
VAL = "val"
TEST = "test"
SPLITS = (TRAIN, VAL, TEST)

# strong-imbalance recipe: class-group proportions and retention intervals
# (None upper bound means "the class's initial count")
STRONG_PROPORTIONS = (0.30, 0.30, 0.20, 0.20)
STRONG_INTERVALS = ((10, 25), (26, 75), (76, 100), (101, None))
SOFT_MINIMUM = 50


@dataclass(frozen=True)
class StatePlan:
    """Class ordering chunked into incremental states."""

    ordering: tuple
    classes_per_state: tuple


class DatasetTable:
    """Immutable table of feature records."""

    __slots__ = ("features", "labels", "splits")

    def __init__(self, features, labels, splits):
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        splits = np.asarray(splits, dtype="<U5")
        if features.ndim != 2:
            raise ParameterError("features must be a 2-D matrix")
        n = features.shape[0]
        if labels.shape != (n,) or splits.shape != (n,):
            raise ParameterError("features, labels and splits must align")
        bad = set(np.unique(splits)) - set(SPLITS)
        if bad:
            raise ParameterError(f"unknown split flags: {sorted(bad)}")
        features.setflags(write=False)
        labels.setflags(write=False)
        splits.setflags(write=False)
        self.features = features
        self.labels = labels
        self.splits = splits

    def __setattr__(self, name, value):
        if hasattr(self, "splits") and name in self.__slots__:
            raise AttributeError("DatasetTable is immutable")
        super().__setattr__(name, value)

    def __len__(self):
        return self.features.shape[0]

    @property
    def dim(self):
        return self.features.shape[1]

    @property
    def census(self):
        """Per-class count of train-split records."""
        mask = self.splits == TRAIN
        labels, counts = np.unique(self.labels[mask], return_counts=True)
        return {int(c): int(n) for c, n in zip(labels, counts)}

    def classes(self):
        return [int(c) for c in np.unique(self.labels)]

    def subset(self, rows):
        """The rows picked by a boolean mask or an array of row ids, in order."""
        return DatasetTable(self.features[rows], self.labels[rows], self.splits[rows])

    def only(self, split=None, classes=None):
        """Restrict to the given split name(s) and/or class ids."""
        mask = np.ones(len(self), dtype=bool)
        if split is not None:
            names = (split,) if isinstance(split, str) else tuple(split)
            mask &= np.isin(self.splits, names)
        if classes is not None:
            mask &= np.isin(self.labels, np.fromiter(classes, dtype=np.int64))
        return self.subset(mask)

    def relabeled(self, mapping):
        """Return a copy with labels passed through ``mapping``."""
        new_labels = np.array([mapping[int(c)] for c in self.labels], dtype=np.int64)
        return DatasetTable(self.features, new_labels, self.splits)

    @staticmethod
    def concat(tables):
        return DatasetTable(
            np.concatenate([t.features for t in tables]),
            np.concatenate([t.labels for t in tables]),
            np.concatenate([t.splits for t in tables]),
        )


def _centers(generator, num_classes, dim, class_separation):
    centers = generator.normal(size=(num_classes, dim))
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff**2).sum(-1))
    dmin = dist[np.triu_indices(num_classes, k=1)].min()
    if dmin > 0:
        centers *= class_separation / dmin
    return centers


def generate_synthetic(
    num_classes,
    dim,
    count_per_class,
    class_separation,
    noise_scale,
    seed,
    test_per_class=None,
):
    """Gaussian-blob dataset: one isotropic blob per class.

    Produces ``count_per_class`` train records per class and a balanced
    test set of ``test_per_class`` records per class (defaults to
    ``count_per_class``). Deterministic given ``seed``.
    """
    if num_classes < 2:
        raise ParameterError("num_classes must be >= 2")
    if dim < 2:
        raise ParameterError("dim must be >= 2")
    if count_per_class < 2:
        raise ParameterError("count_per_class must be >= 2")
    if test_per_class is None:
        test_per_class = count_per_class
    if test_per_class < 1:
        raise ParameterError("test_per_class must be >= 1")
    if noise_scale < 0:
        raise ParameterError("noise_scale must be >= 0")

    generator = rng.op_rng(seed, rng.SYNTHETIC)
    centers = _centers(generator, num_classes, dim, class_separation)

    feats, labels, splits = [], [], []
    for c in range(num_classes):
        for count, split in ((count_per_class, TRAIN), (test_per_class, TEST)):
            feats.append(centers[c] + noise_scale * generator.normal(size=(count, dim)))
            labels.append(np.full(count, c, dtype=np.int64))
            splits.append(np.full(count, split, dtype="<U5"))
    return DatasetTable(np.concatenate(feats), np.concatenate(labels), np.concatenate(splits))


def largest_remainder(total, proportions):
    """Integer apportionment of ``total`` by the largest-remainder rule."""
    exact = [p * total for p in proportions]
    base = [math.floor(e) for e in exact]
    leftover = total - sum(base)
    order = sorted(range(len(proportions)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def apply_imbalance(table, kind, seed):
    """Randomly discard train records per class: ``kind`` is "none", "soft" or "strong".

    Test and val records are never touched; retained counts stay within
    the kind's per-group interval, clamped to what is available.
    """
    if kind not in ("none", "soft", "strong"):
        raise ParameterError(f"unknown imbalance kind: {kind!r}")
    if kind == "none":
        return table

    generator = rng.op_rng(seed, rng.IMBALANCE)
    census = table.census
    classes = sorted(census)
    targets = {}
    if kind == "soft":
        for c in classes:
            n = census[c]
            lo = min(SOFT_MINIMUM, n)
            targets[c] = int(generator.integers(lo, n + 1))
    else:  # strong
        order = list(classes)
        generator.shuffle(order)
        sizes = largest_remainder(len(order), STRONG_PROPORTIONS)
        pos = 0
        for (lo, hi), size in zip(STRONG_INTERVALS, sizes):
            for c in order[pos : pos + size]:
                n = census[c]
                lo_c = min(lo, n)
                hi_c = n if hi is None else min(hi, n)
                targets[c] = int(generator.integers(lo_c, hi_c + 1))
            pos += size

    keep = np.ones(len(table), dtype=bool)
    for c in classes:
        idx = np.flatnonzero((table.labels == c) & (table.splits == TRAIN))
        u = targets[c]
        if u < len(idx):
            kept = generator.choice(idx, size=u, replace=False)
            keep[np.setdiff1d(idx, kept)] = False
    return table.subset(keep)


def plan_states(table, num_states, seed_or_fixed_order):
    """Chunk the class set into ``num_states`` incremental batches.

    An integer argument seeds a random permutation; a sequence is used as
    the explicit class ordering. Remainder classes go to the earliest
    states.
    """
    classes = table.classes()
    if num_states < 1:
        raise ParameterError(f"num_states must be >= 1, got {num_states}")
    if num_states > len(classes):
        raise ParameterError(
            f"num_states is {num_states}, more than the {len(classes)} classes available"
        )
    if isinstance(seed_or_fixed_order, (int, np.integer)) and not isinstance(
        seed_or_fixed_order, bool
    ):
        generator = rng.op_rng(seed_or_fixed_order, rng.PLAN)
        ordering = [classes[i] for i in generator.permutation(len(classes))]
    else:
        ordering = [int(c) for c in seed_or_fixed_order]
        if sorted(ordering) != classes:
            raise ParameterError("fixed order is not a permutation of the class ids")

    base, rem = divmod(len(classes), num_states)
    sizes = [base + 1] * rem + [base] * (num_states - rem)
    return StatePlan(tuple(ordering), tuple(sizes))


def split_train_val(table, fraction, seed):
    """Re-flag ceil(fraction * n_i) train records per class as validation."""
    if not 0 < fraction < 1:
        raise ParameterError("fraction must be in (0, 1)")
    generator = rng.op_rng(seed, rng.SPLIT)
    splits = table.splits.copy()
    for c in sorted(table.census):
        idx = np.flatnonzero((table.labels == c) & (table.splits == TRAIN))
        n = len(idx)
        if n < 2:
            warnings.warn(f"class {c} has a single train record; no val split for it")
            continue
        k = math.ceil(fraction * n)
        chosen = generator.choice(idx, size=k, replace=False)
        splits[chosen] = VAL
    return DatasetTable(table.features, table.labels, splits)


# data lines per np.loadtxt call in read_rows; bounds the text held at once
CSV_CHUNK_ROWS = 1024


@contextlib.contextmanager
def open_text(path, newline=None):
    """Open a UTF-8 text file for reading.

    Bytes that do not decode, met while the file is read inside the
    ``with`` block, raise FormatError naming the line of the first of them.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise _decode_error(path) from None


def _decode_error(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return FormatError(f"{path}: line {line}: not valid UTF-8")
    return FormatError(f"{path}: not valid UTF-8")


def read_header(fh, path):
    """The fields of an open CSV's first line; a blank line has none."""
    line = fh.readline()
    if not line:
        raise FormatError(f"{path}: empty file")
    line = line.rstrip("\n")
    return line.split(",") if line else []


def _parse_values(path, lines, first_lineno, width, non_numeric):
    """Parse comma-separated float lines into a (len(lines), width) matrix."""
    if not lines:
        return np.empty((0, width))
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        values = None
    # loadtxt skips empty lines, so a short matrix hides an empty cell
    if values is not None and values.shape == (len(lines), width):
        return values
    for lineno, line in enumerate(lines, start=first_lineno):
        try:
            ok = line != "" and np.loadtxt([line], delimiter=",", comments=None).size == width
        except ValueError:
            ok = False
        if not ok:
            raise FormatError(f"{path}: line {lineno}: {non_numeric}")
    raise FormatError(f"{path}: lines {first_lineno}-{lineno}: {non_numeric}")


def read_rows(fh, path, lead, width, parse_lead, non_numeric):
    """Parse the data lines of an open numeric CSV, numbered from line 2.

    Every line is one unquoted record: ``lead`` leading fields, then
    ``width`` floats. ``parse_lead(lineno, fields, n_fields)`` checks the
    field count and ``fields[:lead]`` and returns what to keep of them. The
    floats go to ``np.loadtxt`` ``CSV_CHUNK_ROWS`` lines at a time, which
    rounds them as ``float()`` does but rejects ``_`` separators and
    non-ASCII digits. A line whose floats do not parse raises
    ``"{path}: line N: {non_numeric}"``. Errors come in line order, so the
    first faulty line is the one reported. The one exception is a byte that
    is not UTF-8: it raises as soon as the file's decoder reads it, which may
    be before the lines just ahead of it are checked (see ``open_text``).

    Returns the list of ``parse_lead`` results and the (n, width) matrix.
    """
    leads, blocks, pending = [], [], []
    first_lineno = 2  # line number of pending[0]
    error = None
    for lineno, line in enumerate(fh, start=2):
        line = line.rstrip("\n")
        fields = line.split(",", lead)
        try:
            leads.append(parse_lead(lineno, fields, line.count(",") + 1 if line else 0))
        except FormatError as exc:
            error = exc
            break
        pending.append(fields[lead])
        if len(pending) == CSV_CHUNK_ROWS:
            blocks.append(_parse_values(path, pending, first_lineno, width, non_numeric))
            pending, first_lineno = [], lineno + 1
    # an unparsable value before the faulty line is the earlier error
    blocks.append(_parse_values(path, pending, first_lineno, width, non_numeric))
    if error is not None:
        raise error
    return leads, np.concatenate(blocks)


def load_features(features_path, manifest_path):
    """Read a feature CSV plus its JSON manifest into a DatasetTable."""
    try:
        with open_text(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{manifest_path}: manifest must be a JSON object")
    for key in ("dim", "classes", "name"):
        if key not in manifest:
            raise FormatError(f"{manifest_path}: missing manifest key {key!r}")
        if key != "name" and type(manifest[key]) is not int:
            raise FormatError(
                f"{manifest_path}: manifest key {key!r} must be a JSON integer, "
                f"got {manifest[key]!r}"
            )
    dim, num_classes = manifest["dim"], manifest["classes"]
    if dim < 1 or num_classes < 1:
        raise FormatError(f"{manifest_path}: dim and classes must be positive")

    def parse_lead(lineno, fields, n_fields):
        if n_fields != dim + 2:
            raise FormatError(
                f"{features_path}: line {lineno}: expected {dim + 2} fields, got {n_fields}"
            )
        try:
            label = int(fields[0])
        except ValueError:
            raise FormatError(
                f"{features_path}: line {lineno}: non-integer label {fields[0]!r}"
            ) from None
        if not 0 <= label < num_classes:
            raise FormatError(
                f"{features_path}: line {lineno}: label {label} out of [0, {num_classes})"
            )
        if fields[1] not in SPLITS:
            raise FormatError(
                f"{features_path}: line {lineno}: unknown split tag {fields[1]!r}"
            )
        return label, fields[1]

    with open_text(features_path) as fh:
        header = read_header(fh, features_path)
        # the field count first, so a huge manifest dim builds no huge header
        if len(header) != dim + 2:
            raise FormatError(
                f"{features_path}: line 1: bad header, expected {dim + 2} fields, "
                f"got {len(header)}"
            )
        for i, got in enumerate(header):
            want = ("label", "split")[i] if i < 2 else f"f{i - 2}"
            if got != want:
                raise FormatError(
                    f"{features_path}: line 1: bad header, field {i + 1} is {got!r}, "
                    f"expected {want!r}"
                )
        leads, feats = read_rows(
            fh, features_path, 2, dim, parse_lead, "non-numeric feature value"
        )
    if not leads:
        raise FormatError(f"{features_path}: no records")
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if len(bad):
        raise FormatError(
            f"{features_path}: line {bad[0] + 2}: non-finite feature value"
        )

    labels, splits = zip(*leads)
    table = DatasetTable(feats, np.array(labels), np.array(splits))
    census = table.census
    for c in table.classes():
        if census.get(c, 0) < 1:
            raise FormatError(f"{features_path}: class {c} has no train records")
    return table


def save_features(table, features_path, manifest_path, name="dataset"):
    """Write a table in the feature CSV + manifest format."""
    with open(features_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "split"] + [f"f{i}" for i in range(table.dim)])
        for i in range(len(table)):
            row = [int(table.labels[i]), str(table.splits[i])]
            row += [format(v, ".17g") for v in table.features[i]]
            writer.writerow(row)
    manifest = {"dim": table.dim, "classes": len(table.classes()), "name": name}
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
