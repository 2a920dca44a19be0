"""Dataset construction, imbalancing, state planning and feature-file I/O.

Tables are immutable and numpy-backed: a table is a (n, d) feature matrix
plus parallel label and split arrays. Imbalance, the val split and the plan
read only labels and split flags. All operations are deterministic given their seeds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import FormatError, ParameterError

TRAIN = "train"
VAL = "val"
TEST = "test"
SPLITS = (TRAIN, VAL, TEST)
IMBALANCE_KINDS = ("none", "soft", "strong")

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
        known = np.logical_or.reduce([splits == name for name in SPLITS])
        if not known.all():
            raise ParameterError(f"unknown split flags: {sorted(set(splits[~known].tolist()))}")
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
        # return_counts keeps np.unique off the path that imports numpy.ma
        return np.unique(self.labels, return_counts=True)[0].tolist()

    def subset(self, rows):
        """The rows picked by a boolean mask or an array of row ids, in order."""
        return DatasetTable(self.features[rows], self.labels[rows], self.splits[rows])


def _centers(generator, num_classes, dim, class_separation):
    centers = generator.normal(size=(num_classes, dim))
    # row by row: the (C, C, d) difference tensor would take C*C*d floats
    dmin = min(
        np.sqrt(((centers[i] - centers[i + 1 :]) ** 2).sum(-1)).min()
        for i in range(num_classes - 1)
    )
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
    ``count_per_class``). Deterministic given ``seed``. A refusal names the
    ``synthetic`` config key (and ``gen`` flag) that sets the value.
    """
    if num_classes < 2:
        raise ParameterError("classes must be >= 2")
    if dim < 2:
        raise ParameterError("dim must be >= 2")
    if count_per_class < 2:
        raise ParameterError("per_class must be >= 2")
    if test_per_class is None:
        test_per_class = count_per_class
    if test_per_class < 1:
        raise ParameterError("test_per_class must be >= 1")
    if noise_scale < 0:
        raise ParameterError("noise must be >= 0")
    per_class = count_per_class + test_per_class
    if num_classes * per_class * dim * 8 > np.iinfo(np.intp).max:
        raise ParameterError(
            "classes x (per_class + test_per_class) x dim float64 values "
            "exceed numpy's largest array"
        )

    generator = rng.op_rng(seed, rng.SYNTHETIC)
    centers = _centers(generator, num_classes, dim, class_separation)

    # Generator.normal keeps no state between calls, so one draw is the
    # per-class draws (class c's train rows, then its test rows) end to end
    feats = noise_scale * generator.normal(size=(num_classes, per_class, dim))
    feats += centers[:, None, :]
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    splits = np.tile(np.repeat([TRAIN, TEST], [count_per_class, test_per_class]), num_classes)
    return DatasetTable(feats.reshape(-1, dim), labels, splits)


def largest_remainder(total, proportions):
    """Integer apportionment of ``total`` by the largest-remainder rule."""
    exact = [p * total for p in proportions]
    base = [math.floor(e) for e in exact]
    leftover = total - sum(base)
    order = sorted(range(len(proportions)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def apply_imbalance(labels, splits, kind, seed):
    """The mask of rows kept when train records are discarded per class: "none" keeps all.

    Test and val records are never touched; retained counts stay within
    the kind's per-group interval, clamped to what is available.
    """
    if kind not in IMBALANCE_KINDS:
        raise ParameterError(f"unknown imbalance kind: {kind!r}")
    keep = np.ones(len(labels), dtype=bool)
    if kind == "none":
        return keep

    generator = rng.op_rng(seed, rng.IMBALANCE)
    rows = _train_rows_by_class(labels, splits)
    targets = {}
    if kind == "soft":
        for c, idx in rows.items():
            n = len(idx)
            lo = min(SOFT_MINIMUM, n)
            targets[c] = int(generator.integers(lo, n + 1))
    else:  # strong
        order = list(rows)
        generator.shuffle(order)
        sizes = largest_remainder(len(order), STRONG_PROPORTIONS)
        pos = 0
        for (lo, hi), size in zip(STRONG_INTERVALS, sizes):
            for c in order[pos : pos + size]:
                n = len(rows[c])
                lo_c = min(lo, n)
                hi_c = n if hi is None else min(hi, n)
                targets[c] = int(generator.integers(lo_c, hi_c + 1))
            pos += size

    for c, idx in rows.items():
        u = targets[c]
        if u < len(idx):
            kept = generator.choice(idx, size=u, replace=False)
            keep[idx] = False
            keep[kept] = True
    return keep


def _train_rows_by_class(labels, splits):
    """{class: its train row ids, ascending}, the classes in ascending order."""
    rows = np.flatnonzero(splits == TRAIN)
    labels = labels[rows]
    classes, counts = np.unique(labels, return_counts=True)
    groups = np.split(rows[np.argsort(labels, kind="stable")], np.cumsum(counts)[:-1])
    return dict(zip(classes.tolist(), groups))


def plan_states(classes, num_states, seed_or_fixed_order):
    """Chunk ``classes``, a list of ascending class ids, into ``num_states`` batches.

    An integer argument seeds a random permutation; a sequence is used as
    the explicit class ordering. Remainder classes go to the earliest
    states.
    """
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


def split_train_val(labels, splits, fraction, seed):
    """New split flags with ceil(fraction * n_i) train records per class made val;
    a class with a single train record keeps it as train and gets no val row."""
    if not 0 < fraction < 1:
        raise ParameterError("fraction must be in (0, 1)")
    generator = rng.op_rng(seed, rng.SPLIT)
    flags = splits.copy()
    for idx in _train_rows_by_class(labels, splits).values():
        if len(idx) > 1:
            k = math.ceil(fraction * len(idx))
            flags[generator.choice(idx, size=k, replace=False)] = VAL
    return flags


# data lines per np.loadtxt call in read_rows; bounds the text held at once
CSV_CHUNK_ROWS = 1024


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading.

    Bytes that do not decode, met while the file is read inside the
    ``with`` block, raise FormatError naming the line of the first of them.
    """
    with open(path, encoding="utf-8") as fh:
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


def read_json(path, error):
    """The parsed contents of a UTF-8 JSON file.

    JSON that does not parse raises ``error`` naming the file. That covers
    what ``json.load`` raises besides JSONDecodeError: a plain ValueError
    for an integer past Python's int-string digit limit, and RecursionError
    for arrays or objects nested past the recursion limit.
    """
    try:
        with open_text(path) as fh:
            return json.load(fh)
    except FormatError:
        raise
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from exc


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


def read_rows(fh, path, lead, width, parse_lead, non_numeric, first_line=2):
    """Parse an open numeric CSV's data lines, numbered from ``first_line``.

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
    first_lineno = first_line  # line number of pending[0]
    error = None
    for lineno, line in enumerate(fh, start=first_line):
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


# optional whitespace, an optional sign and ASCII digits: an integer as int() reads one
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
ID_DIGITS = 20


def _class_id(text):
    """The label or class id in ``text``; ValueError unless it matches ``_INTEGER``.

    None if it has more than ``ID_DIGITS`` significant digits: out of range,
    it is never converted (int() refuses over 4300 digits) nor printed.
    Any other id is ``int(text)``.
    """
    if not _INTEGER.fullmatch(text):
        raise ValueError("not an integer")
    text = text.strip()
    digits = text.lstrip("+-").lstrip("0") or "0"
    if len(digits) > ID_DIGITS:
        return None
    return -int(digits) if text[0] == "-" else int(digits)


def _label_fault(label, num_classes):
    """Why a label as ``_class_id`` read it is not in [0, num_classes), or None."""
    if label is None:
        return f"label out of [0, {num_classes}), too many digits"
    return None if 0 <= label < num_classes else f"label {label} out of [0, {num_classes})"


def _excerpt(text):
    """``repr(text)``, cut to 20 characters and an ellipsis if it is longer."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}…"


def load_features(features_path, manifest_path):
    """Read a feature CSV plus its JSON manifest into a DatasetTable.

    A regular-file CSV whose sidecar ``<features_path>.cache.npz`` holds
    its SHA-256 and arrays that pass the parse's checks is not parsed; a
    successful parse (re)writes the sidecar. The table has the same bits
    either way, and a refused CSV gets the same message.
    """
    manifest = read_json(manifest_path, FormatError)
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

    if num_classes >= 2**63:
        # labels are int64; the CSV's own line faults are still reported first
        with contextlib.suppress(OverflowError):
            _parse_features(features_path, dim, num_classes)
        raise FormatError(f"{manifest_path}: manifest key 'classes' must be below 2**63")

    csv_key = _file_key(features_path)
    if csv_key is None:
        return _parse_features(features_path, dim, num_classes)
    digest, stamp = csv_key
    sidecar = os.fspath(features_path) + SIDECAR_SUFFIX
    table = _read_sidecar(sidecar, digest, dim, num_classes)
    if table is None:
        table = _parse_features(features_path, dim, num_classes)
        # a CSV rewritten while it was parsed may no longer have the hashed bytes
        if _file_stamp(features_path) == stamp:
            _write_sidecar(sidecar, digest, table)
    return table


def _parse_features(features_path, dim, num_classes):
    """Parse a feature CSV whose manifest gives ``dim`` and ``num_classes``."""

    def parse_lead(lineno, fields, n_fields):
        if n_fields != dim + 2:
            fault = f"expected {dim + 2} fields, got {n_fields}"
        else:
            try:
                label = _class_id(fields[0])
                fault = _label_fault(label, num_classes)
            except ValueError:
                fault = "non-integer label " + _excerpt(fields[0])
            if fault is None and fields[1] not in SPLITS:
                fault = "unknown split tag " + _excerpt(fields[1])
        if fault is not None:
            raise FormatError(f"{features_path}: line {lineno}: {fault}")
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
    untrained = _untrained_class(table)
    if untrained is not None:
        raise FormatError(f"{features_path}: class {untrained} has no train records")
    return table


def _untrained_class(table):
    """The first class with no train-split record, or None."""
    census = table.census
    for c in table.classes():
        if census.get(c, 0) < 1:
            return c
    return None


# The parse cache. A sidecar is an uncompressed .npz of five arrays:
# "format" (SIDECAR_FORMAT), "sha256" (the CSV's hex digest), "features"
# (float64), "labels" (int64) and "splits" (uint8 indices into SPLITS).
SIDECAR_SUFFIX = ".cache.npz"
SIDECAR_FORMAT = 1


def _file_stamp(path):
    """(size, mtime in ns) of a regular file, or None for anything else."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_size, st.st_mtime_ns) if stat.S_ISREG(st.st_mode) else None


def _file_key(path):
    """(SHA-256 hex digest, stamp) of a regular file's bytes, or None.

    A pipe, a directory or a file that cannot be read has no key: it is
    parsed, and the parse reports any error.
    """
    # imported on first use, so calibrate and breaks need not load OpenSSL
    # (a few MB of peak RSS); run and gen load it anyway, since numpy's
    # first random draw imports secrets and with it hashlib
    import hashlib

    stamp = _file_stamp(path)
    if stamp is None:
        return None
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while block := fh.read(1 << 20):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest(), stamp


def _read_sidecar(path, digest, dim, num_classes):
    """The table a sidecar holds for a CSV of ``digest``, if it passes the parse's checks."""
    try:
        # np.load(path) leaks its file when the zip is damaged, so open it here
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if npz["format"].item() != SIDECAR_FORMAT or npz["sha256"].item() != digest:
                return None
            feats, labels, codes = npz["features"], npz["labels"], npz["splits"]
    # a damaged sidecar raises from numpy or zipfile in many ways (BadZipFile,
    # ValueError, EOFError, KeyError, NotImplementedError, OSError, ...);
    # each one means the same thing here: parse the CSV instead
    except Exception:
        return None
    n = len(codes) if codes.ndim == 1 else 0
    if not (
        feats.dtype == np.float64 and labels.dtype == np.int64 and codes.dtype == np.uint8
        and n >= 1 and feats.shape == (n, dim) and labels.shape == codes.shape
    ):
        return None
    if (labels.min() < 0 or labels.max() >= num_classes or codes.max() >= len(SPLITS)
            or not np.isfinite(feats).all()):
        return None
    table = DatasetTable(feats, labels, np.array(SPLITS)[codes])
    return table if _untrained_class(table) is None else None


def _write_sidecar(path, digest, table):
    """Write ``table`` as the sidecar of a CSV of ``digest``, atomically.

    Any OSError is ignored, since the sidecar only saves a later parse; a
    failed write leaves no file behind.
    """
    codes = np.zeros(len(table), dtype=np.uint8)
    for i, name in enumerate(SPLITS):
        codes[table.splits == name] = i
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=os.path.dirname(path) or "."
        )
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, format=np.int64(SIDECAR_FORMAT), sha256=np.str_(digest),
                     features=table.features, labels=table.labels, splits=codes)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


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
