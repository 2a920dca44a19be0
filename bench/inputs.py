"""Workload inputs, made from the workload seed with numpy alone.

Each workload is an ``imbcal run`` config; herd also gets a feature CSV and
its manifest. None of this calls imbcal, so a change to the program cannot
change its inputs. The same (workload, seed) always writes the same files.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

ALL_METHODS = ["none", "iso", "pl", "th", "nem", "bal", "mb", "fj"]
TRAIN = {"epochs": 25, "lr": 0.1, "patience": 5, "decay": 0.1, "batch_size": 32}

# name -> (config without data seeds, feature-file shape or None)
WORKLOADS = {
    # the ROADMAP's reference protocol: time split between train and the calibrators
    "mid": ({
        "num_states": 10, "memory": 1200, "imbalance": "strong", "methods": ALL_METHODS,
        "train": TRAIN,
        "data": {"synthetic": {"classes": 60, "dim": 64, "per_class": 300,
                               "separation": 2.5, "noise": 1.5, "test_per_class": 30}},
    }, None),
    # many classes, few rows: the per-class calibrator loops and nem's temporary dominate
    "calib": ({
        "num_states": 5, "memory": 2000, "imbalance": "strong", "methods": ALL_METHODS,
        "train": dict(TRAIN, epochs=5),
        "data": {"synthetic": {"classes": 150, "dim": 32, "per_class": 80,
                               "separation": 2.5, "noise": 1.5, "test_per_class": 10}},
    }, None),
    # many rows per class read from a CSV, no per-class calibrators: herding and parsing dominate
    "herd": ({
        "num_states": 5, "memory": 1000, "imbalance": "none", "methods": ["none", "th", "mb"],
        "train": TRAIN,
    }, {"classes": 20, "dim": 64, "train_per_class": 500, "test_per_class": 50}),
    # a few seconds of everything, for the benchmark's own tests
    "smoke": ({
        "num_states": 3, "memory": 60, "imbalance": "strong", "methods": ALL_METHODS,
        "train": dict(TRAIN, epochs=3),
        "data": {"synthetic": {"classes": 12, "dim": 8, "per_class": 60,
                               "separation": 2.5, "noise": 1.5, "test_per_class": 10}},
    }, None),
}
MEASURED = ("mid", "calib", "herd")


def _generator(workload, seed):
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.encode())]))


def write_feature_file(generator, shape, csv_path, manifest_path):
    """Gaussian blobs in the feature CSV + manifest format imbcal reads."""
    classes, dim = shape["classes"], shape["dim"]
    centers = generator.normal(size=(classes, dim)) * 0.25
    header = "label,split," + ",".join(f"f{i}" for i in range(dim))
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for c in range(classes):
            for split in ("train", "test"):
                rows = centers[c] + 1.5 * generator.normal(size=(shape[f"{split}_per_class"], dim))
                prefix = f"{c},{split},"
                fh.writelines(prefix + ",".join(map(repr, r)) + "\n" for r in rows.tolist())
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump({"dim": dim, "classes": classes, "name": "bench-herd"}, fh)


def write_inputs(workload, seed, directory):
    """Write the workload's config (and data files) into ``directory``; return the config path."""
    config, shape = WORKLOADS[workload]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    generator = _generator(workload, seed)
    data_seed, model_seed, protocol_seed = (int(v) for v in generator.integers(0, 2**31, size=3))
    config = dict(config, seeds={"data": data_seed, "model": model_seed, "protocol": protocol_seed})
    if shape is not None:
        csv_path, manifest_path = directory / "features.csv", directory / "features.manifest.json"
        write_feature_file(generator, shape, csv_path, manifest_path)
        config["data"] = {"features": {"features_path": str(csv_path.resolve()),
                                       "manifest_path": str(manifest_path.resolve())}}
    path = directory / "config.json"
    path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
