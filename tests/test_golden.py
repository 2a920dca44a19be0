"""Golden outputs: fresh runs must reproduce the files under tests/golden/ byte for byte.

Three cases are pinned:

- ``readme``: the README quick-start config, through ``imbcal run``;
- ``features``: a feature file written by ``imbcal gen``, soft imbalance, a
  fixed class order and all eight methods, through ``imbcal run``;
- ``calibrate``: ``imbcal calibrate`` for every score-only method on the fixed
  inputs ``calibrate/scores.csv`` and ``calibrate/counts.csv``.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when a change
of results is intended, and log the regeneration and its reason in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from imbcal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RUN_OUTPUTS = ("states.csv", "summary.json", "figdata.csv")
SCORE_METHODS = ("iso", "pl", "th", "mb", "fj")

README_CONFIG = {
    "num_states": 5,
    "memory": 40,
    "data": {"synthetic": {"classes": 20, "dim": 16, "per_class": 120,
                           "separation": 2.5, "noise": 1.5, "test_per_class": 30}},
    "imbalance": "strong",
    "train": {"epochs": 25, "lr": 0.1, "patience": 5, "decay": 0.1, "batch_size": 32},
    "methods": ["none", "iso", "pl", "th", "nem", "bal", "mb", "fj"],
    "seeds": {"data": 100, "model": 200, "protocol": 300},
}

GEN_ARGS = ["--classes", "8", "--dim", "6", "--per-class", "80", "--seed", "7",
            "--separation", "3.0", "--noise", "1.5", "--test-per-class", "20"]

FEATURES_CONFIG = {
    "num_states": 4,
    "memory": 32,
    "imbalance": "soft",
    "class_order": [5, 2, 7, 0, 3, 6, 1, 4],
    "train": {"epochs": 10, "lr": 0.1, "patience": 3, "decay": 0.1, "batch_size": 16},
    "methods": ["none", "iso", "pl", "th", "nem", "bal", "mb", "fj"],
    "seeds": {"data": 11, "model": 12, "protocol": 13},
}


def produce_run(case, out_dir, work_dir):
    """Run one ``imbcal run`` case, writing its three outputs to out_dir."""
    work_dir.mkdir(parents=True, exist_ok=True)
    if case == "readme":
        cfg = README_CONFIG
    else:
        feats = work_dir / "feats.csv"
        assert main(["gen"] + GEN_ARGS + ["--out", str(feats)]) == 0
        cfg = dict(FEATURES_CONFIG, data={"features": {
            "features_path": str(feats), "manifest_path": f"{feats}.manifest.json"}})
    config = work_dir / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 0


def produce_calibrate(method, out_path):
    inputs = GOLDEN / "calibrate"
    assert main(["calibrate", "--method", method,
                 "--scores", str(inputs / "scores.csv"),
                 "--counts", str(inputs / "counts.csv"),
                 "--old", "0,1", "--new", "2,3", "--out", str(out_path)]) == 0


@pytest.mark.parametrize("case", ["readme", "features"])
def test_run_matches_golden(case, tmp_path):
    out = tmp_path / "out"
    produce_run(case, out, tmp_path / "work")
    for name in RUN_OUTPUTS:
        assert (out / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


@pytest.mark.parametrize("method", SCORE_METHODS)
def test_calibrate_matches_golden(method, tmp_path):
    out = tmp_path / f"{method}.csv"
    produce_calibrate(method, out)
    assert out.read_bytes() == (GOLDEN / "calibrate" / f"{method}.csv").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in ("readme", "features"):
            produce_run(case, GOLDEN / case, Path(tmp) / case)
    for method in SCORE_METHODS:
        produce_calibrate(method, GOLDEN / "calibrate" / f"{method}.csv")
