"""Refusals of outside input through ``cli.main``, one case each.

Each case exits with its documented code (2 for a bad option or config, 3
for a bad file or a failed write) and its message, prints no traceback and
writes nothing: no output file, no run outputs and no feature sidecar.
"""

import json

import pytest

from imbcal.cli import main
from imbcal.dataset import SIDECAR_SUFFIX, generate_synthetic, save_features


def _refused(capsys, argv, code, message):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# calibrate


@pytest.mark.parametrize("text, message", [
    ("lbl,s0\n0,1.0\n", "first column must be 'label'"),
    ("label\n0\n", "no score columns"),
    ("label,s0,s1\n", "no records"),
])
def test_calibrate_refuses_a_bad_score_file(tmp_path, capsys, text, message):
    scores, out = tmp_path / "s.csv", tmp_path / "out.csv"
    scores.write_text(text)
    _refused(capsys, ["calibrate", "--method", "iso", "--scores", str(scores), "--out", str(out)],
             3, f"{scores}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("options, message", [
    (["--method", "th"], "--counts is required for method th"),
    (["--method", "fj"], "--counts is required for method fj"),
    (["--method", "mb"], "--old is required for this method"),
    (["--method", "mb", "--new", "1"], "--old is required for this method"),
    (["--method", "mb", "--old", "0"], "--new is required for this method"),
])
def test_calibrate_refuses_a_missing_option(tmp_path, capsys, options, message):
    scores, out = tmp_path / "s.csv", tmp_path / "out.csv"
    scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
    _refused(capsys, ["calibrate", *options, "--scores", str(scores), "--out", str(out)],
             2, message)
    assert not out.exists()


# ---------------------------------------------------------------------------
# breaks


@pytest.mark.parametrize("values, message", [
    ("1,x", "--values must be a comma-separated list of numbers"),
    ("1,nan", "values must be finite"),
])
def test_breaks_refuses_bad_values(capsys, values, message):
    _refused(capsys, ["breaks", "--values", values, "--k", "2"], 2, message)


# ---------------------------------------------------------------------------
# run: feature files, synthetic configs and output writes


@pytest.fixture
def features(tmp_path):
    """A generated feature CSV of 3 classes and its manifest."""
    path, manifest = tmp_path / "feat.csv", tmp_path / "feat.csv.manifest.json"
    table = generate_synthetic(3, 2, 6, 5.0, 1.0, seed=1, test_per_class=2)
    save_features(table, path, manifest, name="three-classes")
    return path, manifest


def _run_refused(tmp_path, capsys, data, code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_states": 2, "memory": 8, "methods": ["none"],
                               "train": {"epochs": 2}, "data": data}))
    out = tmp_path / "out"
    _refused(capsys, ["run", "--config", str(cfg), "--out", str(out)], code, message)
    assert not out.exists()
    assert not list(tmp_path.glob("*" + SIDECAR_SUFFIX))


@pytest.mark.parametrize("edit, message", [
    ({"name": None}, "missing manifest key 'name'"),
    ({"dim": 0}, "dim and classes must be positive"),
    ({"classes": 0}, "dim and classes must be positive"),
])
def test_run_refuses_a_bad_manifest(tmp_path, capsys, features, edit, message):
    path, manifest = features
    fields = json.loads(manifest.read_text())
    fields.update(edit)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({k: v for k, v in fields.items() if v is not None}))
    data = {"features": {"features_path": str(path), "manifest_path": str(bad)}}
    _run_refused(tmp_path, capsys, data, 3, f"{bad}: {message}")


def _header_only(lines):
    return lines[:1]


def _class_2_only_test(lines):
    return lines[:1] + [
        line.replace(",train,", ",test,").replace(",val,", ",test,")
        if line.startswith("2,") else line
        for line in lines[1:]
    ]


@pytest.mark.parametrize("edit, message", [
    (_header_only, "no records"),
    (_class_2_only_test, "class 2 has no train records"),
])
def test_run_refuses_a_bad_feature_file(tmp_path, capsys, features, edit, message):
    path, manifest = features
    lines = path.read_text().splitlines()
    assert any(line.startswith("2,train,") for line in lines)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(edit(lines)) + "\n")
    data = {"features": {"features_path": str(bad), "manifest_path": str(manifest)}}
    _run_refused(tmp_path, capsys, data, 3, f"{bad}: {message}")


@pytest.mark.parametrize("key, value, message", [
    ("classes", 1, "classes must be >= 2"),
    ("per_class", 1, "per_class must be >= 2"),
    ("noise", -1, "noise must be >= 0"),
    ("test_per_class", 0, "test_per_class must be >= 1"),
])
def test_run_refuses_a_synthetic_value_out_of_range(tmp_path, capsys, key, value, message):
    synthetic = {"classes": 4, "dim": 3, "per_class": 15, "test_per_class": 5, key: value}
    _run_refused(tmp_path, capsys, {"synthetic": synthetic}, 2, message)


def test_run_refuses_an_output_file_it_cannot_write(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "num_states": 2, "memory": 8, "methods": ["none"], "train": {"epochs": 2},
        "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15, "test_per_class": 5}},
    }))
    out = tmp_path / "out"
    (out / "states.csv").mkdir(parents=True)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"error: cannot write outputs to {out}: [Errno 21] " in err
    assert "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["states.csv"]
    assert not any((out / "states.csv").iterdir())
