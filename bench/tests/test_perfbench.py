"""Tests of the benchmark itself: span arithmetic, the output checker, a smoke run."""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # (id, parent, name, start, end, peak, info)
    recorded = [
        (1, 0, "calibration.fit_isotonic", 1.0, 4.0, 0, None),
        (2, 1, "calibration.pava", 2.0, 3.0, 0, None),
        (3, 0, "backbone.train", 5.0, 6.5, 0, None),
        (0, None, "harness.run_experiment", 0.0, 10.0, 0, None),
        (4, None, "import.imbcal", 10.0, 10.5, 0, None),
    ]
    own = spans.self_times(recorded)
    assert own == {0: 10.0 - 3.0 - 1.5, 1: 2.0, 2: 1.0, 3: 1.5, 4: 0.5}
    layers = spans.layer_self_times(recorded)
    assert layers["calibration"] == 3.0 and layers["harness"] == 5.5
    assert sum(layers.values()) == spans.roots_total(recorded) == 10.5


def test_recorder_nests_spans_and_skips_calls_inside_the_same_layer():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    inner = mod.inner
    recorder = spans.Recorder(memory=True)
    recorder.start()
    try:
        recorder.wrap(mod, "inner", "memory", skip_within_layer=True)
        recorder.wrap(mod, "outer", "calibration", info=lambda args, result: {"rows": result})
        assert recorder.call("cli.main", mod.outer, 1) == 4
        assert recorder.call("memory.admit", mod.inner, 1) == 2
    finally:
        recorder.stop()
    by_name = {s[spans.NAME]: s for s in recorder.spans}
    assert by_name["memory.inner"][spans.PARENT] == by_name["calibration.outer"][spans.ID]
    assert by_name["calibration.outer"][spans.PARENT] == by_name["cli.main"][spans.ID]
    assert by_name["calibration.outer"][spans.INFO] == {"rows": 4}
    # the call made from inside a memory span was not recorded again
    assert [s[spans.NAME] for s in recorder.spans].count("memory.inner") == 1
    assert mod.inner is inner  # stop() restores the original attributes


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("smoke")
    config_path = inputs.write_inputs("smoke", run.DEFAULT_SEED, work)
    inv = run.invoke(config_path, work / "out", work / "timing.json", timeout=120)
    assert inv["errors"] == []
    return json.loads(config_path.read_text()), check.read_outputs(work / "out")


def test_checker_accepts_real_outputs(smoke_outputs):
    config, texts = smoke_outputs
    assert run.output_problems("smoke", config, texts) == []
    assert check.compare_reference(texts, dict(texts)) == []


def test_checker_rejects_a_perturbed_states_csv(smoke_outputs):
    config, texts = smoke_outputs
    lines = texts["states.csv"].splitlines(keepends=True)
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-3)  # the last row's ece
    perturbed = dict(texts, **{"states.csv": "".join(lines[:-1]) + ",".join(cells)})
    assert any("summary.json" in p for p in run.output_problems("smoke", config, perturbed))
    assert check.compare_reference(perturbed, texts)
    assert check.digest(perturbed) != check.digest(texts)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_workload_reports_the_declared_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke", "--seconds", "0",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in metrics.items()}
    if trace:
        assert metrics["calibration.iso.pava_calls"]["value"] > 0
        assert metrics["calibration.nem.alloc_peak_mb"]["value"] > 0
        shares = sum(metrics[f"layer.{layer}.share"]["value"] for layer in spans.LAYERS)
        assert shares == pytest.approx(1.0)
