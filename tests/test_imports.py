"""A run imports neither numpy.ma nor scipy, and no module imports warnings.

Both would be measured costs on every run. Plain ``np.unique`` imports
numpy.ma (14 ms on a 2-CPU container), which is why ``DatasetTable.classes``
and memory admission pass ``return_counts``; ``import scipy.optimize`` costs
0.4-0.6 s and 49 MB of peak RSS after numpy. scipy is a test-only oracle.

A fit or a split reports what it decided in the values it returns (a
calibrator's ``flags``, a table's census), never through ``warnings``, whose
lines would reach stderr with a source path.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a fresh interpreter: a synthetic run with every method, then one
# feature-CSV run that parses the file and one that reads its sidecar
SCRIPT = """
import json, os, sys
from imbcal.cli import main
from imbcal.dataset import SIDECAR_SUFFIX

synthetic = {"classes": 6, "dim": 4, "per_class": 20, "test_per_class": 5}
cfg = {"num_states": 3, "memory": 12, "train": {"epochs": 3}, "data": {"synthetic": synthetic}}
with open("synthetic.json", "w") as fh:
    json.dump(cfg, fh)
assert main(["run", "--config", "synthetic.json", "--out", "synthetic"]) == 0
assert main(["gen", "--classes", "6", "--dim", "4", "--per-class", "20", "--seed", "1",
             "--test-per-class", "5", "--out", "feat.csv"]) == 0
cfg["data"] = {"features": {"features_path": "feat.csv",
                            "manifest_path": "feat.csv.manifest.json"}}
with open("features.json", "w") as fh:
    json.dump(cfg, fh)
for out in ("parsed", "cached"):
    assert main(["run", "--config", "features.json", "--out", out]) == 0
    assert os.path.exists("feat.csv" + SIDECAR_SUFFIX)
guarded = [m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.ma.")
           or m == "numpy.ma"]
print(json.dumps(sorted(guarded)), file=sys.stderr)
"""


def test_a_run_imports_neither_numpy_ma_nor_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-3000:]
    assert result.stderr.splitlines()[-1] == "[]"
    for out in ("synthetic", "parsed", "cached"):
        assert (tmp_path / out / "summary.json").exists()
    assert (tmp_path / "parsed" / "states.csv").read_bytes() == \
        (tmp_path / "cached" / "states.csv").read_bytes()


def test_no_module_imports_warnings():
    importers = []
    for path in sorted((ROOT / "src" / "imbcal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if any(name and name.split(".")[0] == "warnings" for name in names):
                importers.append(path.name)
    assert importers == []
