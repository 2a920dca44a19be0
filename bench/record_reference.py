"""Record the reference outputs that run.py compares the default seed against.

    python3 bench/record_reference.py [workload ...]

Writes ``bench/reference/<workload>.json`` (file name -> text of states.csv,
summary.json and figdata.csv) from one invocation per workload at
run.DEFAULT_SEED, after the same consistency checks a benchmark run makes.
Re-record only when a change to the program's results is intended, and say
so where the change is described.
"""

import json
import shutil
import sys

import check
import inputs
import run


def record(workload):
    work = run.WORK / f"reference-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    config_path = inputs.write_inputs(workload, run.DEFAULT_SEED, work / "inputs")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    inv = run.invoke(config_path, work / "out", work / "timing.json", run.RUN_BUDGET_S)
    texts = check.read_outputs(work / "out") if not inv["errors"] else {}
    problems = inv["errors"] or run.output_problems(workload, config, texts)
    if problems:
        sys.exit(f"{workload}: {problems}")
    run.REFERENCE.mkdir(exist_ok=True)
    path = run.REFERENCE / f"{workload}.json"
    path.write_text(json.dumps(texts, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    for name in sys.argv[1:] or inputs.MEASURED:
        record(name)
