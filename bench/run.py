"""The imbcal benchmark: time `imbcal run` on one workload and check its outputs.

    python3 bench/run.py --workload {mid,calib,herd,all} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; imbcal is imported from its ``src``.
Each invocation is a fresh process running ``imbcal.cli.main(["run", ...])``
(see child.py), one at a time, in a closed loop: the next starts when the
previous has exited. The first invocation warms the file cache and is not
timed; invocations then repeat until S seconds have passed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced invocations with invocations traced by spans.py, adds one
invocation with a tracemalloc peak per span, and reports the per-layer
metrics. Human-readable lines go first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Work files,
spans and a full result record with the environment stamp are written under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import inputs
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = Path(__file__).resolve().parent / "reference"
CHILD = Path(__file__).resolve().parent / "child.py"

DEFAULT_SEED = 0  # the seed whose outputs are recorded under reference/
MIN_SAMPLES = 3
RUN_BUDGET_S = 165  # a whole run, set-up included, ends well inside 180 s
# One fixed BLAS thread count, recorded in every result, so two commits are
# always compared under the same setting. 2 is this project's reference machine.
BLAS_THREADS = "1"

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def git_commit():
    """HEAD of the checkout's own .git, read as files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "imbcal").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": source.hexdigest(),
    }


def invoke(config, out, timing, timeout, span_file=None, memory=False):
    """Run one child process; return its measurements or a list of errors."""
    cmd = [sys.executable, str(CHILD), "--src", str(SRC), "--config", str(config),
           "--out", str(out), "--timing", str(timing)]
    if span_file:
        cmd += ["--spans", str(span_file)] + (["--memory"] if memory else [])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    log = Path(str(out) + ".log")
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-1:] or [""]
        return {"errors": [f"exit code {proc.returncode}: {tail[0]}"]}
    log.unlink()
    stamps = json.loads(Path(timing).read_text())
    return {
        "errors": [],
        "run_s": wall,
        "setup_s": stamps["first_train"] - stamps["import_start"],
        "program_s": stamps["end"] - stamps["import_start"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p <= 50:
        return None
    return p, float(np.percentile(values, p))


def describe(name, values, unit):
    line = f"  {name:<12} median {statistics.median(values):.4f} {unit}"
    high = high_percentile(values)
    if high:
        line += f", p{high[0]} {high[1]:.4f} {unit}"
    else:
        line += f", max {max(values):.4f} {unit} (too few samples for a tail percentile)"
    return line + f", n={len(values)}"


def load_reference(workload, seed):
    path = REFERENCE / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def output_problems(workload, config, texts):
    """check.check_outputs with the test-set sizes this workload's config implies."""
    data = config["data"].get("synthetic") or inputs.WORKLOADS[workload][1]
    sizes = check.balanced_test_sizes(data["classes"], config["num_states"], data["test_per_class"])
    return check.check_outputs(texts, config["methods"], sizes)


def trace_metrics(traced, plain, memory_spans):
    """Per-layer metrics: medians over traced invocations, plus the checks on them."""
    per_invocation, problems = [], []
    for inv in traced:
        recorded = [tuple(s) for s in inv["spans"]]
        metrics = spans.layer_metrics(recorded)
        accounted = sum(metrics[f"layer.{layer}.self_s"] for layer in spans.LAYERS)
        roots = spans.roots_total(recorded)
        if not math.isclose(accounted, roots, rel_tol=1e-9):
            problems.append(f"layer self times sum to {accounted}, root spans to {roots}")
        # the root spans must cover the program, from `import imbcal` to main's return
        if not 0 <= inv["program_s"] - roots <= 0.05 * inv["program_s"]:
            problems.append(f"spans cover {roots:.3f} s of the program's {inv['program_s']:.3f} s")
        metrics["trace.run_s"] = inv["run_s"]
        metrics["trace.unattributed_s"] = inv["run_s"] - accounted
        per_invocation.append(metrics)
    out = spans.add_shares(spans.median_metrics(per_invocation))
    untraced = statistics.median(inv["run_s"] for inv in plain)
    out["trace.untraced_run_s"] = untraced
    out["trace.overhead_s"] = out["trace.run_s"] - untraced
    nem_peak = "calibration.nem.alloc_peak_mb"
    out[nem_peak] = spans.layer_metrics(memory_spans)[nem_peak]
    return out, problems


def per_layer_unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "count"


def schedule(trace, seconds, samples):
    """Invocation kinds, in order: an untimed warm-up, then a closed loop
    (alternating untraced and traced when tracing) until ``seconds`` have
    passed and each kind has MIN_SAMPLES, then one tracemalloc invocation."""
    yield "warmup"
    kinds = ("plain", "spans") if trace else ("plain",)
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds
           or min(len(samples[k]) for k in kinds) < MIN_SAMPLES):
        yield kinds[i % len(kinds)]
        i += 1
    if trace:
        yield "memory"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; return (result dict, human-readable lines)."""
    run_start = time.perf_counter()
    deadline = run_start + RUN_BUDGET_S
    work = WORK / f"{workload}-{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    config_path = inputs.write_inputs(workload, seed, work / "inputs")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    reference = load_reference(workload, seed)

    samples = {"plain": [], "spans": []}
    attempted = failed = 0
    problems = []
    first_digest = None
    memory_spans = []
    for i, kind in enumerate(schedule(trace, seconds, samples)):
        remaining = deadline - time.perf_counter()
        if remaining < 10 or (failed == attempted >= 2):
            problems.append(f"stopped after {attempted} invocations ({failed} failed)")
            break
        out = work / f"out{i}"
        span_file = work / f"spans-{kind}.json" if kind in ("spans", "memory") else None
        inv = invoke(config_path, out, work / "timing.json", remaining, span_file, kind == "memory")
        attempted += 1
        errors = inv["errors"]
        if not errors:
            texts = check.read_outputs(out)
            if first_digest is None:
                errors = output_problems(workload, config, texts)
                if reference is not None:
                    errors += check.compare_reference(texts, reference)
                first_digest = check.digest(texts)
            elif check.digest(texts) != first_digest:
                errors = ["outputs differ from the first invocation's (not deterministic)"]
        shutil.rmtree(out, ignore_errors=True)
        if errors:
            failed += 1
            problems += [f"invocation {i} ({kind}): {e}" for e in errors]
        elif kind == "memory":
            memory_spans = [tuple(s) for s in json.loads(span_file.read_text())]
        elif kind in samples:
            if span_file:
                inv["spans"] = json.loads(span_file.read_text())
            samples[kind].append(inv)

    plain = samples["plain"]
    metrics = {}
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: "
             f"{attempted} invocations, {failed} failed, fail_rate {failed / attempted:.4f} ratio"]
    if trace and samples["spans"] and plain and memory_spans:
        values, trace_problems = trace_metrics(samples["spans"], plain, memory_spans)
        problems += trace_problems
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
        lines += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"  medians over n={len(samples['spans'])} traced and "
                     f"n={len(plain)} untraced invocations")
    elif not trace and plain:
        for name, unit in END_TO_END_UNITS.items():
            values = [inv[name] for inv in plain]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            lines.append(describe(name, values, unit))
    else:
        problems.append("no invocation completed")
    correct = failed == 0 and not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "env": env_stamp(seed), "result": result, "problems": problems,
        "samples": {k: [{f: v for f, v in inv.items() if f not in ("spans", "errors")} for inv in vs]
                    for k, vs in samples.items()},
        "elapsed_s": time.perf_counter() - run_start,
    }
    lines.append(f"  env {json.dumps(record['env'], sort_keys=True)}")
    lines += [f"  problem: {p}" for p in problems[:20]]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "imbcal" / "__init__.py").is_file():
        print(f"error: no imbcal sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workloads = inputs.MEASURED if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
