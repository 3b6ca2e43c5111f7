"""Benchmark of the sngp CLI, run from the root of a checkout:

    python3 perfbench/run.py --workload {train,score,compare} --seed N \\
        --seconds S --trace {0,1}

Set-up runs ``prepare.py`` in a fresh process several times and reports the
median as ``setup_s``.  The timed phase then calls ``sngp.cli.main`` in this
process, repeating the workload's CLI calls until ``--seconds`` have passed
(at least twice), and checks the outputs of the first repeat and that every
repeat wrote byte-identical files.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics (medians over the traced repeats) and ``trace.overhead_s``.

Every metric is printed by name and unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, output hashes, checks, spans per layer,
coverage) goes to ``.perfbench_out/<workload>-seed<N>-trace<T>/results.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import environment  # stdlib only; modules that load NumPy are imported after pin_blas_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MIN_REPEATS = 2


def pin_blas_threads() -> None:
    """Before NumPy loads: the same BLAS thread count in this process and its children."""
    threads = str(environment.pinned_blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


class Ledger:
    """Every operation (CLI call or output check) ends as a pass or a fail."""

    def __init__(self):
        self.entries: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.entries.append((name, ok))
        if not ok:
            print(f"perfbench: FAILED {name}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok in self.entries)


def run_setups(workload: str, seed: int, run_dir: Path, count: int, ledger: Ledger):
    times = []
    for i in range(count):
        dest = run_dir / f"setup{i}"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "prepare.py"), "--workload", workload,
                               "--seed", str(seed), "--dest", str(dest)], cwd=ROOT)
        times.append(time.perf_counter() - start)
        ledger.add(f"set-up {i}", proc.returncode == 0)
    return times


def warm_up() -> None:
    """First BLAS/LAPACK calls of a process start thread pools; pay that before timing."""
    import numpy as np
    from scipy.linalg import cho_factor, cho_solve
    a = np.random.default_rng(0).standard_normal((512, 512))
    spd = a @ a.T + 512 * np.eye(512)
    cho_solve(cho_factor(spd), a)
    np.linalg.norm(a[:128, :128], 2)


def run_repeat(workload, inputs, rep_dir, ledger, tracer=None) -> float:
    import workloads
    from sngp.cli import main as sngp_main
    rep_dir.mkdir()
    start = time.perf_counter()
    for argv in workloads.timed_calls(workload, inputs, rep_dir):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = (sngp_main(argv) if tracer is None
                        else tracer.call("cli", sngp_main, argv))
        except Exception:  # a traceback from the program is a failed operation
            traceback.print_exc()
            code = None
        ledger.add(f"sngp {argv[0]} ({rep_dir.name})", code == 0)
    return time.perf_counter() - start


def traced_repeat(workload, inputs, rep_dir, ledger):
    import tracing
    tracer = tracing.Tracer()
    with tracing.traced(tracer) as missing:
        wall = run_repeat(workload, inputs, rep_dir, ledger, tracer)
    tracer.write_spans(rep_dir.parent / f"spans-{rep_dir.name}.csv")
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    return wall, {"metrics": tracing.layer_metrics(tracer), "calls": calls}, missing


def coverage(workload: str, per_rep: list[dict], missing: list[str]) -> dict:
    """Spans the workload must exercise, pinned counts, and exact repeats of counts."""
    import workloads
    problems = [f"no patch target {m}" for m in missing]
    for span in workloads.EXPECTED_SPANS[workload]:
        if any(rep["calls"].get(span, 0) == 0 for rep in per_rep):
            problems.append(f"span {span} recorded no calls")
    for span, want in workloads.PINNED_CALLS.get(workload, {}).items():
        got = [rep["calls"].get(span, 0) for rep in per_rep]
        if any(g != want for g in got):
            problems.append(f"{span} calls {got}, pinned at {want}")
    exact = [k for k in per_rep[0]["metrics"] if not k.endswith(("_s", "_p50", "_p99"))]
    for key in exact:
        values = {rep["metrics"][key] for rep in per_rep}
        if len(values) > 1:
            problems.append(f"{key} differs between traced repeats: {sorted(values)}")
    for p in problems:
        print(f"perfbench: coverage: {p}", file=sys.stderr)
    return {"ok": not problems, "problems": problems,
            "calls": per_rep[0]["calls"], "pinned": workloads.PINNED_CALLS.get(workload, {})}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "score", "compare"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sngp" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'sngp'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import sngp
    if not Path(sngp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported sngp from {sngp.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    workload, seed, traced = args.workload, args.seed % 2**31, bool(args.trace)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ledger = Ledger()

    setup_s = run_setups(workload, seed, run_dir, 1 if traced else SETUP_REPEATS, ledger)
    inputs = run_dir / "setup0"
    input_hashes = [workloads.sha256s(run_dir / f"setup{i}", workloads.HASHED_INPUTS[workload])
                    for i in range(len(setup_s))]
    if len(input_hashes) > 1:
        ledger.add("set-up inputs byte-identical", all(h == input_hashes[0] for h in input_hashes))

    warm_up()
    walls, traced_walls, per_rep, missing = [], [], [], []
    start = time.perf_counter()
    while (len(walls) < (1 if traced else MIN_REPEATS)
           or time.perf_counter() - start < args.seconds):
        walls.append(run_repeat(workload, inputs, run_dir / f"rep{len(walls)}", ledger))
        if traced:
            wall, rep, missing = traced_repeat(workload, inputs,
                                               run_dir / f"traced{len(traced_walls)}", ledger)
            traced_walls.append(wall)
            per_rep.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rep_dirs = sorted(d for d in run_dir.iterdir() if d.name.startswith(("rep", "traced")))
    checks, quality = workloads.check_outputs(workload, inputs, rep_dirs[0], seed)
    for name, ok in checks:
        ledger.add(name, ok)
    output_hashes = {d.name: workloads.sha256s(d, workloads.HASHED_OUTPUTS[workload])
                     for d in rep_dirs}
    first = output_hashes[rep_dirs[0].name]
    ledger.add("repeats byte-identical",
               bool(first) and all(h == first for h in output_hashes.values()))

    results = {
        "workload": workload, "trace": int(traced),
        "environment": environment.record(ROOT, seed, {
            "setups": len(setup_s), "repeats": len(walls), "traced_repeats": len(traced_walls)}),
        "setup_s": setup_s, "wall_s": walls, "traced_wall_s": traced_walls,
        "peak_rss_mb": peak_rss_mb, "quality": quality,
        "input_sha256": input_hashes[0], "output_sha256": first,
        "operations": [{"name": n, "ok": ok} for n, ok in ledger.entries],
        "error_rate": ledger.failed / len(ledger.entries),
    }
    if traced:
        layer = {k: statistics.median(rep["metrics"][k] for rep in per_rep)
                 for k in per_rep[0]["metrics"]}
        layer["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        results["coverage"] = coverage(workload, per_rep, missing)
        values, listed = layer, spec["per_layer"]
    else:
        wall_s = statistics.median(walls)
        values = {"setup_s": statistics.median(setup_s), "wall_s": wall_s,
                  "rows_per_s": workloads.rows_of_work(workload) / wall_s,
                  "peak_rss_mb": peak_rss_mb, "accuracy": quality.get("accuracy", 0.0)}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    results["metrics"] = metrics
    (run_dir / "results.json").write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    for d in run_dir.iterdir():
        if d.is_dir():
            shutil.rmtree(d)

    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    for name, v in sorted(quality.items()):
        print(f"{'quality.' + name:<44} {v:>16.6g} (not gated)")
    print(f"{'error_rate':<44} {results['error_rate']:>16.6g} failed/attempted")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": len(ledger.entries),
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
