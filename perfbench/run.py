#!/usr/bin/env python3
"""sasbt benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from a checkout of the repository; nothing needs installing, because
sasbt is imported from src/:

    python3 perfbench/run.py --workload compare-default --seed 1 --seconds 30 --trace 0

Workloads, their config overrides and the per-layer predictions are in
workloads.py.  One invocation:

1. pins the BLAS/OpenMP pools to one thread before numpy is imported;
2. with --trace 0, times fresh interpreters that import sasbt and load and
   validate the workload config (setup_s, median of several);
3. discards one scaled-down warm-up run;
4. runs the workload through harness.run_compare / run_falsify and then
   harness.replay, again and again for --seconds (at least two runs).
   With --trace 1 traced and untraced runs alternate, and the traced run
   with the median wall time supplies the per-layer numbers.

Every run writes into a fresh directory under .bench_tmp/ in the checkout,
which is deleted after its outputs are checked.  Any run that raises or
fails a check counts as failed.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_RUNS = 2
MAX_LOOP_S = 120.0
SETUP_PROBES = 5
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.load_config(sys.argv[3], int(sys.argv[4]))")

# metric names and units; each run must report exactly these
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# counters that must repeat exactly between traced runs of the same code
EXACT = ("scenario.dup_frac", "guidance.budget_used_frac", "harness.artifact_bytes",
         "arx.fit_rows", "falsify.surrogate_per_real")


def units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's "end_to_end" or "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@dataclass
class Run:
    wall: float
    replay_s: float
    facts: dict
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced runs only


def _genomes(path: Path) -> list[tuple[str, ...]]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols = [i for i, c in enumerate(header) if c.startswith("g")]
        return [tuple(parts[i] for i in cols)
                for parts in (line.strip().split(",") for line in fh) if parts != [""]]


def inspect_outputs(cfg, report: dict, out: Path) -> tuple[dict, list[str]]:
    """Counters computed from an experiment's artifacts, and every check
    the artifacts fail."""
    problems: list[str] = []
    digest = hashlib.sha256()
    size = 0
    for p in sorted(p for p in out.rglob("*") if p.is_file()):
        data = p.read_bytes()
        size += len(data)
        digest.update(f"{p.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    facts = {"sha256": digest.hexdigest(), "harness.artifact_bytes": size,
             "scenario.dup_frac": 0.0, "guidance.budget_used_frac": 0.0}
    if cfg.kind == "compare":
        rows = dups = guided = 0
        if len(report["runs"]) != 2 * cfg.repetitions:
            problems.append(f"{len(report['runs'])} runs for {cfg.repetitions} repetitions")
        for run in report["runs"]:
            genomes = _genomes(out / run["archive_csv"])
            n = len(genomes)
            rows += n
            dups += n - len(set(genomes))
            if n != run["summary"]["evaluations"]:
                problems.append(f"{run['run_id']}: {n} archive rows, report says "
                                f"{run['summary']['evaluations']}")
            if run["algorithm"] == "nsga2" and n != cfg.budget:
                problems.append(f"{run['run_id']}: {n} rows, budget {cfg.budget}")
            if run["algorithm"] == "nsga2dt":
                guided += n
                if n > cfg.budget:
                    problems.append(f"{run['run_id']}: {n} rows over budget {cfg.budget}")
        facts["sims"] = rows
        facts["scenario.dup_frac"] = dups / rows if rows else 0.0
        facts["guidance.budget_used_frac"] = guided / (cfg.budget * cfg.repetitions)
    else:
        # the falsify workloads use a requirement the system meets, so every
        # trial must spend its whole real budget without a violation
        if report["stats"]["FR"] != 0:
            problems.append(f"FR {report['stats']['FR']}, expected 0")
        real = 0
        for trial in report["trials"]:
            path = out / f"trial_{trial['trial']:02d}.jsonl"
            logs = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
                    if line.strip()]
            real += len(logs)
            if trial["real_simulations"] != cfg.real_budget or len(logs) != cfg.real_budget:
                problems.append(f"trial {trial['trial']}: {len(logs)} logged real "
                                f"simulations, real_budget {cfg.real_budget}")
            if any(r["real_robustness"] <= 0.0 for r in logs):
                problems.append(f"trial {trial['trial']}: a real robustness <= 0")
        facts["sims"] = real
    return facts, problems


def run_experiment(cfg, tracer: spans.Tracer | None = None, run_id: str = "") -> Run:
    """One experiment into a fresh directory, then replay and checks."""
    from sasbt import harness

    TMP.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        if tracer is not None:
            tracer.run_id = run_id
        experiment = harness.run_compare if cfg.kind == "compare" else harness.run_falsify
        start = time.perf_counter()
        report = experiment(cfg, out, quiet=True)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.run_id = run_id + "/replay"
        start = time.perf_counter()
        replayed = harness.replay(out, quiet=True)
        replay_s = time.perf_counter() - start
        facts, problems = inspect_outputs(cfg, report, out)
        if not replayed:
            problems.append("replay() returned False")
        return Run(wall, replay_s, facts, problems)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def layer_metrics(run: Run, tracer: spans.Tracer, run_id: str, kind: str) -> dict:
    """Per-layer metrics of one traced run (without trace.overhead_s)."""
    totals, roots = tracer.layer_totals(run_id)
    m: dict = {}
    for name, (calls, self_s) in totals.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.self_s"] = self_s
    calls = m["scenario.evaluate_input.calls"]
    m["scenario.us_per_sim"] = m["scenario.evaluate_input.self_s"] / calls * 1e6 if calls else 0.0
    for key in ("scenario.dup_frac", "guidance.budget_used_frac", "harness.artifact_bytes"):
        m[key] = run.facts[key]
    m["harness.replay_s"] = run.replay_s
    m["arx.fit_rows"] = tracer.fit_rows.get(run_id, 0)
    m["falsify.surrogate_per_real"] = (m["arx.simulate_arx.calls"] / run.facts["sims"]
                                       if kind == "falsify" else 0.0)
    m["other.self_s"] = run.wall - roots
    m["trace.wall_s"] = run.wall
    return m


def attempt(cfg, tracer=None, run_id="") -> Run | None:
    try:
        return run_experiment(cfg, tracer, run_id)
    except Exception:  # a failed run is counted, and the benchmark goes on
        traceback.print_exc()
        return None


def time_setup(workload: str, seed: int) -> tuple[list[float], int]:
    """Wall seconds of fresh interpreters that import sasbt and load the
    workload config; also the number that failed."""
    times, failed = [], 0
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC),
                               workload, str(seed)], capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr)
    return times, failed


def upper_percentile(n: int) -> int | None:
    """Highest of p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (90, 95, 99) if n * (100 - p) / 100 >= 10]
    return supported[-1] if supported else None


def describe(label: str, values: list[float], unit: str) -> str:
    n = len(values)
    line = f"{label} median {statistics.median(values):.4f} {unit} (n={n}"
    p = upper_percentile(n)
    if p is None:
        return line + f"; max {max(values):.4f} {unit}; no upper percentile has 10 samples beyond it)"
    q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return line + f"; p{p} {q:.4f} {unit})"


def environment_line() -> str:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return (f"env python {sys.version.split()[0]} numpy {numpy.__version__} "
            f"scipy {scipy.__version__} nproc {len(os.sched_getaffinity(0))} "
            f"src_lines {src_lines} threads "
            + ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = workloads.WORKLOADS[workload]
    cfg = workloads.load_config(workload, seed)
    print(environment_line())
    print(f"workload {workload} seed {seed}: {spec.config} + "
          + " ".join(f"{k}={v}" for k, v in spec.overrides.items()))
    for w in BENCH["workloads"]:
        if w["name"] == workload:
            print(f"why: {w['why']}")
    attempted = failed = 0
    metrics: dict = {}
    if not trace:
        setup, setup_failed = time_setup(workload, seed)
        attempted += SETUP_PROBES
        failed += setup_failed
        metrics["setup_s"] = statistics.median(setup)
        print(describe("setup_s", setup, "s"))

    warm = attempt(workloads.load_config(workload, seed, spec.warmup))
    attempted += 1
    if warm is None or warm.problems:
        failed += 1
        print(f"warm-up failed: {warm.problems if warm else 'raised'}")

    tracer = spans.Tracer() if trace else None
    untraced: list[Run] = []
    traced: list[tuple[str, Run]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        done = len(durations)
        enough = (len(traced) >= 2 and len(untraced) >= 1) if trace else done >= MIN_RUNS
        if done:
            ends_at = time.perf_counter() - start + statistics.median(durations)
            # stop near the window's end once there are enough runs (or a
            # run has failed), and always before the 180-second exit limit
            if ((enough or len(untraced) + len(traced) < done)
                    and ends_at - 0.5 * statistics.median(durations) >= seconds
                    or ends_at > MAX_LOOP_S):
                break
        use_trace = trace and len(traced) <= len(untraced)
        run_id = f"r{done:02d}"
        began = time.perf_counter()
        if use_trace:
            with tracer.installed():
                run = attempt(cfg, tracer, run_id)
        else:
            run = attempt(cfg)
        durations.append(time.perf_counter() - began)
        attempted += 1
        if run is None:
            failed += 1
            continue
        if use_trace:
            run.layers = layer_metrics(run, tracer, run_id, cfg.kind)
            traced.append((run_id, run))
        else:
            untraced.append(run)
        print(f"{'traced ' if use_trace else ''}run {run_id}: wall {run.wall:.4f} s, "
              f"{run.facts['sims']} real simulations, replay {run.replay_s:.4f} s, "
              f"artifacts sha256 {run.facts['sha256'][:16]}")
        for problem in run.problems:
            print(f"  check failed: {problem}")

    # all runs of one invocation must produce identical artifacts, and
    # traced runs identical counters
    runs = untraced + [run for _, run in traced]
    reference = runs[0] if runs else None
    for run in runs:
        if run.facts["sha256"] != reference.facts["sha256"]:
            run.problems.append("artifacts differ from the first run's")
    for _, run in traced:
        for key in EXACT + tuple(k for k in run.layers if k.endswith(".calls")):
            if run.layers[key] != traced[0][1].layers[key]:
                run.problems.append(f"counter {key} differs from the first traced run's")
        for layer in spec.bypasses:
            calls = sum(v for k, v in run.layers.items()
                        if k.startswith(layer + ".") and k.endswith(".calls"))
            if calls:
                run.problems.append(f"{calls} calls into bypassed layer {layer}")
    failed += sum(1 for run in runs if run.problems)
    if reference is not None:
        print(f"artifacts sha256 {reference.facts['sha256']}")

    if trace and traced:
        ordered = sorted(traced, key=lambda item: item[1].wall)
        run_id, chosen = ordered[(len(ordered) - 1) // 2]
        metrics = dict(chosen.layers)
        if untraced:
            metrics["trace.overhead_s"] = (statistics.median(r.wall for _, r in traced)
                                           - statistics.median(r.wall for r in untraced))
        report_layers(workload, metrics, run_id, len(traced))
        tracer.write(TMP / f"spans-{workload}.tsv")
    elif untraced:
        walls = [r.wall for r in untraced]
        metrics["wall_s"] = statistics.median(walls)
        metrics["sims_per_s"] = statistics.median(r.facts["sims"] / r.wall for r in untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(describe("wall_s", walls, "s"))
        print(describe("sims_per_s", [r.facts["sims"] / r.wall for r in untraced], "1/s"))
        print(f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} runs failed)")
    unit = units("per_layer" if trace else "end_to_end")
    return {"correct": failed == 0 and set(metrics) == set(unit), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}}


def report_layers(workload: str, m: dict, run_id: str, n_traced: int) -> None:
    wall = m["trace.wall_s"]
    print(f"traced run {run_id} (median wall of {n_traced}): {wall:.4f} s")
    shares: dict[str, float] = {}
    for name in spans.SPAN_NAMES:
        self_s = m[f"{name}.self_s"]
        shares[name.split(".")[0]] = shares.get(name.split(".")[0], 0.0) + self_s
        print(f"  {name}: {m[name + '.calls']} calls, self {self_s:.4f} s "
              f"({100 * self_s / wall:.1f}%)")
    print("layer self time: " + ", ".join(f"{k} {100 * v / wall:.1f}%"
                                          for k, v in shares.items())
          + f", other {100 * m['other.self_s'] / wall:.2f}%")
    for name, unit in units("per_layer").items():
        if not name.endswith((".calls", ".self_s")):
            print(f"  {name} {m.get(name, 'missing')} {unit}")
    for p in workloads.PREDICTIONS:
        if p["moves"]:
            print(f"prediction {', '.join(p['metrics'][:2])}{', ...' if len(p['metrics']) > 2 else ''}"
                  f" -> {'/'.join(p['moves'])}: {p[workload]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "sasbt" / "__init__.py"] + [
        ROOT / config for config in dict.fromkeys(w.config for w in workloads.WORKLOADS.values())]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # one process, no extra threads: pin the pools before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
