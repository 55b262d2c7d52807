#!/usr/bin/env python3
"""Mutation check for sasbt's fast paths and operators.

Each mutant is a one-line text replacement in one file under src/.  For
every mutant the runner copies the working tree (tracked and untracked,
not ignored files) into a temporary directory and applies the replacement
there; the working tree is never written.  A mutant either names the test
expected to kill it, which is run alone and must fail, or is marked
equivalent with a one-line argument, and then the whole Tier-1 suite runs
with -x and must pass.  Each run is a child process with a timeout of
TIMEOUT_S and an address-space limit of MEM_MB, so a mutant that hangs or
grows without bound is stopped and reported as such.

The run prints a Markdown table and exits 1 if any mutant's result is not
the expected one.  It takes minutes (each equivalent mutant runs all of
Tier-1), so it is not part of Tier-1:

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = "equivalent: "
TIMEOUT_S = 600.0  # per run
MEM_MB = 3072  # address-space limit per run


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    expect: str  # the killing test, or EQUIVALENT + the argument


MUTANTS = [
    Mutant("sweep bisect_right -> bisect_left", "src/sasbt/search.py",
           "bisect.bisect_right(last, f2)", "bisect.bisect_left(last, f2)",
           "test_indicators.py::test_filter_matches_brute_force"),
    Mutant("sweep takes NaN rows in", "src/sasbt/search.py",
           "if f1 != f1 or f2 != f2:", "if False:",
           "test_indicators.py::test_filter_examples"),
    Mutant("_hv2 dedup on f1 only", "src/sasbt/indicators.py",
           "distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)",
           "distinct[1:] = pts[1:, 0] != pts[:-1, 0]",
           EQUIVALENT + "on a filtered front two distinct points never share f1"),
    Mutant("prefix critical count side right", "src/sasbt/indicators.py",
           "k = int(np.searchsorted(crit_rows, count))",
           "k = int(np.searchsorted(crit_rows, count, side='right'))",
           "test_indicators.py::test_incremental_prefix_scores_equal_batch_scores"),
    Mutant("stl one-window slice one short", "src/sasbt/stl.py",
           "ufunc.reduce(inner(tr)[..., ia:], axis=-1, keepdims=True)",
           "ufunc.reduce(inner(tr)[..., ia:ib], axis=-1, keepdims=True)",
           "test_stl.py::test_compiled_requirement_matches_reference_bit_for_bit"),
    Mutant("annealer accept < -> <=", "src/sasbt/falsify.py",
           "uniforms[i] < math.exp(", "uniforms[i] <= math.exp(",
           EQUIVALENT + "a uniform equals exp(-delta / temp) only on a measure-zero set"),
    Mutant("crowding ties by descending row", "src/sasbt/search.py",
           "order = np.lexsort((objs[:, j], rank))",
           "order = np.lexsort((-np.arange(n), objs[:, j], rank))",
           "test_search.py::test_crowding_ties_go_to_the_lower_row"),
    Mutant("selection ties by descending row", "src/sasbt/search.py",
           "key=lambda i: (-crowding[i], rows[i])", "key=lambda i: (-crowding[i], -rows[i])",
           "test_guidance.py::test_nsga2_dt_focuses_on_critical_box"),
    Mutant("tournament ties by higher row", "src/sasbt/search.py",
           "wins = rows[i] < rows[j]", "wins = rows[i] > rows[j]",
           "test_guidance.py::test_nsga2_dt_focuses_on_critical_box"),
    Mutant("thresholded distinctness > -> >=", "src/sasbt/indicators.py",
           "far = np.abs(row - g[:i][new[:i]]) > policy.epsilon",
           "far = np.abs(row - g[:i][new[:i]]) >= policy.epsilon",
           "test_indicators.py::test_incremental_prefix_scores_equal_batch_scores"),
    Mutant("SBX skip threshold < 1e-14 -> <= 0.0", "src/sasbt/search.py",
           "if abs(x1 - x2) < 1e-14:", "if abs(x1 - x2) <= 0.0:",
           "test_search.py::test_sbx_skips_a_dimension_whose_parents_are_closer_than_1e_14"),
    Mutant("annealer re-proposes from x", "src/sasbt/falsify.py",
           "cands = space.clip(cand + steps[first:])", "cands = space.clip(x + steps[first:])",
           "test_falsify.py::test_optimizers_spend_exactly_the_budget_and_stay_in_bounds"),
    Mutant("exit margin dropped", "src/sasbt/scenario.py",
           "> d.min() * (1.0 + EXIT_MARGIN)", "> d.min()",
           EQUIVALENT + "np.hypot(a, b) >= abs(a), so no later sample is below abs(px0 - x_K)"),
    Mutant("exit test > -> >=", "src/sasbt/scenario.py",
           "> d.min() * (1.0 + EXIT_MARGIN)", ">= d.min() * (1.0 + EXIT_MARGIN)",
           EQUIVALENT + "a later sample equal to the minimum is not its first occurrence"),
    Mutant("exit taken whatever the distances", "src/sasbt/scenario.py",
           "if k == n or abs(px0 - float(ego_x[k])) > d.min() * (1.0 + EXIT_MARGIN):",
           "if True:",
           "test_scenario.py::test_evaluate_input_runs_on_past_a_stop_short_of_the_pedestrian"),
    Mutant("sweep duplicate rule removed", "src/sasbt/search.py",
           "if (f1, f2) != prev:", "if True:",
           "test_search.py::test_non_dominated_sort_matches_brute_force"),
    Mutant("crowding span <= 0 -> < 0", "src/sasbt/search.py",
           "(span <= 0.0)", "(span < 0.0)",
           "test_search.py::test_sweep_and_all_fronts_crowding_match_the_peel"),
]


def tree_files() -> list[str]:
    """Tracked and untracked, not ignored, files of the working tree."""
    out = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return [f for f in out.split("\0") if f and (ROOT / f).is_file()]


def limit_memory() -> None:
    limit = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_mutant(mutant: Mutant, files: list[str]) -> tuple[str, float]:
    """(status, seconds): status is killed, survived, timeout, invalid (the
    old text does not occur exactly once) or error."""
    with tempfile.TemporaryDirectory(prefix="sasbt-mutant-") as tmp:
        copy = Path(tmp)
        for f in files:
            (copy / f).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / f, copy / f)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"invalid: old text occurs {text.count(mutant.old)} times", 0.0
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        tests = [] if mutant.expect.startswith(EQUIVALENT) else ["tests/" + mutant.expect]
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True,
                                preexec_fn=limit_memory)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.perf_counter() - start
        # pytest exits 1 on a failed test and 2 on a collection error; 4
        # (usage, such as an unknown test id) or 5 (nothing collected) kills nothing
        status = {0: "survived", 1: "killed", 2: "killed"}.get(code, f"error: pytest exit {code}")
        return status, time.perf_counter() - start


def main() -> int:
    files = tree_files()
    print("| mutant | expected | result | s |\n|---|---|---|---|")
    bad = 0
    for m in MUTANTS:
        status, seconds = run_mutant(m, files)
        equivalent = m.expect.startswith(EQUIVALENT)
        ok = status == "survived" if equivalent else status in ("killed", "timeout")
        bad += not ok
        print(f"| {m.name} | {m.expect} | {status}{'' if ok else ' **UNEXPECTED**'} "
              f"| {seconds:.0f} |", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
