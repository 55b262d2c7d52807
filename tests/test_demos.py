"""Smoke tests for the scripts under demos/: each runs in a fresh process
from an empty working directory, with small arguments, and must exit 0
having written the files it announces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FALSIFY_FILES = ["report.json", "stats.csv", "trial_00.jsonl"]
COMPARE_FILES = ["report.json", "snapshots.csv", "plots.csv", "regions.json",
                 *(f"archive_{alg}-r{rep:02d}.csv" for alg in ("nsga2", "nsga2dt")
                   for rep in range(3))]


@pytest.mark.parametrize("script, args, written", [
    ("falsification_campaign.py", ["--reps", "1"],
     [f"out_falsify_demo/{sub}/{name}" for sub in ("lti2", "tank", "tank_random")
      for name in FALSIFY_FILES]),
    ("indicator_tour.py", [], []),
    ("scenario_walkthrough.py", ["--out", "scenario"], ["scenario/collision_trace.csv"]),
    ("search_comparison.py", ["--out", "compare"],
     [f"compare/{name}" for name in COMPARE_FILES]),
])
def test_demo_runs_and_writes_its_files(tmp_path: Path, script: str, args: list[str],
                                        written: list[str]) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    files = {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file()}
    assert set(written) <= files
    if not written:
        assert not files  # the tour only prints
