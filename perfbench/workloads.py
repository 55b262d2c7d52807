"""Benchmark workloads and the per-layer predictions they test.

Each workload is a bundled config plus overrides; the benchmark's --seed
becomes `experiment.base_seed`, so the same seed gives the same inputs.
The one-line reason each workload was chosen is its `why` in BENCHMARK.json.
Names here are the ones later changes claim gains against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the repository root
    overrides: dict[str, str]
    warmup: dict[str, str]  # applied on top of overrides for the discarded warm-up run
    exercises: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()


WORKLOADS = {
    "compare-default": Workload(
        config="configs/compare_default.cfg",
        overrides={"experiment.repetitions": "1"},
        warmup={"experiment.budget": "200"},
        exercises=("scenario", "search", "guidance", "indicators", "harness"),
        bypasses=("arx", "stl", "falsify"),
    ),
    "falsify-exhaust": Workload(
        config="configs/falsify_tank.cfg",
        overrides={"experiment.repetitions": "2",
                   "falsify.requirement": "always[0,50] y0 <= 24",
                   "falsify.real_budget": "60"},
        warmup={"falsify.real_budget": "8", "experiment.repetitions": "1"},
        exercises=("arx", "stl", "falsify", "harness"),
        bypasses=("scenario", "search", "guidance", "indicators"),
    ),
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any optimisation is measured.
PREDICTIONS = [
    {"metrics": ["scenario.evaluate_input.calls", "scenario.evaluate_input.self_s",
                 "scenario.us_per_sim"],
     "moves": ["wall_s", "sims_per_s"],
     "compare-default": "moves (~80% of wall)",
     "falsify-exhaust": "no change (layer absent)"},
    {"metrics": ["scenario.dup_frac"],
     "moves": ["wall_s", "sims_per_s"],
     "compare-default": "bounds what a duplicate-genome cache can save",
     "falsify-exhaust": "no change (layer absent)"},
    {"metrics": ["search.evolve.calls", "search.evolve.self_s",
                 "search.non_dominated_sort.calls", "search.non_dominated_sort.self_s"],
     "moves": ["wall_s"],
     "compare-default": "no visible change (~1-2% of wall)",
     "falsify-exhaust": "no change (layer absent)"},
    {"metrics": ["guidance.fit_tree.calls", "guidance.fit_tree.self_s",
                 "guidance.nsga2_dt.calls", "guidance.nsga2_dt.self_s",
                 "guidance.self_referenced_snapshots.calls",
                 "guidance.self_referenced_snapshots.self_s"],
     "moves": ["wall_s"],
     "compare-default": "a few percent",
     "falsify-exhaust": "no change (layer absent)"},
    {"metrics": ["guidance.budget_used_frac"],
     "moves": ["sims_per_s"],
     "compare-default": "useful-work ratio behind sims_per_s",
     "falsify-exhaust": "no change (layer absent)"},
    {"metrics": [f"indicators.{fn}.{kind}"
                 for fn in ("non_dominated_filter", "hypervolume",
                            "generational_distance", "spread", "distinct_critical")
                 for kind in ("calls", "self_s")],
     "moves": ["wall_s"],
     "compare-default": "moves by at most 15%",
     "falsify-exhaust": "no change (layer absent)"},
    {"metrics": ["harness.run.calls", "harness.run.self_s", "harness.to_csv.calls",
                 "harness.to_csv.self_s", "harness.replay_s"],
     "moves": ["wall_s"],
     "compare-default": "no visible change (<1% of wall)",
     "falsify-exhaust": "no visible change (<1% of wall)"},
    {"metrics": ["harness.artifact_bytes"],
     "moves": ["peak_rss_mb"],
     "compare-default": "tracks peak_rss_mb and output I/O",
     "falsify-exhaust": "no visible change"},
    {"metrics": ["arx.fit_arx.calls", "arx.fit_arx.self_s", "arx.fit_rows",
                 "arx.simulate_arx.calls", "arx.simulate_arx.self_s",
                 "stl.robustness.calls", "stl.robustness.self_s",
                 "falsify.falsify.calls", "falsify.falsify.self_s",
                 "falsify.build_signal.calls", "falsify.build_signal.self_s",
                 "falsify.optimizer.calls", "falsify.optimizer.self_s"],
     "moves": ["wall_s", "sims_per_s"],
     "compare-default": "no change (layers absent)",
     "falsify-exhaust": "moves (surrogate loop ~88% of wall)"},
    {"metrics": ["falsify.sut.calls", "falsify.sut.self_s", "falsify.surrogate_per_real"],
     "moves": ["wall_s"],
     "compare-default": "no change (layer absent)",
     "falsify-exhaust": "no change (real SUT ~0.1% of wall)"},
    {"metrics": ["other.self_s", "trace.wall_s", "trace.overhead_s"],
     "moves": [],
     "compare-default": "diagnostic: tracing cost; other.self_s is ~0, as harness.run spans the timed region",
     "falsify-exhaust": "diagnostic: tracing cost; other.self_s is ~0, as harness.run spans the timed region"},
]


def load_config(name: str, seed: int, extra: dict[str, str] | None = None):
    """Import sasbt, then load the workload's config file, apply its
    overrides (and `extra`, used by the warm-up) and validate the result."""
    from sasbt import harness

    workload = WORKLOADS[name]
    raw = harness.parse_config_text((ROOT / workload.config).read_text(encoding="utf-8"))
    raw.update(workload.overrides)
    raw.update(extra or {})
    raw["experiment.base_seed"] = str(seed)
    return harness.ExperimentConfig.from_text(
        "".join(f"{key} = {value}\n" for key, value in raw.items()))
