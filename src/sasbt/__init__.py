"""Search-based scenario testing and surrogate-assisted falsification.

Two complementary pipelines:

* multi-objective scenario search over a deterministic car/pedestrian
  simulator, optionally guided by a decision tree that re-focuses the
  search on regions with a high share of critical scenarios
  (:mod:`sasbt.search`, :mod:`sasbt.scenario`, :mod:`sasbt.guidance`);
* falsification of signal-level requirements against discrete-time
  systems through a cheap auto-regressive surrogate that proposes
  candidates for real simulation
  (:mod:`sasbt.stl`, :mod:`sasbt.arx`, :mod:`sasbt.falsify`).

Scenario search records every simulation in an `EvaluationArchive`;
falsification keeps one `RoundLog` per real simulation instead.

Quality indicators, experiment drivers and the command line live in
:mod:`sasbt.indicators`, :mod:`sasbt.harness` and :mod:`sasbt.cli`.
"""

from .arx import ArxConfig, ArxModel, fit_arx, simulate_arx
from .falsify import (FalsificationStats, FalsifyResult, SignalParam,
                      benchmark_sut, build_signal, falsification_stats,
                      falsify, random_baseline)
from .guidance import (CriticalRegion, DtConfig, DtResult, extract_regions,
                       fit_tree, nsga2_dt)
from .harness import (ConfigError, ExperimentConfig, replay, run_compare,
                      run_falsify, score_archive)
from .indicators import (DistinctnessPolicy, distinct_critical,
                         generational_distance, hypervolume,
                         non_dominated_filter, normalize, spread)
from .scenario import (FitnessVector, ScenarioInput, SimConfig,
                       SimulationTrace, evaluate_input, fitness,
                       make_evaluator, search_space, simulate)
from .search import (EvaluationArchive, SearchConfig, SearchSpace,
                     crowding_distance, evolve, lhs_sample,
                     non_dominated_sort)
from .stl import (Formula, compile_requirement, format_requirement,
                  parse_requirement, robustness)

__version__ = "0.1.0"

__all__ = [
    "ArxConfig", "ArxModel", "ConfigError", "CriticalRegion",
    "DistinctnessPolicy", "DtConfig", "DtResult", "EvaluationArchive",
    "ExperimentConfig", "FalsificationStats", "FalsifyResult",
    "FitnessVector", "Formula", "ScenarioInput", "SearchConfig",
    "SearchSpace", "SignalParam", "SimConfig", "SimulationTrace",
    "benchmark_sut", "build_signal", "compile_requirement", "crowding_distance",
    "distinct_critical", "evaluate_input", "evolve", "extract_regions",
    "falsification_stats", "falsify", "fit_arx", "fit_tree", "fitness",
    "format_requirement", "generational_distance", "hypervolume",
    "lhs_sample", "make_evaluator", "non_dominated_filter",
    "non_dominated_sort", "normalize", "parse_requirement",
    "random_baseline", "replay", "robustness", "run_compare",
    "run_falsify", "score_archive", "search_space", "simulate",
    "simulate_arx", "spread",
]
