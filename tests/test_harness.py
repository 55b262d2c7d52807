"""Tests for config parsing, the experiment harness, replay and the CLI.

A small equal-budget comparison (budget 80, 2 repetitions) is run once per
module and shared; the byte-identical rerun check runs it a second time.
The last section fakes the usable CPU set (`os.sched_getaffinity`) to run
experiments with one, two and three workers.
"""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt import cli, harness, scenario
from sasbt.arx import ArxConfig, fit_arx
from sasbt.falsify import SignalParam, falsify, random_baseline
from sasbt.harness import (
    METRICS,
    ConfigError,
    ExperimentConfig,
    _compare_outputs,
    parse_config_text,
    replay,
    run_compare,
    run_falsify,
    score_archive,
)
from sasbt.search import EvaluationArchive
from sasbt.stl import Always, Atom, parse_requirement

COMPARE_TEXT = """
# small equal-budget comparison
experiment.kind = compare
experiment.budget = 80
experiment.repetitions = 2
experiment.base_seed = 5

search.population = 8
dt.initial_lhs = 40
dt.population = 8
dt.generations = 2
"""

FALSIFY_TEXT = """
experiment.kind = falsify
experiment.repetitions = 2
experiment.base_seed = 3

falsify.system = lti2
falsify.requirement = always[0,10] y0 <= 1e6   # unfalsifiable on purpose
falsify.real_budget = 4
falsify.surrogate_budget = 40
falsify.arx_nk = 1

signal.control_points = 3
signal.upper = 1.5
signal.horizon = 10
signal.period = 1
"""


# ---------- config text parsing ----------


def test_parse_config_text_basics() -> None:
    raw = parse_config_text("a.b = 1  # trailing comment\n\n# full comment\n c = x=y \n")
    assert raw == {"a.b": "1", "c": "x=y"}


def test_parse_config_text_errors() -> None:
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


# ---------- building experiment configs ----------


def test_compare_config_from_text() -> None:
    config = ExperimentConfig.from_text(COMPARE_TEXT)
    assert config.kind == "compare"
    assert config.budget == 80
    assert config.repetitions == 2
    assert config.base_seed == 5
    assert config.search.population == 8
    assert config.dt.budget == 80  # tied to the experiment budget
    assert config.dt.initial_lhs == 40
    assert config.dt.search.population == 8
    assert config.dt.search.generations == 2


def test_falsify_config_from_text() -> None:
    config = ExperimentConfig.from_text(FALSIFY_TEXT)
    assert config.kind == "falsify"
    assert config.system == "lti2"
    assert config.requirement == Always(0.0, 10.0, Atom(0, "le", 1e6))
    assert config.real_budget == 4
    assert (config.arx.na, config.arx.nb, config.arx.nk) == (2, 2, 1)
    assert config.signal.control_points == 3
    assert config.signal.upper == 1.5


def test_unknown_keys_are_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown config keys: experiment.budgit"):
        ExperimentConfig.from_text("experiment.budgit = 100\n")
    with pytest.raises(ConfigError, match="unknown config keys: signal.mode"):
        ExperimentConfig.from_text("experiment.kind = falsify\n"
                                   "falsify.requirement = y0 <= 1\n"
                                   "signal.mode = constrained\n")
    with pytest.raises(ConfigError, match="unknown config keys: experiment.sim_cost_s"):
        ExperimentConfig.from_text("experiment.sim_cost_s = 2.5\n")
    # a falsify trial spends falsify.real_budget; it has no experiment budget
    with pytest.raises(ConfigError, match="unknown config keys: experiment.budget"):
        ExperimentConfig.from_text("experiment.kind = falsify\n"
                                   "falsify.requirement = y0 <= 1\n"
                                   "experiment.budget = 5\n")


EXPERIMENT_KEYS = {"experiment.repetitions", "experiment.base_seed"}
COMPARE_KEYS = EXPERIMENT_KEYS | {
    "experiment.budget",
    *(f"sim.{name}" for name in (
        "dt", "horizon", "ego_width", "spot_x", "comfort_decel",
        "max_decel", "occluder", "ped_start", "sensor_range", "sensor_half_angle",
        "corridor_half_width", "brake_margin", "theta1", "theta2",
        "bounds_v0c", "bounds_v0p", "bounds_t_wait")),
    *(f"search.{name}" for name in (
        "population", "crossover_prob", "crossover_index", "mutation_prob",
        "mutation_index")),
    *(f"dt.{name}" for name in (
        "initial_lhs", "region_threshold", "max_depth", "min_samples_leaf",
        "population", "generations")),
    "distinct.mode", "distinct.min_vars", "distinct.epsilon",
}
FALSIFY_KEYS = EXPERIMENT_KEYS | {
    *(f"falsify.{name}" for name in (
        "system", "requirement", "real_budget", "surrogate_budget", "method",
        "n_initial", "arx_na", "arx_nb", "arx_nk")),
    *(f"signal.{name}" for name in (
        "control_points", "interpolation", "lower", "upper", "horizon", "period")),
}


@pytest.mark.parametrize("text, expected", [
    ("experiment.kind = compare\n", COMPARE_KEYS),
    ("experiment.kind = falsify\nfalsify.requirement = y0 <= 1\n", FALSIFY_KEYS),
], ids=["compare", "falsify"])
def test_each_kind_reads_exactly_its_keys(monkeypatch, text: str,
                                          expected: set[str]) -> None:
    assert (len(COMPARE_KEYS), len(FALSIFY_KEYS)) == (34, 17)
    read: set[str] = set()
    get = harness._Cfg.get

    def spy(self, key, default):
        read.add(key)
        return get(self, key, default)

    monkeypatch.setattr(harness._Cfg, "get", spy)
    ExperimentConfig.from_text(text)
    assert read == expected | {"experiment.kind"}


@pytest.mark.parametrize("kind, key", [
    # keys of the other kind's sections
    ("compare", "signal.horizon"), ("compare", "falsify.system"),
    ("falsify", "sim.dt"), ("falsify", "search.population"),
    # fields that are fixed by the harness, not read from the config
    *(("compare", key) for key in ("search.generations", "search.seed", "dt.budget",
                                   "dt.seed", "dt.search", "sim.input_bounds")),
    # the simulator models the ego by its front bumper: a length would change nothing
    ("compare", "sim.ego_length"),
])
def test_keys_outside_the_kind_schema_are_rejected(kind: str, key: str) -> None:
    text = {"compare": COMPARE_TEXT, "falsify": FALSIFY_TEXT}[kind]
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
        ExperimentConfig.from_text(f"{text}{key} = 1\n")


def test_inconsistent_budgets_are_rejected() -> None:
    with pytest.raises(ConfigError, match="not a multiple"):
        ExperimentConfig.from_text(
            "experiment.budget = 90\nsearch.population = 8\ndt.initial_lhs = 40\n")
    with pytest.raises(ConfigError, match="below two populations"):
        ExperimentConfig.from_text(
            "experiment.budget = 40\nsearch.population = 40\ndt.initial_lhs = 20\n")
    with pytest.raises(ConfigError, match="smaller than initial sample"):
        ExperimentConfig.from_text("experiment.budget = 90\nsearch.population = 8\n")


def test_bad_values_are_rejected() -> None:
    with pytest.raises(ConfigError, match="expected integer"):
        ExperimentConfig.from_text("experiment.budget = lots\n")
    with pytest.raises(ConfigError, match="two numbers"):
        ExperimentConfig.from_text("sim.bounds_v0c = 1,2,3\n")
    with pytest.raises(ConfigError, match="four numbers"):
        ExperimentConfig.from_text("sim.occluder = 1,2\n")
    with pytest.raises(ConfigError, match="expected number"):
        ExperimentConfig.from_text("sim.dt = fast\n")
    with pytest.raises(ConfigError, match="expected comma-separated numbers"):
        ExperimentConfig.from_text("sim.ped_start = 23,north\n")
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_text("experiment.kind = race\n")
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        ExperimentConfig.from_text("experiment.kind = race\nsim.dt = 0.01\n")
    with pytest.raises(ConfigError, match="repetitions"):
        ExperimentConfig.from_text("experiment.repetitions = 0\n")
    # no two rows can differ in more variables than the 3 scenario inputs
    for mode in ("thresholded", "any-difference"):
        with pytest.raises(ConfigError, match="min_vars = 4 exceeds the 3 scenario inputs"):
            ExperimentConfig.from_text(f"distinct.mode = {mode}\ndistinct.min_vars = 4\n")
    assert ExperimentConfig.from_text(
        "distinct.mode = thresholded\ndistinct.min_vars = 3\n").policy.min_vars == 3


def test_falsify_config_requires_requirement_and_known_system() -> None:
    with pytest.raises(ConfigError, match="falsify.requirement"):
        ExperimentConfig.from_text("experiment.kind = falsify\n")
    with pytest.raises(ConfigError, match="unknown benchmark"):
        ExperimentConfig.from_text(
            "experiment.kind = falsify\n"
            "falsify.system = rocket\n"
            "falsify.requirement = y0 <= 1\n")
    with pytest.raises(ConfigError, match="falsify.requirement"):
        ExperimentConfig.from_text(
            "experiment.kind = falsify\nfalsify.requirement = y0 <<= 1\n")


# each key is valid on its own, but the combination cannot be scored or run:
# the CLI must reject it as a config error before any simulation
@pytest.mark.parametrize("requirement, extra, message", [
    ("always[0,60] y0 <= 17", "signal.horizon = 50\n",
     r"falsify\.requirement: trace shorter than the formula horizon"),
    ("y1 <= 17", "",
     r"falsify\.requirement: signal index 1 outside trace with 1 signals"),
    # falsification is single-input: there is no channel count to set
    ("always[0,50] y0 <= 17", "signal.channels = 1\n",
     r"unknown config keys: signal\.channels"),
], ids=["horizon", "signal-index", "channels"])
def test_falsify_config_rejects_unscorable_requirement_and_channels(
        tmp_path: Path, monkeypatch, capsys, requirement: str, extra: str,
        message: str) -> None:
    text = ("experiment.kind = falsify\nfalsify.system = tank\n"
            f"falsify.requirement = {requirement}\n{extra}")
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(text)
    simulated = []
    monkeypatch.setattr(harness, "benchmark_sut", lambda *a: simulated.append(a))
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["falsify", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert simulated == [] and not out.exists()


# each order would only fail at the first ARX fit, after n_initial real runs
@pytest.mark.parametrize("orders, message", [
    ("falsify.arx_na = -1\n", r"falsify\.arx_na must be >= 0, got -1"),
    ("falsify.arx_na = 0\nfalsify.arx_nb = 0\n",
     r"falsify\.arx_na and falsify\.arx_nb are both 0"),
    ("falsify.arx_nk = 60\n", r"falsify\.arx_na/arx_nb/arx_nk = 2/2/60 leave 0 regression "
     r"rows in falsify\.n_initial = 2 traces of 51 samples, fewer than the 4 coefficients"),
], ids=["negative", "no-coefficients", "no-rows"])
def test_falsify_config_rejects_unfittable_arx_orders(
        tmp_path: Path, monkeypatch, capsys, orders: str, message: str) -> None:
    text = ("experiment.kind = falsify\nfalsify.system = tank\n"
            f"falsify.requirement = always[0,50] y0 <= 17\n{orders}")
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(text)
    simulated = []
    monkeypatch.setattr(harness, "benchmark_sut", lambda *a: simulated.append(a))
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["falsify", "--config", str(path), "--out", str(out),
                     "--reps", "1"]) == cli.EXIT_CONFIG
    assert "config error: falsify.arx_" in capsys.readouterr().err
    assert simulated == [] and not out.exists()


@pytest.mark.parametrize("n_initial", [1, 2])
def test_arx_order_check_accepts_exactly_the_fittable_orders(n_initial: int) -> None:
    rng = np.random.default_rng(n_initial)
    for na in range(4):
        for nb in range(4):
            for nk in range(8):
                text = ("experiment.kind = falsify\nfalsify.requirement = y0 <= 1\n"
                        f"falsify.n_initial = {n_initial}\nfalsify.arx_na = {na}\n"
                        f"falsify.arx_nb = {nb}\nfalsify.arx_nk = {nk}\n"
                        "signal.horizon = 6\n")
                try:
                    ExperimentConfig.from_text(text)
                    accepted = True
                except ConfigError:
                    accepted = False
                us = [rng.normal(size=7) for _ in range(n_initial)]
                try:
                    fit_arx(us, us, ArxConfig(na, nb, nk))
                    fits = True
                except ValueError:
                    fits = False
                assert accepted == fits, (na, nb, nk)


class FirstSimulation(Exception):
    """Raised by a system under test when a trial first calls it."""


def reaches_the_system(trial) -> bool:
    """Whether `trial(sut)` gets as far as its first simulation, rather than
    rejecting its inputs with `ValueError`."""
    def sut(u):
        raise FirstSimulation
    try:
        trial(sut)
    except FirstSimulation:
        return True
    except ValueError:
        return False
    raise AssertionError("the trial ended without a simulation")


@settings(max_examples=500, deadline=None, derandomize=True)
@given(real_budget=st.integers(0, 3), surrogate_budget=st.integers(0, 3),
       n_initial=st.integers(0, 3), na=st.integers(-1, 4), nb=st.integers(-1, 4),
       nk=st.integers(-1, 4), horizon=st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, math.inf]),
       period=st.sampled_from([0.5, 1.0, 2.0, math.nan]),
       control_points=st.sampled_from([0, 1, 2, 3, 4]), window=st.integers(0, 8),
       method=st.sampled_from(["anneal", "random"]))
def test_falsify_config_accepts_exactly_what_a_trial_runs(
        real_budget: int, surrogate_budget: int, n_initial: int, na: int, nb: int,
        nk: int, horizon: float, period: float, control_points: int, window: int,
        method: str) -> None:
    requirement = f"always[0,{window}] y0 <= 1e6"
    text = ("experiment.kind = falsify\nfalsify.system = tank\n"
            f"falsify.requirement = {requirement}\nfalsify.method = {method}\n"
            f"falsify.real_budget = {real_budget}\n"
            f"falsify.surrogate_budget = {surrogate_budget}\n"
            f"falsify.n_initial = {n_initial}\nfalsify.arx_na = {na}\n"
            f"falsify.arx_nb = {nb}\nfalsify.arx_nk = {nk}\n"
            f"signal.horizon = {horizon}\nsignal.period = {period}\n"
            f"signal.control_points = {control_points}\n")
    try:
        ExperimentConfig.from_text(text)
        accepted = True
    except ConfigError:
        accepted = False
    req = parse_requirement(requirement)
    signal = SignalParam(control_points=control_points, horizon=horizon, period=period)
    runs = reaches_the_system(lambda sut: falsify(
        sut, req, signal, real_budget=real_budget, surrogate_budget=surrogate_budget,
        arx=ArxConfig(na, nb, nk), n_initial=n_initial))
    if method == "random":
        # the config also rejects surrogate settings a random trial never uses
        runs = runs and reaches_the_system(
            lambda sut: random_baseline(sut, req, signal, real_budget=real_budget))
    assert accepted == runs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dt=st.integers(-1, 300).map(lambda k: k / 100), data=st.data())
def test_compare_config_accepts_exactly_the_grids_the_simulator_runs(dt: float,
                                                                     data) -> None:
    horizon = data.draw(st.one_of(st.integers(-1, 2000).map(lambda k: k / 100),
                                  st.integers(0, 40).map(lambda n: n * dt)), label="horizon")
    try:
        ExperimentConfig.from_text(f"sim.dt = {dt!r}\nsim.horizon = {horizon!r}\n")
        accepted = True
    except ConfigError:
        accepted = False
    try:
        scenario.evaluate_input(scenario.ScenarioInput(5.0, 1.0, 2.0),
                                scenario.SimConfig(dt=dt, horizon=horizon))
        simulates = True
    except ValueError:
        simulates = False
    assert accepted == simulates, (dt, horizon)


def test_config_file_round_trip(tmp_path: Path) -> None:
    path = tmp_path / "exp.cfg"
    path.write_text(COMPARE_TEXT, encoding="utf-8")
    assert ExperimentConfig.from_file(path).budget == 80
    with pytest.raises(ConfigError, match="cannot read config"):
        ExperimentConfig.from_file(tmp_path / "missing.cfg")


# ---------- the compare experiment end to end ----------


@pytest.fixture(scope="module")
def compare_run(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict]:
    out = tmp_path_factory.mktemp("compare")
    config = ExperimentConfig.from_text(COMPARE_TEXT)
    report = run_compare(config, out, quiet=True)
    return out, report


def test_compare_writes_all_artifacts(compare_run: tuple[Path, dict]) -> None:
    out, report = compare_run
    names = {p.name for p in out.iterdir()}
    assert {"report.json", "snapshots.csv", "plots.csv", "regions.json"} <= names
    assert {f"archive_{alg}-r{rep:02d}.csv"
            for alg in ("nsga2", "nsga2dt") for rep in range(2)} <= names
    assert len(report["runs"]) == 4
    for run in report["runs"]:
        evals = run["summary"]["evaluations"]
        if run["algorithm"] == "nsga2":
            assert evals == 80  # population x generations lands exactly on budget
        else:
            assert 40 < evals <= 80  # stops when the next stage would overshoot


def test_compare_snapshot_schema(compare_run: tuple[Path, dict]) -> None:
    out, _ = compare_run
    lines = (out / "snapshots.csv").read_text().splitlines()
    assert lines[0] == "run_id,stage,evaluations,hv,gd,spread,distinct_critical"
    for line in lines[1:]:
        run_id, stage, evals, hv, gd, spread, distinct = line.split(",")
        assert run_id.startswith(("nsga2-", "nsga2dt-"))
        assert 0 < int(evals) <= 80
        assert 0.0 <= float(hv) <= 1.01 ** 2 + 1e-12
        assert float(gd) >= 0.0 and float(spread) >= 0.0
        assert int(distinct) >= 0
    # plain runs checkpoint every generation: g00..g09 at 8, 16, ..., 80
    plain = [l for l in lines[1:] if l.startswith("nsga2-r00")]
    assert [int(l.split(",")[2]) for l in plain] == list(range(8, 81, 8))


def test_compare_report_aggregate(compare_run: tuple[Path, dict]) -> None:
    _, report = compare_run
    agg = report["aggregate"]
    assert set(agg) == {"distinct_critical_median", "distinct_critical_ratio",
                        "ranksum_pvalue", "alpha", "significant",
                        "hv_at_quarter_budget_median", "quarter_budget_evaluations"}
    assert agg["quarter_budget_evaluations"] == 20
    assert report["generations"] == 9  # 80 / 8 - 1


def test_compare_rerun_is_byte_identical(compare_run: tuple[Path, dict],
                                         tmp_path: Path) -> None:
    out, _ = compare_run
    again = tmp_path / "again"
    run_compare(ExperimentConfig.from_text(COMPARE_TEXT), again, quiet=True)
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted(p.name for p in again.iterdir())
    for name in files:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_compare_replay_matches(compare_run: tuple[Path, dict]) -> None:
    out, _ = compare_run
    assert replay(out, quiet=True)


def _copy_run(out: Path, tmp_path: Path) -> Path:
    copy = tmp_path / "tampered"
    copy.mkdir()
    for p in out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    return copy


def _edit_report(copy: Path, mutate) -> None:
    report = json.loads((copy / "report.json").read_text())
    mutate(report)
    (copy / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))


@pytest.mark.parametrize("key", ["evaluations", "distinct_critical", "final_hv",
                                 "final_gd", "final_spread",
                                 "hv_at_quarter_budget"])
def test_replay_detects_tampered_report(compare_run: tuple[Path, dict],
                                        tmp_path: Path, key: str) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    _edit_report(copy, lambda r: r["runs"][0]["summary"].__setitem__(
        key, r["runs"][0]["summary"][key] + 1))
    assert not replay(copy, quiet=True)


def test_replay_detects_tampered_run_seed(compare_run: tuple[Path, dict],
                                          tmp_path: Path) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    _edit_report(copy, lambda r: r["runs"][1].__setitem__("seed", 0))
    assert not replay(copy, quiet=True)


def _edit_line(path: Path, lineno: int, field: int, value: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    parts = lines[lineno].rstrip("\n").split(",")
    assert parts[field] != value
    parts[field] = value
    lines[lineno] = ",".join(parts) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("field", [3, 4, 5, 6])  # hv, gd, spread, distinct_critical
def test_replay_detects_tampered_snapshots(compare_run: tuple[Path, dict],
                                           tmp_path: Path, field: int) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    # an intermediate checkpoint: it is in no report.json summary
    _edit_line(copy / "snapshots.csv", 3, field, "7")
    assert not replay(copy, quiet=True)


def test_replay_detects_tampered_plots(compare_run: tuple[Path, dict],
                                       tmp_path: Path) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    _edit_line(copy / "plots.csv", 9, 4, "0.125")
    assert not replay(copy, quiet=True)


def test_replay_without_snapshot_rows_fails_cleanly(compare_run: tuple[Path, dict],
                                                    tmp_path: Path) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    header = (copy / "snapshots.csv").read_text().splitlines(keepends=True)[0]
    (copy / "snapshots.csv").write_text(header)
    assert not replay(copy, quiet=True)


def test_replay_detects_tampered_aggregate(compare_run: tuple[Path, dict],
                                           tmp_path: Path) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    # per-run summaries untouched: only the headline ratio is inflated
    _edit_report(copy, lambda r: r["aggregate"].__setitem__(
        "distinct_critical_ratio", 99.0))
    assert not replay(copy, quiet=True)


def test_replay_needs_a_report(tmp_path: Path, capsys) -> None:
    with pytest.raises(ConfigError, match="no report.json"):
        replay(tmp_path / "nowhere")
    bad = tmp_path / "bad"
    bad.mkdir()
    for text in ('{"kind": "other"}', "[1, 2]"):  # an unknown kind, or no object at all
        (bad / "report.json").write_text(text)
        with pytest.raises(ConfigError, match="not replayable"):
            replay(bad)
        assert cli.main(["replay", str(bad)]) == cli.EXIT_CONFIG
        assert "not replayable" in capsys.readouterr().err


def test_a_truncated_archive_row_is_a_runtime_error(compare_run: tuple[Path, dict],
                                                    tmp_path: Path, capsys) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    archive = copy / "archive_nsga2-r00.csv"
    text = archive.read_text()
    archive.write_text(text[:text.rfind(",")])  # the last row loses its critical flag
    with pytest.raises(ValueError, match="line 81: .* fields, the header has"):
        EvaluationArchive.from_csv(archive)
    assert not replay(copy, quiet=True)
    assert cli.main(["replay", str(copy)]) == cli.EXIT_RUNTIME
    assert cli.main(["indicators", str(archive)]) == cli.EXIT_RUNTIME
    assert "line 81" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["archive_nsga2-r00.csv", "snapshots.csv"])
def test_replay_of_a_compare_run_missing_an_input_fails(compare_run: tuple[Path, dict],
                                                       tmp_path: Path, capsys,
                                                       name: str) -> None:
    out, _ = compare_run
    copy = _copy_run(out, tmp_path)
    (copy / name).unlink()
    assert not replay(copy, quiet=True)
    assert cli.main(["replay", str(copy)]) == cli.EXIT_RUNTIME
    assert name in capsys.readouterr().out


def test_invalid_config_fails_before_any_output(tmp_path: Path) -> None:
    config = ExperimentConfig.from_text(COMPARE_TEXT)
    config.dt.budget = 81  # breaks the multiple-of-population rule
    out = tmp_path / "never"
    with pytest.raises(ConfigError):
        run_compare(config, out, quiet=True)
    assert not out.exists()
    config2 = ExperimentConfig.from_text(FALSIFY_TEXT)
    with pytest.raises(ConfigError, match="compare-kind"):
        run_compare(config2, out, quiet=True)
    assert not out.exists()


def test_score_archive(compare_run: tuple[Path, dict], tmp_path: Path) -> None:
    out, _ = compare_run
    scores = score_archive(out / "archive_nsga2-r00.csv")
    assert scores["evaluations"] == 80
    assert 0.0 <= scores["hv"] <= 1.01 ** 2 + 1e-12
    assert scores["gd"] == 0.0  # scored against its own final front
    empty = tmp_path / "empty.csv"
    empty.write_text("eval_index,run_id,v0c,v0p,t_wait,f1,f2,critical\n")
    with pytest.raises(ConfigError, match="empty"):
        score_archive(empty)


def test_compare_outputs_plots_long_format() -> None:
    def archive() -> EvaluationArchive:
        a = EvaluationArchive()
        a.append(np.zeros(3), np.array([0.0, 1.0]), True, 0)
        a.append(np.ones(3), np.array([1.0, 0.0]), False, 0)
        return a

    head = {"kind": "compare", "budget": 4, "repetitions": 1, "base_seed": 0,
            "distinctness": {"mode": "any-difference", "min_vars": 1, "epsilon": 0.0}}
    runs = [{"algorithm": alg, "repetition": 0, "archive": archive(),
             "checkpoints": [("g00", 1), ("g01", 2)]} for alg in ("nsga2", "nsga2dt")]
    texts = _compare_outputs(head, runs)
    lines = texts["plots.csv"].splitlines()
    assert lines[0] == "algorithm,repetition,evaluations,metric,value"
    assert len(lines) == 1 + 2 * 2 * len(METRICS)  # runs x checkpoints x metrics
    # one long row per metric of each snapshot row, in snapshot order
    assert [line.split(",")[3] for line in lines[1:5]] == list(METRICS)
    assert float(lines[1].split(",")[4]) == pytest.approx(1.01 * 0.01)  # hv
    assert lines[2:5] == ["nsga2,0,1,gd,0.0", "nsga2,0,1,spread,1.0",
                          "nsga2,0,1,distinct_critical,1.0"]
    snapshots = texts["snapshots.csv"].splitlines()
    assert len(snapshots) == 1 + 4
    for snap, start in zip(snapshots[1:], range(1, len(lines), 4)):
        values = [float(v) for v in snap.split(",")[3:]]
        assert [float(line.split(",")[4]) for line in lines[start:start + 4]] == values


# ---------- the falsification experiment end to end ----------


@pytest.fixture(scope="module")
def falsify_run(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict]:
    out = tmp_path_factory.mktemp("falsify")
    config = ExperimentConfig.from_text(FALSIFY_TEXT)
    report = run_falsify(config, out, quiet=True)
    return out, report


def test_falsify_writes_all_artifacts(falsify_run: tuple[Path, dict]) -> None:
    out, report = falsify_run
    names = {p.name for p in out.iterdir()}
    assert {"report.json", "stats.csv", "trial_00.jsonl", "trial_01.jsonl"} <= names
    assert report["kind"] == "falsify"
    assert [t["trial"] for t in report["trials"]] == [0, 1]
    for t in report["trials"]:
        assert not t["falsified"]  # the bound is unreachable
        assert t["real_simulations"] == 4
    stats_lines = (out / "stats.csv").read_text().splitlines()
    assert stats_lines[0] == "requirement,FR,mean,median"
    assert stats_lines[1].startswith("lti2: always[0.0,10.0] y0 <= 1000000.0,")
    assert stats_lines[1].endswith(",0,-,-")


def test_falsify_report_names_the_surrogate(falsify_run: tuple[Path, dict]) -> None:
    _, report = falsify_run
    assert report["n_initial"] == 2
    assert report["arx"] == {"na": 2, "nb": 2, "nk": 1}
    assert report["signal"] == {"control_points": 3, "interpolation": "constant",
                                "lower": 0.0, "upper": 1.5, "horizon": 10.0,
                                "period": 1.0}


def test_falsify_report_without_surrogate_keys_still_replays(
        falsify_run: tuple[Path, dict], tmp_path: Path) -> None:
    # report.json as written before it recorded the surrogate
    out, _ = falsify_run
    copy = _copy_run(out, tmp_path)
    _edit_report(copy, lambda r: [r.pop(k) for k in ("n_initial", "arx", "signal")])
    assert "arx" not in json.loads((copy / "report.json").read_text())
    assert replay(copy, quiet=True)


def test_falsify_round_logs_match_simulation_counts(
        falsify_run: tuple[Path, dict]) -> None:
    out, report = falsify_run
    for t in report["trials"]:
        rows = [json.loads(line)
                for line in (out / f"trial_{t['trial']:02d}.jsonl").open()]
        assert len(rows) == t["real_simulations"]
        assert rows[0]["round"] == 0 and rows[0]["surrogate_residual"] is None
        assert rows[-1]["round"] == 2  # 2 initial samples + 2 refinement rounds


def test_falsify_replay_and_tamper_detection(falsify_run: tuple[Path, dict],
                                             tmp_path: Path) -> None:
    out, _ = falsify_run
    assert replay(out, quiet=True)
    copy = tmp_path / "tampered"
    copy.mkdir()
    for p in out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    lines = (copy / "trial_00.jsonl").read_text().splitlines()
    (copy / "trial_00.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    assert not replay(copy, quiet=True)


def test_replay_of_a_falsify_run_missing_a_trial_log_fails(falsify_run: tuple[Path, dict],
                                                          tmp_path: Path, capsys) -> None:
    out, _ = falsify_run
    copy = _copy_run(out, tmp_path)
    (copy / "trial_01.jsonl").unlink()
    assert not replay(copy, quiet=True)
    assert cli.main(["replay", str(copy)]) == cli.EXIT_RUNTIME
    assert "trial_01.jsonl" in capsys.readouterr().out


def test_falsify_replay_detects_tampered_stats(falsify_run: tuple[Path, dict],
                                               tmp_path: Path) -> None:
    out, _ = falsify_run
    copy = _copy_run(out, tmp_path)
    # trial logs and per-trial records untouched: only the FR count lies
    _edit_report(copy, lambda r: r["stats"].__setitem__(
        "FR", r["stats"]["FR"] + 1))
    assert not replay(copy, quiet=True)


def test_falsify_replay_detects_tampered_stats_csv(falsify_run: tuple[Path, dict],
                                                   tmp_path: Path) -> None:
    out, _ = falsify_run
    copy = _copy_run(out, tmp_path)
    _edit_line(copy / "stats.csv", 1, -3, "1")  # FR of the requirement row
    assert not replay(copy, quiet=True)


def test_falsify_replay_detects_tampered_trial_record(falsify_run: tuple[Path, dict],
                                                      tmp_path: Path) -> None:
    out, _ = falsify_run
    copy = _copy_run(out, tmp_path)
    _edit_report(copy, lambda r: r["trials"][1].__setitem__("seed", 0))
    assert not replay(copy, quiet=True)


def test_falsify_rerun_is_byte_identical(falsify_run: tuple[Path, dict],
                                         tmp_path: Path) -> None:
    out, _ = falsify_run
    again = tmp_path / "again"
    run_falsify(ExperimentConfig.from_text(FALSIFY_TEXT), again, quiet=True)
    for p in sorted(out.iterdir()):
        assert (again / p.name).read_bytes() == p.read_bytes(), p.name


# ---------- the command line ----------


def test_cli_compare_and_replay(tmp_path: Path) -> None:
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(COMPARE_TEXT.replace("experiment.repetitions = 2",
                                        "experiment.repetitions = 1"))
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(cfg), "--out", str(out),
                     "--quiet"]) == cli.EXIT_OK
    assert (out / "report.json").exists()
    assert cli.main(["replay", str(out)]) == cli.EXIT_OK


def test_cli_falsify_with_overrides(tmp_path: Path, capsys) -> None:
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FALSIFY_TEXT)
    out = tmp_path / "out"
    code = cli.main(["falsify", "--config", str(cfg), "--out", str(out),
                     "--seed", "99", "--reps", "1", "--quiet"])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["base_seed"] == 99
    assert report["repetitions"] == 1
    capsys.readouterr()


def test_cli_config_errors_exit_2(tmp_path: Path, capsys) -> None:
    missing = tmp_path / "missing.cfg"
    assert cli.main(["compare", "--config", str(missing)]) == cli.EXIT_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment.budget = 81\nsearch.population = 8\n")
    assert cli.main(["compare", "--config", str(bad)]) == cli.EXIT_CONFIG
    # region runs of 0 generations would append nothing and never end
    with pytest.raises(harness.ConfigError, match="generations"):
        harness.ExperimentConfig.from_text("dt.generations = 0\n")
    zero_gens = tmp_path / "zero_gens.cfg"
    zero_gens.write_text("dt.generations = 0\n")
    assert cli.main(["compare", "--config", str(zero_gens),
                     "--out", str(tmp_path / "never")]) == cli.EXIT_CONFIG
    assert not (tmp_path / "never").exists()
    # a dt that does not divide the horizon fails at load, not mid-run
    for grid in ("sim.dt = 0.03\n", "sim.horizon = 10.005\n", "sim.horizon = inf\n",
                 "sim.dt = nan\n"):
        with pytest.raises(harness.ConfigError, match="is not a multiple of dt"):
            harness.ExperimentConfig.from_text(grid)
        bad_grid = tmp_path / "bad_grid.cfg"
        bad_grid.write_text(grid)
        assert cli.main(["compare", "--config", str(bad_grid),
                         "--out", str(tmp_path / "never")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "never").exists()
    # a grid too large to allocate fails at load; nothing is simulated
    for command, text in (("compare", "sim.dt = 1e-9\n"),
                          ("falsify", FALSIFY_TEXT.replace("signal.period = 1\n",
                                                           "signal.period = 1e-9\n"))):
        with pytest.raises(harness.ConfigError, match="more than 10000000 samples"):
            harness.ExperimentConfig.from_text(text)
        huge_grid = tmp_path / "huge_grid.cfg"
        huge_grid.write_text(text)
        assert cli.main([command, "--config", str(huge_grid),
                         "--out", str(tmp_path / "never")]) == cli.EXIT_CONFIG
        assert not (tmp_path / "never").exists()
    # bad bounds, indices and seeds fail at load, before any simulation
    small = (ROOT / "configs" / "compare_small.cfg").read_text(encoding="utf-8")
    for command, text, args, message in (
            ("compare", small, ["--seed", "-1"], "base_seed must be >= 0"),
            ("falsify", FALSIFY_TEXT, ["--seed", "-1"], "base_seed must be >= 0"),
            ("compare", "experiment.base_seed = -3\n", [], "base_seed must be >= 0"),
            ("compare", "search.crossover_index = -1\n", [], "crossover_index must be >= 0"),
            ("compare", "search.mutation_index = nan\n", [], "mutation_index must be >= 0"),
            ("compare", "sim.bounds_v0c = 5, 1\n", [], "bounds_v0c must be finite"),
            ("compare", "sim.bounds_v0p = nan, 3\n", [], "bounds_v0p must be finite"),
            ("compare", "sim.bounds_t_wait = 0, inf\n", [], "bounds_t_wait must be finite"),
            ("falsify", FALSIFY_TEXT + "signal.lower = -inf\n", [], "must be finite"),
            ("falsify", FALSIFY_TEXT.replace("signal.upper = 1.5", "signal.upper = nan"), [],
             "must be finite"),
            # a NaN compares false, so each check is written to fail on it
            *(("compare", f"sim.{name} = nan\n", [], f"{name} must be positive, got nan")
              for name in ("ego_width", "comfort_decel", "max_decel", "sensor_range",
                           "corridor_half_width")),
            *(("compare", f"sim.{name} = nan\n", [], f"{name} must not be NaN")
              for name in ("spot_x", "theta1", "theta2")),
            ("compare", "sim.brake_margin = nan\n", [], "brake_margin must be >= 0, got nan"),
            *(("compare", f"sim.ped_start = {xy}\n", [], "ped_start must not be NaN")
              for xy in ("23, nan", "inf, 4.6", "23, inf", "23, -inf")),
            ("compare", "distinct.epsilon = nan\n", [], "epsilon must be >= 0, got nan"),
            ("compare", small + "distinct.mode = thresholded\ndistinct.min_vars = 5\n", [],
             "distinct.min_vars = 5 exceeds the 3 scenario inputs"),
            ("compare", small + "sim.theta1 = nan\n", [], "theta1 must not be NaN"),
            # tree settings fail at load, not after the initial sample is simulated
            ("compare", "dt.max_depth = -1\n", [], "max_depth must be >= 0"),
            ("compare", "dt.min_samples_leaf = 0\n", [], "min_samples_leaf must be >= 1")):
        if not args:
            with pytest.raises(harness.ConfigError, match=message):
                harness.ExperimentConfig.from_text(text)
        bad_cfg = tmp_path / "bad_value.cfg"
        bad_cfg.write_text(text)
        assert cli.main([command, "--config", str(bad_cfg), "--out", str(tmp_path / "never"),
                         "--quiet", *args]) == cli.EXIT_CONFIG
        assert not (tmp_path / "never").exists()
        assert message in capsys.readouterr().err
    falsify_cfg = tmp_path / "f.cfg"
    falsify_cfg.write_text(FALSIFY_TEXT)
    # kind mismatch between config and subcommand
    assert cli.main(["compare", "--config", str(falsify_cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_runtime_errors_exit_3(tmp_path: Path, capsys) -> None:
    assert cli.main(["indicators", str(tmp_path / "none.csv")]) == cli.EXIT_RUNTIME
    assert "error" in capsys.readouterr().err


def test_cli_replay_mismatch_exits_3(tmp_path: Path, compare_run: tuple[Path, dict],
                                     capsys) -> None:
    out, _ = compare_run
    copy = tmp_path / "tampered"
    copy.mkdir()
    for p in out.iterdir():
        (copy / p.name).write_bytes(p.read_bytes())
    report = json.loads((copy / "report.json").read_text())
    report["runs"][0]["summary"]["final_hv"] = 0.0
    (copy / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    assert cli.main(["replay", str(copy)]) == cli.EXIT_RUNTIME
    capsys.readouterr()


def test_cli_indicators_scores_archive(tmp_path: Path, compare_run: tuple[Path, dict],
                                       capsys) -> None:
    out, _ = compare_run
    dest = tmp_path / "scores.json"
    code = cli.main(["indicators", str(out / "archive_nsga2-r00.csv"),
                     "--out", str(dest)])
    assert code == cli.EXIT_OK
    printed = capsys.readouterr().out
    scores = json.loads(dest.read_text())
    assert scores == json.loads(printed)
    assert scores["evaluations"] == 80


# ---------- searches and trials on every usable CPU ----------

ROOT = Path(__file__).resolve().parent.parent


def _use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_children(*args):
    raise AssertionError("a one-CPU run started a worker process")


def test_task_i_runs_on_worker_i_mod_w_and_the_caller_runs_the_last_stripe(
        monkeypatch) -> None:
    _use_cpus(monkeypatch, 3)
    results = harness._in_parallel(lambda t: (t, os.getpid()), list(range(7)))
    assert [t for t, _ in results] == list(range(7))
    pids = [{pid for t, pid in results if t % 3 == w} for w in range(3)]
    assert all(len(p) == 1 for p in pids)
    assert pids[2] == {os.getpid()} and len(pids[0] | pids[1]) == 2
    assert os.getpid() not in pids[0] | pids[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name", ["compare_small", "falsify_tank", "falsify_lti2"])
def test_outputs_are_byte_identical_for_any_number_of_cpus(
        name: str, tmp_path: Path, monkeypatch) -> None:
    config = ExperimentConfig.from_file(ROOT / "configs" / f"{name}.cfg")
    config.repetitions = 3  # 6 searches, or 3 trials that 2 CPUs split 2 + 1
    run = run_compare if config.kind == "compare" else run_falsify
    outputs = []
    for cpus in (1, 2, 3):
        out = tmp_path / f"cpus{cpus}"
        with monkeypatch.context() as m:
            _use_cpus(m, cpus)
            if cpus == 1:
                m.setattr(multiprocessing, "get_context", _no_children)
            run(config, out, quiet=True)
        assert multiprocessing.active_children() == []
        assert replay(out, quiet=True)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] == outputs[2]


def _fail_in_children(monkeypatch, kind: str, fail) -> str:
    """A config of `kind` on two CPUs whose SUT or evaluator calls `fail()`
    in a worker process and works in the caller."""
    _use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def in_children(fn):
        def call(*args):
            if os.getpid() != caller:
                fail()
            return fn(*args)
        return call

    if kind == "compare":
        make = harness.scenario.make_evaluator
        monkeypatch.setattr(harness.scenario, "make_evaluator",
                            lambda sim: in_children(make(sim)))
        return COMPARE_TEXT
    monkeypatch.setattr(harness, "benchmark_sut", in_children(harness.benchmark_sut))
    return FALSIFY_TEXT


def _raise_value_error():
    raise ValueError("failed in a worker")


@pytest.mark.parametrize("kind", ["compare", "falsify"])
def test_an_error_in_a_worker_surfaces_with_its_type(
        kind: str, tmp_path: Path, monkeypatch, capsys) -> None:
    text = _fail_in_children(monkeypatch, kind, _raise_value_error)
    run = run_compare if kind == "compare" else run_falsify
    with pytest.raises(ValueError, match="failed in a worker"):
        run(ExperimentConfig.from_text(text), tmp_path / "direct", quiet=True)
    assert multiprocessing.active_children() == []
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    assert cli.main([kind, "--config", str(cfg), "--out", str(tmp_path / "cli"),
                     "--quiet"]) == cli.EXIT_RUNTIME
    assert "failed in a worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_becomes_a_runtime_error(tmp_path: Path, monkeypatch) -> None:
    text = _fail_in_children(monkeypatch, "falsify", lambda: os._exit(1))
    with pytest.raises(RuntimeError, match="code 1"):
        run_falsify(ExperimentConfig.from_text(text), tmp_path, quiet=True)
    assert multiprocessing.active_children() == []


def test_an_error_in_the_callers_stripe_stops_the_workers_at_once(
        tmp_path: Path, monkeypatch) -> None:
    _use_cpus(monkeypatch, 2)
    caller = os.getpid()

    def sut(system, u):
        if os.getpid() == caller:
            raise ValueError("failed in the caller")
        time.sleep(60)

    monkeypatch.setattr(harness, "benchmark_sut", sut)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="failed in the caller"):
        run_falsify(ExperimentConfig.from_text(FALSIFY_TEXT), tmp_path, quiet=True)
    assert time.perf_counter() - start < 10
    assert multiprocessing.active_children() == []


PIPED_RUNS = """
import os, sys
from sasbt import cli

os.sched_getaffinity = lambda pid: {0, 1}
print("before the runs")  # still in the pipe's buffer when the first worker forks
for command, config in (("compare", "compare_small.cfg"), ("falsify", "falsify_lti2.cfg")):
    assert cli.main([command, "--config", "configs/" + config, "--reps", "2",
                     "--out", os.path.join(sys.argv[1], command)]) == 0
"""


def test_piped_progress_lines_are_printed_once(tmp_path: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    lines = subprocess.run([sys.executable, "-c", PIPED_RUNS, str(tmp_path)], env=env,
                           cwd=ROOT, check=True, stdout=subprocess.PIPE,
                           text=True).stdout.splitlines()
    starts = ["before the runs", "rep 0:", "rep 1:", "distinct critical medians:",
              "wall time", "trial 0:", "trial 1:", "FR "]
    assert len(lines) == len(starts)
    assert all(line.startswith(start) for line, start in zip(lines, starts)), lines
