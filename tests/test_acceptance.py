"""Acceptance suite: nine headline checks, one printed verdict line each.

Every test prints a `[acceptance] N <label>: PASS/FAIL - <numbers>` line that
bypasses pytest's output capture, then asserts the same condition.  The suite
is self-contained and runnable on its own:

    pytest tests/test_acceptance.py

The two experiment-level checks load the shipped config files under
`configs/`, so the suite also validates exactly what the CLI ships with.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import test_arx
import test_indicators
import test_stl

from sasbt import indicators
from sasbt.arx import ArxConfig, fit_arx
from sasbt.falsify import SignalParam, benchmark_sut, falsify
from sasbt.guidance import DtConfig, nsga2_dt
from sasbt.harness import ExperimentConfig, run_compare, run_falsify
from sasbt.search import SearchConfig, SearchSpace
from sasbt.stl import Always, Atom, horizon_samples, robustness

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def announce(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {num} {label}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def compare_experiment(tmp_path_factory: pytest.TempPathFactory):
    out = tmp_path_factory.mktemp("acceptance_compare")
    config = ExperimentConfig.from_file(CONFIGS / "compare_default.cfg")
    report = run_compare(config, out, quiet=True)
    return out, report


def test_criterion_1_distinct_critical_ratio(compare_experiment, capsys) -> None:
    _, report = compare_experiment
    agg = report["aggregate"]
    medians = agg["distinct_critical_median"]
    ratio = agg["distinct_critical_ratio"]
    p = agg["ranksum_pvalue"]
    ok = (ratio is not None and ratio >= 1.5
          and p is not None and p < agg["alpha"])
    announce(capsys, 1, "distinct-critical ratio", ok,
             f"median distinct criticals {medians['nsga2dt']:g} (tree-guided) vs "
             f"{medians['nsga2']:g} (plain), ratio "
             f"{'undefined' if ratio is None else format(ratio, '.2f')} "
             f"(need >= 1.5), rank-sum p "
             f"{'n/a' if p is None else format(p, '.2g')} (need < 0.05); "
             f"budget {report['budget']}, {report['repetitions']} repetitions")


def test_criterion_2_early_hypervolume_advantage(compare_experiment, capsys) -> None:
    _, report = compare_experiment
    agg = report["aggregate"]
    hv = agg["hv_at_quarter_budget_median"]
    ok = hv["nsga2dt"] > hv["nsga2"]
    announce(capsys, 2, "early hypervolume advantage", ok,
             f"median HV at {agg['quarter_budget_evaluations']} evaluations "
             f"(25% budget): tree-guided {hv['nsga2dt']:.5f} vs plain "
             f"{hv['nsga2']:.5f} over {report['repetitions']} seeds")


def test_criterion_3_lti2_falsification(tmp_path: Path, capsys) -> None:
    config = ExperimentConfig.from_file(CONFIGS / "falsify_lti2.cfg")
    report = run_falsify(config, tmp_path / "lti2", quiet=True)
    fr, trials = report["stats"]["FR"], report["repetitions"]
    mean = report["stats"]["mean"]
    ok = fr >= 8 and mean is not None and mean <= 20
    announce(capsys, 3, "lti2 falsification", ok,
             f"FR {fr}/{trials} (need >= 8), mean real simulations "
             f"{'-' if mean is None else format(mean, 'g')} (need <= 20), "
             f"cut-off {report['real_budget']}")


def test_criterion_4_tank_beats_random_baseline(tmp_path: Path, capsys) -> None:
    config = ExperimentConfig.from_file(CONFIGS / "falsify_tank.cfg")
    surrogate = run_falsify(config, tmp_path / "tank", quiet=True)
    baseline_cfg = ExperimentConfig.from_file(CONFIGS / "falsify_tank.cfg")
    baseline_cfg.method = "random"
    baseline = run_falsify(baseline_cfg, tmp_path / "tank_random", quiet=True)
    fr = surrogate["stats"]["FR"]
    med_s = surrogate["stats"]["median"]
    med_r = baseline["stats"]["median"]
    ok = (fr >= 7 and med_s is not None and med_r is not None and med_s < med_r)
    announce(capsys, 4, "tank vs random baseline", ok,
             f"FR {fr}/{surrogate['repetitions']} (need >= 7) within "
             f"{surrogate['real_budget']} real simulations; median "
             f"{'-' if med_s is None else format(med_s, 'g')} vs random baseline "
             f"{'-' if med_r is None else format(med_r, 'g')} "
             f"(need strictly lower) on paired seeds")


def test_criterion_5_indicator_oracles(capsys) -> None:
    rng = np.random.default_rng(2026)
    worst_exact = 0.0
    mc_checked = 0
    mc_ok = True
    for i in range(100):
        m = 2 if rng.random() < 0.5 else 3
        k = int(rng.integers(1, 9))
        front = rng.uniform(0.0, 1.0, size=(k, m))
        ref = np.full(m, 1.2)
        hv = indicators.hypervolume(front, ref)
        exact = test_indicators.oracle_hv_inclusion_exclusion(front, ref)
        worst_exact = max(worst_exact, abs(hv - exact))
        if i % 10 == 0:
            lo = front.min(axis=0)
            pts = rng.uniform(lo, ref, size=(1_000_000, m))
            dominated = np.zeros(len(pts), dtype=bool)
            for p in front:
                dominated |= np.all(pts >= p, axis=1)
            vol = float(np.prod(ref - lo))
            frac = float(dominated.mean())
            sigma = vol * np.sqrt(max(frac * (1.0 - frac), 0.0) / len(pts))
            mc_ok = mc_ok and abs(hv - frac * vol) <= 3.0 * sigma + 1e-12
            mc_checked += 1

    filter_exact = True
    worst_gd = 0.0
    for _ in range(100):
        n, m = int(rng.integers(1, 60)), int(rng.integers(2, 4))
        pts = rng.integers(0, 6, size=(n, m)).astype(float)  # ties on purpose
        keep = indicators.non_dominated_filter(pts)
        filter_exact = filter_exact and np.array_equal(
            keep, pts[test_indicators.oracle_mask(pts)])
        front = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 30)), m))
        reference = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 30)), m))
        gd = indicators.generational_distance(front, reference)
        worst_gd = max(worst_gd, abs(gd - test_indicators.oracle_gd(front, reference)))

    extremes = test_indicators._diagonal_front([0.0, 1.0])
    five = indicators.spread(test_indicators._diagonal_front(
        np.linspace(0.1, 0.9, 5)), extremes)
    nine = indicators.spread(test_indicators._diagonal_front(
        np.linspace(0.1, 0.9, 9)), extremes)
    spread_ok = abs(five - 0.2) <= 1e-12 and abs(nine - 0.2) <= 1e-12

    ok = (worst_exact <= 1e-9 and mc_ok and filter_exact
          and worst_gd <= 1e-12 and spread_ok)
    announce(capsys, 5, "indicator oracle suite", ok,
             f"hypervolume vs inclusion-exclusion max |err| {worst_exact:.1e} "
             f"on 100 fronts (need <= 1e-9), {mc_checked} Monte-Carlo spot checks "
             f"at 1e6 samples within 3 sigma: {mc_ok}; non-dominated filter exact "
             f"on 100 instances: {filter_exact}; GD max |err| {worst_gd:.1e} "
             f"(need <= 1e-12); spread size-5/size-9 examples at 1e-12: {spread_ok}")


def test_criterion_6_arx_identifiability(capsys) -> None:
    rng = np.random.default_rng(31)
    models = []

    u, y = test_arx.make_siso_data(seed=0)
    exact = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
    models.append(exact)
    a, b = exact.siso_coefficients()
    recovery = max(float(np.max(np.abs(a - test_arx.A_TRUE))),
                   float(np.max(np.abs(b - test_arx.B_TRUE))))

    models.append(fit_arx(u, y + 0.1 * rng.normal(size=y.size),
                          ArxConfig(na=2, nb=2, nk=1)))
    for system in ("lti2", "tank"):
        us = [rng.uniform(0.0, 2.0, size=40) for _ in range(3)]
        ys = [benchmark_sut(system, uu) for uu in us]
        models.append(fit_arx(us, ys, ArxConfig(na=2, nb=2, nk=1)))
    for _ in range(20):
        na = int(rng.integers(0, 4))
        nb = int(rng.integers(0 if na else 1, 4))
        nk = int(rng.integers(0, 3))
        uu = rng.normal(size=120)
        yy = test_arx.recursion_oracle(
            uu, rng.uniform(-0.4, 0.4, size=na), rng.uniform(-2.0, 2.0, size=nb), nk)
        yy = yy + 0.05 * rng.normal(size=yy.size)
        models.append(fit_arx(uu, yy, ArxConfig(na=max(na, 1), nb=max(nb, 1), nk=nk)))

    worst_orth = max(m.residual_orthogonality for m in models)
    ok = recovery <= 1e-6 and worst_orth <= 1e-8
    announce(capsys, 6, "arx identifiability", ok,
             f"noise-free coefficient recovery max |err| {recovery:.1e} "
             f"(need <= 1e-6); residual orthogonality max {worst_orth:.1e} "
             f"over {len(models)} fitted models (need <= 1e-8)")


def test_criterion_7_robustness_sign_agreement(capsys) -> None:
    rng = np.random.default_rng(4242)
    period = test_stl.PERIOD
    disagreements = 0
    satisfied = 0
    for _ in range(1000):
        n_signals = int(rng.integers(1, 4))
        formula = test_stl.random_formula(rng, n_signals, depth=int(rng.integers(1, 4)))
        n = horizon_samples(formula, period) + 1 + int(rng.integers(0, 5))
        trace = test_stl.random_trace(rng, n, n_signals)
        rho = robustness(formula, trace, period)
        assert rho != 0.0  # generator keeps bounds strictly between samples
        sat = test_stl.oracle_sat(formula, trace, period)
        satisfied += int(sat)
        if (rho > 0) != sat:
            disagreements += 1
    ok = disagreements == 0
    announce(capsys, 7, "robustness sign agreement", ok,
             f"{disagreements} disagreements over 1000 random formula/trace "
             f"pairs ({satisfied} satisfied / {1000 - satisfied} violated)")


def test_criterion_8_byte_identical_reruns(compare_experiment, tmp_path: Path,
                                           capsys) -> None:
    first, _ = compare_experiment
    again = tmp_path / "compare_again"
    run_compare(ExperimentConfig.from_file(CONFIGS / "compare_default.cfg"),
                again, quiet=True)
    compare_files = sorted(p.name for p in first.iterdir())
    identical = (compare_files == sorted(p.name for p in again.iterdir())
                 and all((first / n).read_bytes() == (again / n).read_bytes()
                         for n in compare_files))

    f1, f2 = tmp_path / "falsify_a", tmp_path / "falsify_b"
    for dest in (f1, f2):
        run_falsify(ExperimentConfig.from_file(CONFIGS / "falsify_lti2.cfg"),
                    dest, quiet=True)
    falsify_files = sorted(p.name for p in f1.iterdir())
    identical_f = (falsify_files == sorted(p.name for p in f2.iterdir())
                   and all((f1 / n).read_bytes() == (f2 / n).read_bytes()
                           for n in falsify_files))

    ok = identical and identical_f
    announce(capsys, 8, "byte-identical reruns", ok,
             f"comparison experiment: {len(compare_files)} files byte-identical "
             f"across reruns: {identical}; falsification experiment: "
             f"{len(falsify_files)} files byte-identical: {identical_f}")


def test_criterion_9_budget_safety(capsys) -> None:
    rng = np.random.default_rng(909)
    executed = 0
    rejected = 0
    worst_used_frac = 0.0

    def tree_guided_case() -> None:
        nonlocal executed, rejected, worst_used_frac
        dim = int(rng.integers(2, 5))
        space = SearchSpace(np.zeros(dim), np.ones(dim))
        center = rng.uniform(0.2, 0.8, size=dim)
        calls = [0]

        def evaluator(genome: np.ndarray):
            calls[0] += 1
            inside = bool(np.all(np.abs(genome - center) <= 0.15))
            return np.array([float(np.linalg.norm(genome - center)),
                             float(-genome[0])]), inside

        initial = int(rng.integers(5, 80))
        config = DtConfig(
            budget=initial + int(rng.integers(0, 200)),
            initial_lhs=initial,
            region_threshold=float(rng.uniform(0.2, 1.0)),
            max_depth=int(rng.integers(1, 6)),
            min_samples_leaf=int(rng.integers(1, 8)),
            search=SearchConfig(population=2 * int(rng.integers(2, 7)),
                                generations=int(rng.integers(1, 4)),
                                seed=int(rng.integers(2 ** 31))),
            seed=int(rng.integers(2 ** 31)))
        invalid = rng.random() < 0.15
        if invalid:
            breakage = int(rng.integers(3))
            if breakage == 0:
                config.budget = config.initial_lhs - 1
            elif breakage == 1:
                config.region_threshold = float(rng.choice([0.0, 1.5]))
            else:
                config.search.population = 3  # odd
            with pytest.raises(ValueError):
                nsga2_dt(space, evaluator, config)
            assert calls[0] == 0, "rejected config must not simulate"
            rejected += 1
            return
        result = nsga2_dt(space, evaluator, config)
        # a repeated genome reuses its archive row: one call per distinct genome
        distinct = len({genome.tobytes() for genome in result.archive.genomes})
        assert calls[0] == distinct and len(result.archive) <= config.budget
        worst_used_frac = max(worst_used_frac, len(result.archive) / config.budget)
        executed += 1

    def falsification_case() -> None:
        nonlocal executed, rejected, worst_used_frac
        system = ["lti2", "tank"][int(rng.integers(2))]
        horizon = float(rng.integers(5, 15))
        signal = SignalParam(control_points=int(rng.integers(1, 5)),
                             lower=0.0, upper=float(rng.uniform(0.5, 2.0)),
                             horizon=horizon, period=1.0)
        requirement = Always(0.0, horizon, Atom(0, "le", float(rng.uniform(0.0, 10.0))))
        real_budget = 300 if rng.random() < 0.05 else int(rng.integers(1, 30))
        calls = [0]

        def sut(u: np.ndarray) -> np.ndarray:
            calls[0] += 1
            return benchmark_sut(system, u)

        invalid = rng.random() < 0.15
        if invalid:
            breakage = int(rng.integers(4))
            kwargs = dict(real_budget=real_budget,
                          surrogate_budget=int(rng.integers(10, 60)),
                          n_initial=int(rng.integers(1, 4)),
                          seed=int(rng.integers(2 ** 31)))
            if breakage == 0:
                kwargs["real_budget"] = 0
            elif breakage == 1:
                kwargs["n_initial"] = 0
            elif breakage == 2:
                signal = SignalParam(control_points=2, horizon=7.5, period=1.0)
            else:
                signal = SignalParam(control_points=2, lower=1.0, upper=1.0)
            with pytest.raises(ValueError):
                falsify(sut, requirement, signal,
                        arx=ArxConfig(na=2, nb=2, nk=1), **kwargs)
            assert calls[0] == 0, "rejected config must not simulate"
            rejected += 1
            return
        result = falsify(sut, requirement, signal, real_budget=real_budget,
                         surrogate_budget=int(rng.integers(10, 60)),
                         arx=ArxConfig(na=2, nb=2, nk=1),
                         n_initial=int(rng.integers(1, 4)),
                         seed=int(rng.integers(2 ** 31)))
        assert calls[0] == result.real_simulations <= real_budget
        worst_used_frac = max(worst_used_frac, calls[0] / real_budget)
        executed += 1

    for _ in range(100):
        tree_guided_case()
    for _ in range(100):
        falsification_case()
    # pin the exhaustion boundary: an unfalsifiable bound at the 300 cut-off
    calls = [0]

    def counted(u: np.ndarray) -> np.ndarray:
        calls[0] += 1
        return benchmark_sut("lti2", u)

    pinned = falsify(counted, Always(0.0, 10.0, Atom(0, "le", 1e9)),
                     SignalParam(control_points=3, horizon=10.0, period=1.0),
                     real_budget=300, surrogate_budget=20,
                     arx=ArxConfig(na=2, nb=2, nk=1), seed=1)
    boundary_ok = calls[0] == pinned.real_simulations == 300 and not pinned.falsified

    # region runs of 0 generations would append no row once their boxes are
    # full, so the loop would never end: rejected before any simulation
    calls = [0]

    def box(genome: np.ndarray):
        calls[0] += 1
        return np.array([float(genome[0]), float(genome[1])]), bool(genome[0] < 0.5)

    zero_gens = DtConfig(budget=400, initial_lhs=60,
                         search=SearchConfig(population=4, generations=0))
    with pytest.raises(ValueError, match="generations"):
        nsga2_dt(SearchSpace(np.zeros(2), np.ones(2)), box, zero_gens)
    zero_gens_ok = calls[0] == 0

    ok = (executed + rejected == 200 and worst_used_frac <= 1.0 and boundary_ok
          and zero_gens_ok)
    announce(capsys, 9, "budget safety", ok,
             f"200 fuzzed configs: {executed} executed within budget "
             f"(max usage {worst_used_frac:.0%}), {rejected} invalid configs "
             f"rejected before any simulation; 300-budget exhaustion stops at "
             f"exactly {pinned.real_simulations} real simulations; 0-generation "
             f"region runs rejected before any simulation: {zero_gens_ok}")
