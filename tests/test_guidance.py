"""Tree learning and the guided search loop: exhaustive split oracle,
box partition properties, region ordering, budget discipline, focusing
behavior on a synthetic problem, and determinism."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt import guidance
from sasbt.guidance import (CriticalRegion, DtConfig, TreeNode, _best_split,
                            _seed_rows,
                            extract_regions, fit_tree, leaf_boxes, nsga2_dt,
                            predict_critical, self_referenced_snapshots,
                            stage_checkpoints)
from sasbt.search import (EvaluationArchive, SearchConfig, SearchSpace,
                          non_dominated_sort)


def gini_weighted(y_left, y_right) -> float:
    def g(y):
        n = len(y)
        if n == 0:
            return 0.0
        p = float(np.sum(y)) / n
        return 2.0 * p * (1.0 - p) * n
    return g(y_left) + g(y_right)


def oracle_best_split_1d(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Enumerate every midpoint split; return (gain, threshold) with the
    lowest threshold among ties, or None when no split strictly helps."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    n = len(xs)
    parent = gini_weighted(ys, np.empty(0))
    best = None
    for i in range(n - 1):
        if xs[i + 1] <= xs[i]:
            continue
        if (i + 1) < min_leaf or (n - i - 1) < min_leaf:
            continue
        gain = parent - gini_weighted(ys[:i + 1], ys[i + 1:])
        if gain <= 1e-12:
            continue
        thr = 0.5 * (xs[i] + xs[i + 1])
        if best is None or gain > best[0] + 1e-12:
            best = (gain, thr)
    return best


def test_best_split_matches_exhaustive_oracle_1d():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(4, 40))
        x = rng.integers(0, 10, size=n).astype(float)  # ties included
        y = rng.integers(0, 2, size=n).astype(float)
        min_leaf = int(rng.integers(1, 4))
        got = _best_split(x.reshape(-1, 1), y, min_leaf)
        want = oracle_best_split_1d(x, y, min_leaf)
        if want is None:
            assert got is None, f"trial {trial}"
        else:
            assert got is not None, f"trial {trial}"
            gain, feature, thr = got
            assert feature == 0
            assert gain == pytest.approx(want[0], abs=1e-9), f"trial {trial}"
            assert thr == pytest.approx(want[1], abs=1e-12), f"trial {trial}"


def test_threshold_is_midpoint_between_distinct_values():
    x = np.array([[1.0], [2.0], [2.0], [5.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    gain, feature, thr = _best_split(x, y, 1)
    assert feature == 0
    assert thr in (1.5, 3.5)  # midpoints of the two distinct gaps


def _xor_clusters():
    rng = np.random.default_rng(1)
    quads = [((0.25, 0.25), True, 12), ((0.75, 0.75), True, 8),
             ((0.25, 0.75), False, 10), ((0.75, 0.25), False, 10)]
    xs, ys = [], []
    for (cx, cy), label, count in quads:
        pts = rng.uniform(-0.08, 0.08, size=(count, 2)) + (cx, cy)
        xs.append(pts)
        ys.extend([label] * count)
    return np.vstack(xs), np.array(ys)


def test_linearly_separable_solved_at_depth_one():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, size=(60, 2))
    y = x[:, 0] > 0.61
    tree = fit_tree(x, y, max_depth=1, min_samples_leaf=2)
    assert not tree.is_leaf
    assert tree.feature == 0
    assert (predict_critical(tree, x) == y).all()


def test_xor_clusters_recovered_with_depth():
    # greedy impurity splits may spend extra levels, but with enough depth
    # the four-cluster checkerboard is classified exactly
    x, y = _xor_clusters()
    flat = fit_tree(x, y, max_depth=1, min_samples_leaf=5)
    deep = fit_tree(x, y, max_depth=4, min_samples_leaf=1)
    assert (predict_critical(deep, x) == y).all()
    assert not (predict_critical(flat, x) == y).all()


def test_pure_labels_make_a_leaf():
    x = np.linspace(0, 1, 20).reshape(-1, 1)
    tree = fit_tree(x, np.ones(20, dtype=bool))
    assert tree.is_leaf
    assert tree.critical_fraction == 1.0


def test_fit_tree_validation():
    with pytest.raises(ValueError):
        fit_tree(np.empty((0, 2)), np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        fit_tree(np.zeros((4, 2)), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        fit_tree(np.zeros((4, 2)), np.zeros(4, dtype=bool), min_samples_leaf=0)


def test_leaf_boxes_partition_space():
    rng = np.random.default_rng(2)
    space = SearchSpace(lower=(0.0, -1.0, 5.0), upper=(2.0, 1.0, 9.0))
    x = rng.uniform(space.lower, space.upper, size=(120, 3))
    y = rng.random(120) < 0.3
    tree = fit_tree(x, y, max_depth=4, min_samples_leaf=5)
    boxes = leaf_boxes(tree, space)
    # volumes add up to the whole space
    total = sum(float(np.prod(hi - lo)) for _, lo, hi in boxes)
    assert total == pytest.approx(float(np.prod(space.upper - space.lower)),
                                  rel=1e-12)
    # every random point falls in exactly one box (boundaries have measure 0)
    for _ in range(200):
        q = rng.uniform(space.lower, space.upper)
        hits = sum(bool((q >= lo).all() and (q <= hi).all())
                   for _, lo, hi in boxes)
        assert hits == 1
    # leaf sample counts add up
    assert sum(leaf.n_total for leaf, _, _ in boxes) == 120


def test_extract_regions_threshold_and_order():
    space = SearchSpace(lower=(0.0,), upper=(1.0,))
    # hand-built tree: left leaf 2/10 critical, right leaf 8/10
    root = TreeNode(n_total=20, n_critical=10, feature=0, threshold=0.5)
    root.left = TreeNode(n_total=10, n_critical=2)
    root.right = TreeNode(n_total=10, n_critical=8)
    regions = extract_regions(root, space, min_fraction=0.5)
    assert len(regions) == 1
    assert regions[0].lower[0] == 0.5 and regions[0].upper[0] == 1.0
    # lowering the bar admits both, ordered by descending fraction
    regions = extract_regions(root, space, min_fraction=0.1)
    assert [r.critical_fraction for r in regions] == [0.8, 0.2]


def test_region_contains_and_space():
    region = CriticalRegion(lower=np.array([0.0, 1.0]),
                            upper=np.array([1.0, 2.0]), n_critical=3, n_total=4)
    assert region.contains(np.array([0.5, 1.5]))
    assert not region.contains(np.array([0.5, 2.5]))
    assert isinstance(region, SearchSpace)
    np.testing.assert_array_equal(region.lower, [0.0, 1.0])
    with pytest.raises(ValueError, match="empty range in dimension 1"):
        CriticalRegion(lower=np.array([0.0, 1.0]), upper=np.array([1.0, 1.0]),
                       n_critical=3, n_total=4)


def _seed_reference(archive, region, limit):
    """Row-by-row seeding: members in the box by (rank, archive row)."""
    inside = [i for i, g in enumerate(archive.genomes) if region.contains(g)]
    if not inside:
        return []
    objs = np.asarray([archive.objectives[i] for i in inside])
    ranks = np.empty(len(inside), dtype=int)
    for rank, front in enumerate(non_dominated_sort(objs)):
        ranks[front] = rank
    order = sorted(range(len(inside)), key=lambda j: (ranks[j], inside[j]))
    return [inside[j] for j in order[:limit]]


def test_seed_rows_match_row_by_row_reference():
    rng = np.random.default_rng(5)
    for trial in range(40):
        archive = EvaluationArchive()
        grid = np.linspace(0.0, 1.0, 5)  # genomes land exactly on box bounds
        genomes, results = [], []
        for _ in range(int(rng.integers(1, 120))):
            genomes.append(rng.choice(grid, size=3) if rng.random() < 0.5 else rng.random(3))
            objectives = rng.integers(0, 4, size=2).astype(float)  # rank ties
            results.append((objectives, bool(rng.random() < 0.3)))
        # one block; a repeated genome keeps its first row's result
        scripted = iter(results)
        archive.evaluate(np.array(genomes), lambda _: next(scripted), 0)
        lo = rng.choice(grid[:3], size=3)
        region = SearchSpace(lower=lo, upper=lo + rng.choice(grid[1:3], size=3))
        limit = int(rng.integers(1, 15))
        seeds = _seed_rows(archive, region, limit)
        assert seeds.tolist() == _seed_reference(archive, region, limit)


# ---------- the guided loop on a synthetic box problem ----------

BOX_LO, BOX_HI = 0.2, 0.4


def _box_evaluator(genome):
    inside = bool((genome >= BOX_LO).all() and (genome <= BOX_HI).all())
    center = np.full_like(genome, (BOX_LO + BOX_HI) / 2)
    f1 = float(np.linalg.norm(genome - center))
    return np.array([f1, float(-genome[0])]), inside


UNIT2 = SearchSpace(lower=(0.0, 0.0), upper=(1.0, 1.0))


def _small_config(budget=400, seed=3) -> DtConfig:
    return DtConfig(budget=budget, initial_lhs=60, seed=seed,
                    search=SearchConfig(population=10, generations=3))


def test_nsga2_dt_respects_budget_exactly():
    for budget in (60, 100, 237, 400):
        result = nsga2_dt(UNIT2, _box_evaluator, _small_config(budget=budget))
        assert len(result.archive) <= budget


@st.composite
def _small_dt_configs(draw) -> DtConfig:
    initial = draw(st.integers(1, 40))
    return DtConfig(
        budget=initial + draw(st.integers(0, 160)),
        initial_lhs=initial,
        region_threshold=draw(st.floats(0.05, 1.0)),
        max_depth=draw(st.integers(0, 5)),
        min_samples_leaf=draw(st.integers(1, 8)),
        search=SearchConfig(population=2 * draw(st.integers(1, 6)),
                            generations=draw(st.integers(0, 3)),
                            crossover_prob=draw(st.sampled_from([0.0, 0.6, 1.0])),
                            mutation_prob=draw(st.sampled_from([None, 0.0, 1.0])),
                            seed=draw(st.integers(0, 2 ** 31))),
        seed=draw(st.integers(0, 2 ** 31)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_dt_configs())
def test_nsga2_dt_ends_within_budget(config):
    # a loop that does not end fails fast here instead of hanging: every
    # outer iteration but the last appends rows, so it fits at most
    # budget + 1 trees and calls the evaluator at most budget times
    calls, fits = [0], [0]

    def bounded(genome):
        calls[0] += 1
        if calls[0] > config.budget:
            raise RuntimeError("evaluator called more often than the budget")
        return _box_evaluator(genome)

    def bounded_fit(*args):
        fits[0] += 1
        if fits[0] > config.budget + 1:
            raise RuntimeError("tree refit without a new archive row")
        return fit_tree(*args)

    with mock.patch.object(guidance, "fit_tree", bounded_fit):
        if config.search.generations < 1:
            with pytest.raises(ValueError, match="generations"):
                nsga2_dt(UNIT2, bounded, config)
            assert calls[0] == 0
            return
        result = nsga2_dt(UNIT2, bounded, config)
    assert len(result.archive) <= config.budget
    assert calls[0] == len({genome.tobytes() for genome in result.archive.genomes})
    counts = [count for stage in result.stages for count in stage.checkpoints]
    assert counts == sorted(counts)
    assert counts[-1] == len(result.archive)


def test_nsga2_dt_focuses_on_critical_box():
    result = nsga2_dt(UNIT2, _box_evaluator, _small_config())
    crit = result.archive.critical
    init = 60  # matches _small_config's initial_lhs
    before = crit[:init].mean()
    after = crit[init:].mean()
    assert after > 2 * max(before, 0.02)
    # a tree on the returned archive should find a region containing the box center
    config = _small_config()
    tree = fit_tree(result.archive.genomes, result.archive.critical,
                    config.max_depth, config.min_samples_leaf)
    center = np.array([(BOX_LO + BOX_HI) / 2] * 2)
    assert any(r.contains(center)
               for r in extract_regions(tree, UNIT2, config.region_threshold))


def test_region_stage_rows_stay_inside_their_boxes():
    result = nsga2_dt(UNIT2, _box_evaluator, _small_config())
    genomes = result.archive.genomes
    run_ids = np.asarray(result.archive.run_ids)
    region_stages = [(i, s) for i, s in enumerate(result.stages) if s.kind == "region"]
    assert region_stages, "expected at least one region run"
    for index, stage in region_stages:
        box = result.iterations[stage.iteration - 1]["regions"][stage.region_index]
        rows = genomes[run_ids == index]
        assert len(rows) > 0
        assert (rows >= np.array(box["lower"])).all()
        assert (rows <= np.array(box["upper"])).all()


def test_stage_bookkeeping_consistent():
    result = nsga2_dt(UNIT2, _box_evaluator, _small_config())
    assert result.stages[0].kind == "init"
    run_ids = np.asarray(result.archive.run_ids)
    assert (np.diff(run_ids) >= 0).all()  # stages append in order
    assert set(run_ids.tolist()) == set(range(len(result.stages)))
    for index, stage in enumerate(result.stages):
        last = int(np.flatnonzero(run_ids == index)[-1])
        assert stage.checkpoints[-1] == last + 1
    assert result.stages[-1].checkpoints[-1] == len(result.archive)
    # iteration reports count evaluations monotonically
    evals = [it["evaluations_before"] for it in result.iterations]
    assert evals == sorted(evals)


def test_nsga2_dt_deterministic():
    a = nsga2_dt(UNIT2, _box_evaluator, _small_config(seed=9))
    b = nsga2_dt(UNIT2, _box_evaluator, _small_config(seed=9))
    np.testing.assert_array_equal(a.archive.genomes, b.archive.genomes)
    np.testing.assert_array_equal(a.archive.objectives, b.archive.objectives)
    c = nsga2_dt(UNIT2, _box_evaluator, _small_config(seed=10))
    assert not np.array_equal(a.archive.genomes, c.archive.genomes)


def test_snapshots_cover_all_stage_checkpoints():
    result = nsga2_dt(UNIT2, _box_evaluator, _small_config())
    snaps = self_referenced_snapshots(result.archive, result.stages)
    checkpoints = stage_checkpoints(result.stages)
    assert len(checkpoints) == sum(len(s.checkpoints) for s in result.stages)
    assert [(s["stage"], s["evaluations"]) for s in snaps] == checkpoints
    assert checkpoints[0] == ("it00:init:g00", 60)
    for snap in snaps:
        assert 0.0 <= snap["hv"] <= 1.01 ** 2 + 1e-12
        assert snap["gd"] >= 0.0
        assert snap["distinct_critical"] >= 0
    assert snaps[-1]["gd"] == 0.0  # the final archive lies on its own front


def test_dt_config_validation():
    with pytest.raises(ValueError):
        DtConfig(budget=50, initial_lhs=100).validate()
    with pytest.raises(ValueError):
        DtConfig(region_threshold=0.0).validate()
    with pytest.raises(ValueError):
        DtConfig(initial_lhs=0).validate()
    with pytest.raises(ValueError, match="generations"):
        DtConfig(search=SearchConfig(population=4, generations=0)).validate()
    DtConfig().validate()


def test_tree_settings_fail_before_any_simulation():
    calls = []

    def evaluator(genome):
        calls.append(genome)
        return np.zeros(2), False

    for bad, message in ((DtConfig(max_depth=-1), "max_depth must be >= 0"),
                         (DtConfig(min_samples_leaf=0), "min_samples_leaf must be >= 1")):
        with pytest.raises(ValueError, match=message):
            nsga2_dt(UNIT2, evaluator, bad)
    assert calls == []
