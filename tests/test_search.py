"""Evolutionary core: dominance, sorting, crowding, sampling, archive,
and the full NSGA-II loop, checked against brute-force oracles."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt.search import (EvaluationArchive, SearchConfig, SearchSpace,
                          crowding_distance, dominates,
                          _sbx_pair, _tournament, environmental_selection, evolve,
                          lhs_sample, non_dominated_sort, rank_and_crowding)


def brute_force_fronts(objs: np.ndarray) -> list[list[int]]:
    """Peel non-dominated fronts by checking every pair directly."""
    n = len(objs)
    remaining = set(range(n))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            if not any(dominates(objs[j], objs[i]) for j in remaining if j != i):
                front.append(i)
        fronts.append(sorted(front))
        remaining -= set(front)
    return fronts


def test_dominates_basic():
    assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    assert not dominates(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert not dominates(np.array([1.0, 3.0]), np.array([2.0, 2.0]))


def test_non_dominated_sort_matches_brute_force():
    rng = np.random.default_rng(0)
    dup_rng = np.random.default_rng(10)  # keeps the draws of `rng` as they were
    for trial in range(40):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(2, 4))
        objs = rng.integers(0, 6, size=(n, m)).astype(float)  # many ties
        fronts = non_dominated_sort(objs)
        expect = brute_force_fronts(objs)
        got = [sorted(f) for f in fronts]
        assert got == expect, f"trial {trial}"
        # exact duplicate rows, shuffled in, and a row tied with all but one
        # objective of another: duplicates share a front and never dominate
        extra = objs[dup_rng.integers(n, size=int(dup_rng.integers(1, n + 2)))]
        tied = objs[dup_rng.integers(n, size=3)]
        tied[:, 0] += 1.0
        more = np.vstack([objs, extra, tied])[dup_rng.permutation(n + len(extra) + 3)]
        got = [sorted(f) for f in non_dominated_sort(more)]
        assert got == brute_force_fronts(more), f"trial {trial} with duplicates"


def peeled_fronts(objs: np.ndarray) -> list[np.ndarray]:
    """Fronts by pairwise dominance, independent of the search module: each
    front is the remaining rows that no remaining row j dominates (objs[j]
    <= the row everywhere and < somewhere)."""
    fronts, remaining = [], np.arange(len(objs))
    while remaining.size:
        pts = objs[remaining]
        dom = (pts[:, None] <= pts[None]).all(axis=2) & (pts[:, None] < pts[None]).any(axis=2)
        mask = ~dom.any(axis=0)  # dom[j, i]: row j dominates row i
        fronts.append(remaining[mask])
        remaining = remaining[~mask]
    return fronts


def per_front_crowding(objs: np.ndarray) -> np.ndarray:
    """Crowding distance of one front, one stable argsort per objective."""
    n, m = objs.shape
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(m):
        order = np.argsort(objs[:, j], kind="stable")
        dist[order[0]] = dist[order[-1]] = np.inf
        span = objs[order[-1], j] - objs[order[0], j]
        if span <= 0.0:
            continue
        dist[order[1:-1]] += (objs[order[2:], j] - objs[order[:-2], j]) / span
    return dist


def same_floats(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal IEEE bytes, except that any NaN equals any NaN: numpy's loops do
    not fix which operand's NaN sign an operation on two NaNs returns."""
    return a.shape == b.shape and all(x.tobytes() == y.tobytes() or (x != x and y != y)
                                      for x, y in zip(a, b))


SPECIAL_2D = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf, -np.inf, np.nan])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data(), st.sampled_from(["special", "ties", "normal"]))
def test_sweep_and_all_fronts_crowding_match_the_peel(data, kind):
    # ties, exact duplicates, -0.0, +-inf and NaN rows, in any order
    n = data.draw(st.integers(0, 40))
    if kind == "special":
        rows = data.draw(st.lists(st.tuples(SPECIAL_2D, SPECIAL_2D), min_size=n, max_size=n))
        objs = np.array(rows, dtype=float).reshape(n, 2)
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        objs = (rng.integers(0, 5, (n, 2)).astype(float) if kind == "ties"
                else rng.normal(size=(n, 2)))
        objs = objs[rng.integers(0, n, n)] if n else objs  # duplicates
    with np.errstate(invalid="ignore"):  # inf - inf, NaN spans
        fronts, rank, crowding = rank_and_crowding(objs)
        reference = [per_front_crowding(objs[f]) for f in fronts]
        alone = [crowding_distance(objs[f]) for f in fronts]
    expect = peeled_fronts(objs)
    assert len(fronts) == len(expect)
    for r, (got, want) in enumerate(zip(fronts, expect)):
        assert got.tolist() == want.tolist() and (rank[got] == r).all()
        assert same_floats(crowding[got], reference[r])
        assert same_floats(alone[r], reference[r])
    assert [f.tolist() for f in non_dominated_sort(objs)] == [f.tolist() for f in expect]


def test_crowding_ties_go_to_the_lower_row():
    # one 3-objective front whose two lowest f1 values tie (rows 0 and 1):
    # the stable order hands f1's lower boundary (inf) to row 0, and f2 and
    # f3 end on rows 3 and 4, so row 1 stays finite
    front = np.array([[0.0, 2.0, 2.0], [0.0, 3.0, 1.0], [1.0, 1.0, 3.0],
                      [2.0, 0.0, 4.0], [3.0, 4.0, 0.0]])
    expect = [np.inf, 1 / 3 + 2 / 4 + 2 / 4, 2 / 3 + 2 / 4 + 2 / 4,
              np.inf, np.inf]
    assert crowding_distance(front).tolist() == expect
    # the same front twice, the dominated copy first, through the all-fronts pass
    objs = np.vstack([front + 10.0, front])
    fronts, rank, crowding = rank_and_crowding(objs)
    assert [f.tolist() for f in fronts] == [[5, 6, 7, 8, 9], [0, 1, 2, 3, 4]]
    assert crowding[5:].tolist() == crowding[:5].tolist() == expect


def test_sbx_skips_a_dimension_whose_parents_are_closer_than_1e_14():
    # the coin says cross in both dimensions; dimension 0's parents are
    # 1e-15 apart, so it draws no spread factor and both children copy it
    draws = iter([0.0, 0.1, 0.1, 0.25])  # crossover, coin 0, coin 1, u for 1

    class Scripted:
        def random(self):
            return next(draws)

    c1, c2 = _sbx_pair(Scripted(), np.array([0.0, 0.0]), np.array([1e-15, 1.0]), 1.0, 15.0)
    assert next(draws, None) is None
    assert (c1[0], c2[0]) == (0.0, 1e-15)
    assert c1[1] != 0.0 and c2[1] != 1.0


def test_non_dominated_sort_translation_invariant():
    rng = np.random.default_rng(1)
    objs = rng.normal(size=(30, 2))
    base = [sorted(f) for f in non_dominated_sort(objs)]
    shifted = [sorted(f) for f in non_dominated_sort(objs + 100.0)]
    scaled = [sorted(f) for f in non_dominated_sort(objs * 3.0)]
    assert base == shifted == scaled


def test_crowding_distance_hand_value():
    # middle point: (2-0)/range + (2-0)/range = 1 + 1 = 2, ends infinite
    objs = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    d = crowding_distance(objs)
    assert np.isinf(d[0]) and np.isinf(d[2])
    assert d[1] == pytest.approx(2.0, abs=1e-12)


def test_crowding_distance_small_and_degenerate():
    assert np.isinf(crowding_distance(np.array([[1.0, 2.0]]))).all()
    assert np.isinf(crowding_distance(np.array([[1.0, 2.0], [2.0, 1.0]]))).all()
    # zero range in one objective contributes nothing, no NaN
    objs = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0]])
    d = crowding_distance(objs)
    assert d[1] == pytest.approx(1.0)
    assert not np.isnan(d).any()


def test_lhs_sample_stratification():
    space = SearchSpace(lower=(0.0,), upper=(8.0,))
    pts = lhs_sample(space, 4, 123)[:, 0]
    # exactly one point per stratum [0,2),[2,4),[4,6),[6,8)
    strata = np.floor(pts / 2.0).astype(int)
    assert sorted(strata.tolist()) == [0, 1, 2, 3]


def test_lhs_sample_stratification_large_and_bounds():
    space = SearchSpace(lower=(-3.0, 10.0), upper=(5.0, 11.0))
    rng = np.random.default_rng(9)
    for _ in range(5):
        pts = lhs_sample(space, 100, rng)
        assert pts.shape == (100, 2)
        assert (pts >= space.lower).all() and (pts <= space.upper).all()
        for dim in range(2):
            width = (space.upper[dim] - space.lower[dim]) / 100
            strata = ((pts[:, dim] - space.lower[dim]) // width).astype(int)
            strata = np.clip(strata, 0, 99)
            assert len(set(strata.tolist())) == 100, "one sample per stratum"


def test_rank_and_crowding_per_position():
    rng = np.random.default_rng(6)
    objs = rng.integers(0, 5, size=(25, 2)).astype(float)
    fronts, rank, crowding = rank_and_crowding(objs)
    assert [sorted(f) for f in fronts] == brute_force_fronts(objs)
    for r, front in enumerate(fronts):
        assert (rank[front] == r).all()
        assert crowding[front].tobytes() == crowding_distance(objs[front]).tobytes()


def test_environmental_selection_keeps_first_front():
    rng = np.random.default_rng(5)
    for _ in range(20):
        objs = rng.normal(size=(20, 2))
        rows = rng.permutation(100)[:20]
        fronts, rank, crowding = rank_and_crowding(objs)
        chosen = environmental_selection(fronts, crowding, rows, 10)
        assert len(chosen) == len(set(chosen)) == 10
        first = set(fronts[0].tolist())
        assert first <= set(chosen) if len(first) <= 10 else set(chosen) <= first
        # whole fronts before any member of a worse front
        assert max(rank[chosen]) == min(r for r in range(len(fronts))
                                        if sum(len(f) for f in fronts[:r + 1]) >= 10)


def test_boundary_front_ties_keep_the_lower_archive_rows():
    # one front of equal points: the two ends of the stable sort are
    # boundary (infinite crowding), every other member has crowding 0
    rows = [7, 3, 9, 1, 5, 2]
    fronts, _, crowding = rank_and_crowding(np.ones((6, 2)))
    assert len(fronts) == 1
    assert np.isinf(crowding[[0, 5]]).all() and (crowding[1:5] == 0).all()
    chosen = environmental_selection(fronts, crowding, rows, 4)
    assert [rows[i] for i in chosen] == [2, 7, 1, 3]


class _ScriptedPicks:
    """Stands in for the generator: `integers` returns scripted positions."""

    def __init__(self, picks):
        self.picks = iter(picks)

    def integers(self, n):
        return next(self.picks)


def test_tournament_prefers_rank_then_crowding_then_lower_row():
    rows = [40, 12, 30, 5]
    rank = np.array([0, 1, 0, 0])
    crowding = np.array([1.0, 9.0, 2.0, 2.0])

    def winner(i, j):
        return _tournament(_ScriptedPicks([i, j]), rows, rank, crowding)

    assert winner(0, 1) == winner(1, 0) == 40  # lower rank beats more crowding
    assert winner(0, 2) == winner(2, 0) == 30  # larger crowding
    assert winner(2, 3) == winner(3, 2) == 5   # full tie: lower archive row
    assert winner(1, 1) == 12


def test_archive_roundtrip(tmp_path):
    archive = EvaluationArchive()
    rng = np.random.default_rng(2)
    for i in range(17):
        archive.append(rng.normal(size=3), rng.normal(size=2),
                       bool(rng.integers(2)), run_id=i % 3)
    path = tmp_path / "arch.csv"
    archive.to_csv(path)
    back = EvaluationArchive.from_csv(path)
    assert len(back) == 17
    np.testing.assert_array_equal(back.genomes, archive.genomes)
    np.testing.assert_array_equal(back.objectives, archive.objectives)
    np.testing.assert_array_equal(back.critical, archive.critical)
    np.testing.assert_array_equal(back.run_ids, archive.run_ids)


def _sphere_evaluator(genome):
    f1 = float(np.sum((genome - 0.25) ** 2))
    f2 = float(np.sum((genome - 0.75) ** 2))
    return np.array([f1, f2]), f1 < 0.01


SPACE2 = SearchSpace(lower=(0.0, 0.0), upper=(1.0, 1.0))


def test_evolve_archive_length_exact():
    cfg = SearchConfig(population=8, generations=5, seed=3)
    pop, archive = evolve(SPACE2, cfg, _sphere_evaluator)
    assert len(archive) == 8 * (5 + 1)
    assert len(pop) == 8
    assert archive.genomes.min() >= 0.0
    assert archive.genomes.max() <= 1.0


def test_evolve_with_seeds_skips_reevaluation():
    cfg = SearchConfig(population=8, generations=3, seed=4)
    _, archive = evolve(SPACE2, cfg, _sphere_evaluator)
    n = len(archive)
    evolve(SPACE2, cfg, _sphere_evaluator, seeds=range(5), archive=archive)
    # 5 seeded members are reused: only (8-5) + 8*3 fresh evaluations
    assert len(archive) == n + (8 - 5) + 8 * 3


@pytest.mark.parametrize("n_seeds", [0, 3, 8])
def test_evolve_evaluates_only_fresh_genomes_and_returns_archive_rows(n_seeds):
    p, g = 8, 3
    _, archive = evolve(SPACE2, SearchConfig(population=p, generations=1, seed=1),
                        _sphere_evaluator)
    before = archive.genomes.copy()
    seeds = np.arange(2, 2 + n_seeds)
    calls = []

    def counting(genome):
        calls.append(np.array(genome))
        return _sphere_evaluator(genome)

    population, out = evolve(SPACE2, SearchConfig(population=p, generations=g, seed=2),
                             counting, seeds=seeds, archive=archive, run_id=9)
    assert out is archive
    added = archive.genomes[len(before):]
    assert len(added) == (p - n_seeds) + p * g
    # the evaluator saw each appended genome not already in the archive,
    # once, in order of first appearance, and no seed row
    seen = {genome.tobytes() for genome in before}
    fresh = []
    for genome in added:
        if genome.tobytes() not in seen:
            seen.add(genome.tobytes())
            fresh.append(genome)
    np.testing.assert_array_equal(np.reshape(calls, (-1, 2)), np.reshape(fresh, (-1, 2)))
    np.testing.assert_array_equal(archive.genomes[:len(before)], before)
    assert archive.run_ids[len(before):].tolist() == [9] * len(added)
    # a reused row holds exactly what evaluating its genome gives
    for row in range(len(before), len(archive)):
        objs, critical = _sphere_evaluator(archive.genomes[row])
        assert archive.objectives[row].tobytes() == objs.tobytes()
        assert archive.critical[row] == critical
    assert len(population) == p
    assert all(isinstance(row, int) and 0 <= row < len(archive) for row in population)
    assert len(set(population)) == p


def test_evolve_without_variation_evaluates_only_the_initial_population():
    # every child is an exact copy of a parent, so it reuses the parent's row
    p, g = 6, 4
    calls = []

    def counting(genome):
        calls.append(genome.tobytes())
        return _sphere_evaluator(genome)

    cfg = SearchConfig(population=p, generations=g, crossover_prob=0.0,
                       mutation_prob=0.0, seed=5)
    _, archive = evolve(SPACE2, cfg, counting)
    assert len(calls) == p
    assert len(archive) == p * (g + 1)
    first = {genome.tobytes(): row for row, genome in enumerate(archive.genomes[:p])}
    assert sorted(first) == sorted(calls)
    for row in range(p, len(archive)):
        parent = first[archive.genomes[row].tobytes()]
        assert archive.objectives[row].tobytes() == archive.objectives[parent].tobytes()
        assert archive.critical[row] == archive.critical[parent]


def test_archive_reuses_only_byte_identical_genomes(tmp_path):
    calls = []

    def counting(genome):
        calls.append(genome.tobytes())
        return np.array([float(genome[0]), 1.0 / (1.0 + float(genome[1]))]), False

    archive = EvaluationArchive()
    rows = [archive.evaluate(np.array(g), counting, run_id=0)
            for g in ([0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [0.0, 1.0 + 2 ** -52])]
    assert rows == [0, 1, 2, 3]
    assert len(calls) == 3  # -0.0 and the next float up are distinct genomes
    assert archive.first_row == {archive.genomes[0].tobytes(): 0,
                                 archive.genomes[2].tobytes(): 2,
                                 archive.genomes[3].tobytes(): 3}
    # an archive read back from its CSV reuses the same rows
    archive.to_csv(tmp_path / "a.csv")
    back = EvaluationArchive.from_csv(tmp_path / "a.csv")
    assert back.first_row == archive.first_row
    assert back.evaluate(np.array([-0.0, 1.0]), counting, run_id=1) == 4
    assert len(calls) == 3 and back.objectives[4].tobytes() == back.objectives[2].tobytes()


# ---------- column storage, pickling and CSV ----------

SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 1e-5, 0.1, -1.5, 2.0 ** 60]


def _special_archive(rows: int) -> EvaluationArchive:
    """Archive of special float values, with repeated genomes."""
    rng = np.random.default_rng(rows)
    archive = EvaluationArchive()
    for i in range(rows):
        genome = rng.choice(SPECIAL, size=3) if i % 4 else np.array([0.1, -0.0, 2.0])
        archive.append(genome, rng.choice(SPECIAL, size=2), bool(rng.integers(2)), i % 5)
    return archive


def reference_csv(archive: EvaluationArchive) -> str:
    """The archive CSV written row by row, one value at a time."""
    if len(archive) == 0:
        return "run_id,eval_index,critical\n"
    n, m = archive.genomes[0].size, archive.objectives[0].size
    lines = [",".join(["run_id", "eval_index"] + [f"g{i}" for i in range(n)]
                      + [f"o{j}" for j in range(m)] + ["critical"])]
    for idx in range(len(archive)):
        lines.append(",".join([str(archive.run_ids[idx]), str(idx)]
                              + [repr(float(v)) for v in archive.genomes[idx]]
                              + [repr(float(v)) for v in archive.objectives[idx]]
                              + ["1" if archive.critical[idx] else "0"]))
    return "\n".join(lines) + "\n"


def _columns(archive: EvaluationArchive) -> list[str]:
    """Every column value as text: NaN equals NaN, -0.0 differs from 0.0."""
    return [repr(col.tolist()) for col in (archive.genomes, archive.objectives,
                                           archive.critical, archive.run_ids)]


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 200])
def test_archive_pickle_ships_trimmed_columns(rows):
    archive = _special_archive(rows)
    state = archive.__getstate__()
    assert [col.shape for col in state] == [(rows, 3 if rows else 0), (rows, 2 if rows else 0),
                                            (rows,), (rows,)]
    back = pickle.loads(pickle.dumps(archive))
    assert len(back) == rows and _columns(back) == _columns(archive)
    assert back.first_row == archive.first_row
    # the copy reuses rows and grows on its own
    calls = []

    def counting(genome):
        calls.append(genome)
        return np.array([1.0, 2.0]), True

    assert back.evaluate(np.array([0.1, -0.0, 2.0]), counting, run_id=7) == rows
    assert back.evaluate(np.array([0.1, 0.0, 2.0]), counting, run_id=7) == rows + 1
    assert len(calls) == (2 if rows == 0 else 1)
    assert back.objectives[rows].tobytes() == (
        archive.objectives[0].tobytes() if rows else np.array([1.0, 2.0]).tobytes())
    assert back.run_ids[rows:].tolist() == [7, 7] and len(archive) == rows


def test_archive_views_are_read_only_snapshots():
    archive = _special_archive(64)  # full: the next append reallocates
    views = [archive.genomes, archive.objectives, archive.critical,
             archive.run_ids]
    before = [view.copy() for view in views]
    for view in views:
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = view[1]
    archive.append(np.ones(3), np.ones(2), True, 9)
    assert len(archive.genomes) == 65 and len(views[0]) == 64
    for view, old in zip(views, before):
        assert view.tobytes() == old.tobytes()
    assert archive.genomes.base is not views[0].base  # grown into new columns


@pytest.mark.parametrize("rows", [0, 1, 17, 130])
def test_archive_csv_matches_row_by_row_writer(tmp_path, rows):
    archive = _special_archive(rows)
    path = tmp_path / "a.csv"
    archive.to_csv(path)
    assert path.read_text(encoding="utf-8") == reference_csv(archive)
    back = EvaluationArchive.from_csv(path)
    assert len(back) == rows and _columns(back) == _columns(archive)
    assert back.first_row == archive.first_row


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
                          st.lists(st.floats(allow_nan=False), min_size=3, max_size=3),
                          st.booleans(), st.integers(0, 2 ** 40)), max_size=12))
def test_archive_csv_round_trips_any_float(tmp_path_factory, rows):
    archive = EvaluationArchive()
    for genome, objectives, critical, run_id in rows:
        archive.append(np.array(genome), np.array(objectives), critical, run_id)
    path = tmp_path_factory.mktemp("csv") / "a.csv"
    archive.to_csv(path)
    assert path.read_text(encoding="utf-8") == reference_csv(archive)
    back = EvaluationArchive.from_csv(path)
    assert _columns(back) == _columns(archive) and back.first_row == archive.first_row


def test_evolve_rejects_too_many_or_foreign_seeds():
    cfg = SearchConfig(population=4, generations=1, seed=0)
    _, archive = evolve(SPACE2, cfg, _sphere_evaluator)
    n = len(archive)
    with pytest.raises(ValueError, match="more seeds"):
        evolve(SPACE2, cfg, _sphere_evaluator, seeds=range(5), archive=archive)
    with pytest.raises(ValueError, match="rows of the archive"):
        evolve(SPACE2, cfg, _sphere_evaluator, seeds=[0, n], archive=archive)
    with pytest.raises(ValueError, match="rows of the archive"):
        evolve(SPACE2, cfg, _sphere_evaluator, seeds=[0])
    assert len(archive) == n


def test_evolve_improves_on_bowl():
    # the whole Pareto set lies on the segment between the two bowl centers
    cfg = SearchConfig(population=16, generations=20, seed=7)
    pop, archive = evolve(SPACE2, cfg, _sphere_evaluator)
    best_f1 = min(archive.objectives[row][0] for row in pop)
    best_f2 = min(archive.objectives[row][1] for row in pop)
    assert best_f1 < 0.05
    assert best_f2 < 0.05


def test_evolve_deterministic():
    cfg = SearchConfig(population=10, generations=4, seed=11)
    _, a = evolve(SPACE2, cfg, _sphere_evaluator)
    _, b = evolve(SPACE2, cfg, _sphere_evaluator)
    np.testing.assert_array_equal(a.genomes, b.genomes)
    np.testing.assert_array_equal(a.objectives, b.objectives)
    cfg2 = SearchConfig(population=10, generations=4, seed=12)
    _, c = evolve(SPACE2, cfg2, _sphere_evaluator)
    assert not np.array_equal(a.genomes, c.genomes)


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(lower=(1.0,), upper=(1.0,))
    with pytest.raises(ValueError):
        SearchSpace(lower=(0.0, 2.0), upper=(1.0, 1.0))
    space = SearchSpace(lower=(0.0,), upper=(2.0,))
    assert space.contains(np.array([1.0]))
    assert not space.contains(np.array([2.5]))
    np.testing.assert_array_equal(space.clip(np.array([-1.0])), [0.0])


@pytest.mark.parametrize("lower, upper, dim", [
    ([0.0, 0.0], [1.0, np.inf], 1),
    ([-np.inf, 0.0], [np.inf, 1.0], 0),
    ([0.0, 0.0, -np.inf], [1.0, 1.0, 0.0], 2),
])
def test_sampling_an_unbounded_box_names_the_dimension(lower, upper, dim):
    # a SearchSpace may be unbounded (clip works on it), but sampling it
    # would return inf or NaN rows
    space = SearchSpace(lower, upper)
    with pytest.raises(ValueError, match=f"dimension {dim}"):
        lhs_sample(space, 3, 0)
    with pytest.raises(ValueError, match=f"dimension {dim}"):
        space.check_finite()
    SearchSpace(lower[:dim] + [0.0] + lower[dim + 1:],
                upper[:dim] + [1.0] + upper[dim + 1:]).check_finite()


@pytest.mark.parametrize("n", [1, 5, 17])
def test_clip_matches_np_clip_bit_for_bit(n):
    # signed zeros, NaN, infinities and values equal to a bound
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, -1.0, 0.5, 1.0, 2.0, -2.0, 5e-324]
    boxes = [(-0.0, 1.0), (0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (0.5, 2.0),
             (-np.inf, np.inf), (-np.inf, 0.0), (-0.0, np.inf)]
    rng = np.random.default_rng(n)
    for _ in range(300):
        pick = rng.integers(0, len(boxes), n)
        space = SearchSpace([boxes[i][0] for i in pick], [boxes[i][1] for i in pick])
        x = rng.choice(values, n)
        expected = np.clip(x, space.lower, space.upper)
        assert space.clip(x).tobytes() == expected.tobytes()


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(population=7).validate()  # odd
    with pytest.raises(ValueError):
        SearchConfig(population=0).validate()
    with pytest.raises(ValueError):
        SearchConfig(crossover_prob=1.5).validate()
    # an index of -1 divides by zero in SBX and mutation; NaN fails every comparison
    for name in ("crossover_index", "mutation_index"):
        for bad in (-1.0, -0.5, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                SearchConfig(**{name: bad}).validate()
    SearchConfig(crossover_index=0.0, mutation_index=0.0).validate()
    SearchConfig().validate()
