"""Quality indicators checked against independent oracles: pairwise
filtering, inclusion-exclusion and Monte Carlo hypervolume, double-loop
generational distance, and hand-evaluated spread/distinctness examples."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt.indicators import (DistinctnessPolicy, Reference, _hv2, build_reference,
                              distinct_critical, generational_distance,
                              hypervolume, non_dominated_filter,
                              non_dominated_mask, normalize, prefix_indicators,
                              spread)
from sasbt.search import non_dominated_sort
from test_search import brute_force_fronts

# ---------- oracles ----------


def oracle_mask(points: np.ndarray) -> np.ndarray:
    """A point stays iff no other point dominates it (pairwise check)."""
    n = len(points)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if (points[j] <= points[i]).all() and (points[j] < points[i]).any():
                keep[i] = False
                break
    return keep


def oracle_hv_inclusion_exclusion(front: np.ndarray, ref: np.ndarray) -> float:
    """Union volume of boxes [p, ref] via inclusion-exclusion (<= ~10 pts)."""
    total = 0.0
    n = len(front)
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            corner = np.max(front[list(subset)], axis=0)
            vol = float(np.prod(np.maximum(ref - corner, 0.0)))
            total += vol if r % 2 == 1 else -vol
    return total


def oracle_gd(front: np.ndarray, reference: np.ndarray) -> float:
    dists = [min(float(np.linalg.norm(p - q)) for q in reference) for p in front]
    return float(np.mean(dists))


# ---------- non-dominated filtering ----------


def test_filter_examples():
    out = non_dominated_filter(np.array([[1.0, 1.0], [2.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 1.0]])
    assert non_dominated_filter(np.empty((0, 2))).shape == (0, 2)
    # a lone point is kept whatever its values; NaN never dominates
    np.testing.assert_array_equal(non_dominated_mask([[4.0, np.inf]]), [True])
    np.testing.assert_array_equal(non_dominated_mask([[0.0, 0.0], [np.nan, 1.0]]),
                                  [True, True])


def test_filter_matches_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(2, 4))
        pts = rng.integers(0, 8, size=(n, m)).astype(float)
        np.testing.assert_array_equal(non_dominated_mask(pts), oracle_mask(pts),
                                      err_msg=f"trial {trial}")


SPECIAL = st.sampled_from([0.0, -0.0, 1.0, 2.0, np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 4]))
def test_mask_and_sort_match_oracles_on_special_values(data, m: int) -> None:
    rows = data.draw(st.lists(st.lists(SPECIAL, min_size=m, max_size=m), max_size=12))
    pts = np.array(rows, dtype=float).reshape(len(rows), m)
    np.testing.assert_array_equal(non_dominated_mask(pts), oracle_mask(pts))
    assert [sorted(f) for f in non_dominated_sort(pts)] == brute_force_fronts(pts)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blocked_mask_matches_oracles_across_block_edges(n: int) -> None:
    # m != 2 compares MASK_BLOCK rows with all rows at once
    rng = np.random.default_rng(n)
    for m in (1, 3, 4):
        pts = rng.integers(0, 6, size=(n, m)).astype(float)
        pts[rng.random((n, m)) < 0.05] = -0.0
        np.testing.assert_array_equal(non_dominated_mask(pts), oracle_mask(pts))
        assert [sorted(f) for f in non_dominated_sort(pts)] == brute_force_fronts(pts)


def test_filter_keeps_duplicates_and_order():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.0], [3.0, 3.0]])
    out = non_dominated_filter(pts)
    np.testing.assert_array_equal(out, [[1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])


# ---------- hypervolume ----------


def test_hv_worked_examples():
    assert hypervolume(np.array([[0.5, 0.5]]), np.array([1.0, 1.0])) == \
        pytest.approx(0.25, abs=1e-15)
    hv = hypervolume(np.array([[0.25, 0.75], [0.75, 0.25]]), np.array([1.0, 1.0]))
    assert hv == pytest.approx(0.3125, abs=1e-15)


def test_hv_matches_inclusion_exclusion():
    rng = np.random.default_rng(1)
    for trial in range(100):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(1, 9))
        front = rng.random((n, m))
        ref = np.ones(m)
        hv = hypervolume(front, ref)
        oracle = oracle_hv_inclusion_exclusion(front, ref)
        assert hv == pytest.approx(oracle, abs=1e-9), f"trial {trial}"


def test_hv_matches_monte_carlo_3d():
    rng = np.random.default_rng(2)
    n_samples = 10 ** 6
    for trial in range(3):
        front = rng.random((8, 3))
        ref = np.ones(3)
        hv = hypervolume(front, ref)
        samples = rng.random((n_samples, 3))
        covered = np.zeros(n_samples, dtype=bool)
        for p in front:
            covered |= (samples >= p).all(axis=1)
        est = covered.mean()
        se = np.sqrt(max(est * (1 - est), 1e-12) / n_samples)
        assert abs(hv - est) <= 3 * se, f"trial {trial}: hv={hv} est={est}"


def test_hv_monotone_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(30):
        front = rng.random((6, 2))
        ref = np.ones(2)
        hv = hypervolume(front, ref)
        assert 0.0 <= hv <= 1.0
        # a dominated extra point changes nothing
        worst = front.max(axis=0) + (1 - front.max(axis=0)) * 0.5
        same = hypervolume(np.vstack([front, worst]), ref)
        assert same == pytest.approx(hv, abs=1e-12)
        # a point non-dominated by the front strictly increases HV
        better = front.min(axis=0) * 0.5
        more = hypervolume(np.vstack([front, better]), ref)
        assert more > hv


def test_hv_errors():
    with pytest.raises(ValueError):
        hypervolume(np.array([[1.5, 0.5]]), np.array([1.0, 1.0]))  # beyond ref
    with pytest.raises(ValueError):
        hypervolume(np.empty((0, 2)), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        hypervolume(np.array([[0.1] * 4]), np.array([1.0] * 4))  # m > 3


# ---------- generational distance ----------


def test_gd_examples_and_oracle():
    ref = np.array([[0.0, 0.0]])
    assert generational_distance(np.array([[0.0, 1.0], [1.0, 0.0]]), ref) == \
        pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(4)
    for trial in range(100):
        front = rng.normal(size=(int(rng.integers(1, 20)), 2))
        reference = rng.normal(size=(int(rng.integers(1, 20)), 2))
        assert generational_distance(front, reference) == \
            pytest.approx(oracle_gd(front, reference), abs=1e-12), f"trial {trial}"
        assert generational_distance(reference, reference) == 0.0


def test_gd_errors():
    with pytest.raises(ValueError):
        generational_distance(np.empty((0, 2)), np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        generational_distance(np.array([[0.0, 0.0]]), np.empty((0, 2)))


# ---------- spread ----------


def _diagonal_front(positions) -> np.ndarray:
    """Points at parameter t along the segment (0,1) -> (1,0)."""
    t = np.asarray(positions, dtype=float)
    return np.stack([t, 1.0 - t], axis=1)


EXTREMES = _diagonal_front([0.0, 1.0])


def test_spread_uniform_front_touching_extremes_is_zero():
    front = _diagonal_front(np.linspace(0.0, 1.0, 6))
    assert spread(front, EXTREMES) == pytest.approx(0.0, abs=1e-12)


def test_spread_interior_fronts_size_5_and_9_match_hand_value():
    # both cardinalities give (0.1+0.1) / (0.2 + (N-1)*gap) = 0.2 exactly
    f5 = _diagonal_front(np.linspace(0.1, 0.9, 5))
    f9 = _diagonal_front(np.linspace(0.1, 0.9, 9))
    d5 = spread(f5, EXTREMES)
    d9 = spread(f9, EXTREMES)
    assert d5 == pytest.approx(0.2, abs=1e-12)
    assert d9 == pytest.approx(0.2, abs=1e-12)
    assert d5 == pytest.approx(d9, abs=1e-12)


def test_spread_single_point_and_errors():
    assert spread(_diagonal_front([0.4]), EXTREMES) == 1.0
    with pytest.raises(ValueError):
        spread(np.array([[0.1, 0.2, 0.3]]), np.zeros((2, 3)))  # m != 2


# ---------- duplication sensitivity (HV vs GD vs spread) ----------


def test_only_hv_invariant_to_duplicating_a_member():
    front = np.array([[0.0, 1.0], [2.0, 0.0]])
    dup = np.vstack([front, front[0]])
    ref_front = np.array([[0.0, 0.0]])
    ref_point = np.array([3.0, 3.0])
    extremes = np.array([[0.0, 1.5], [2.5, 0.0]])

    assert hypervolume(dup, ref_point) == \
        pytest.approx(hypervolume(front, ref_point), abs=1e-15)
    assert generational_distance(dup, ref_front) != \
        generational_distance(front, ref_front)
    assert spread(dup, extremes) != spread(front, extremes)


def test_hv_bits_ignore_copies_zero_signs_and_row_order():
    # the one dedup sits in the 2-D sweep, which the 3-D slices call too
    rng = np.random.default_rng(4)
    grid = np.arange(33) / 32
    for trial in range(200):
        m, n = 2 + trial % 2, int(rng.integers(1, 30))
        if m == 2:  # n mutually non-dominated points: a sum of n strips
            front = np.column_stack([np.sort(rng.choice(grid, n, replace=False)),
                                     np.sort(rng.choice(grid, n, replace=False))[::-1]])
        else:
            front = rng.choice(grid, (n, m))
        copies = np.vstack([front, front[rng.integers(0, n, n)]])
        zeros = copies == 0.0
        copies[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
        ref = np.full(m, 1.01)
        assert (np.float64(hypervolume(copies[rng.permutation(len(copies))], ref)).tobytes()
                == np.float64(hypervolume(front, ref)).tobytes()), f"trial {trial}"


def unique_hv2(pts: np.ndarray, ref: np.ndarray) -> float:
    """The 2-D sweep over np.unique(pts, axis=0), the dedup `_hv2` replaced."""
    pts = np.unique(pts, axis=0)
    xs = np.append(pts[1:, 0], ref[0])
    return float(np.sum((xs - pts[:, 0]) * (ref[1] - pts[:, 1])))


HV_VALUES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -np.inf])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(HV_VALUES, HV_VALUES), min_size=1, max_size=12),
       ref=st.tuples(st.sampled_from([1.0, 2.0, np.inf]), st.sampled_from([1.0, 2.0, np.inf])))
def test_hv2_dedup_matches_np_unique(rows, ref) -> None:
    # _hv2 sees filtered fronts; a filtered front keeps every copy of a point
    # (duplicates, and rows equal up to the signs of their zeros)
    pts = np.array(rows + rows[::2])
    front = pts[non_dominated_mask(pts)]
    ref = np.array(ref)
    with np.errstate(invalid="ignore"):  # an infinite strip times a zero one
        got, expected = _hv2(front, ref), unique_hv2(front, ref)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


# ---------- normalization ----------


def test_normalize_examples():
    bounds = np.array([[0.0, 10.0]])
    np.testing.assert_array_equal(normalize(np.array([[5.0]]), bounds), [[0.5]])
    np.testing.assert_array_equal(normalize(np.array([[-1.0]]), bounds), [[0.0]])
    np.testing.assert_array_equal(normalize(np.array([[11.0]]), bounds), [[1.0]])


def test_normalize_round_trip_exact_on_dyadic_bounds():
    bounds = np.array([[0.0, 8.0], [-4.0, 4.0]])
    pts = np.array([[5.0, 3.0], [0.25, -3.5], [8.0, 4.0]])
    norm = normalize(pts, bounds)
    back = bounds[:, 0] + norm * (bounds[:, 1] - bounds[:, 0])
    np.testing.assert_array_equal(back, pts)


def test_normalize_zero_range_error():
    with pytest.raises(ValueError):
        normalize(np.array([[1.0, 2.0]]), np.array([[0.0, 1.0], [3.0, 3.0]]))


# ---------- distinct critical counting ----------


def test_distinct_any_difference():
    genomes = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
    assert distinct_critical(genomes, DistinctnessPolicy()) == 2


def test_distinct_thresholded_below_epsilon():
    genomes = np.array([[0.0, 0.0], [0.001, 0.0]])
    policy = DistinctnessPolicy(mode="thresholded", min_vars=1, epsilon=0.01)
    assert distinct_critical(genomes, policy) == 1


def test_distinct_thresholded_min_vars():
    genomes = np.array([[0.0, 0.0], [0.4, 0.4], [1.0, 1.0]])
    policy = DistinctnessPolicy(mode="thresholded", min_vars=2, epsilon=0.5)
    # greedy keeps (0,0); (0.4,0.4) differs by 0.4 <= 0.5; (1,1) differs by 1
    assert distinct_critical(genomes, policy) == 2


def test_distinct_permutation_invariant_and_idempotent():
    rng = np.random.default_rng(6)
    genomes = rng.integers(0, 3, size=(40, 3)).astype(float)
    policy = DistinctnessPolicy()
    n = distinct_critical(genomes, policy)
    assert distinct_critical(genomes[rng.permutation(40)], policy) == n
    assert distinct_critical(np.vstack([genomes, genomes]), policy) == n


def test_distinct_empty_and_policy_validation():
    assert distinct_critical(np.empty((0, 3)), DistinctnessPolicy()) == 0
    with pytest.raises(ValueError):
        DistinctnessPolicy(mode="nope").validate()
    with pytest.raises(ValueError):
        DistinctnessPolicy(mode="thresholded", min_vars=0).validate()
    with pytest.raises(ValueError):
        DistinctnessPolicy(mode="thresholded", epsilon=-1.0).validate()
    with pytest.raises(ValueError, match="epsilon must be >= 0, got nan"):
        DistinctnessPolicy(mode="thresholded", epsilon=float("nan")).validate()


# ---------- incremental prefix scoring against the batch pipeline ----------


def oracle_distinct(genomes: np.ndarray, policy: DistinctnessPolicy) -> int:
    """Distinct scenarios counted from scratch: np.unique rows, or the
    greedy pairwise double loop."""
    if genomes.size == 0:
        return 0
    if policy.mode == "any-difference":
        return int(np.unique(genomes, axis=0).shape[0])
    accepted: list[np.ndarray] = []
    for row in genomes:
        if all(int(np.sum(np.abs(row - a) > policy.epsilon)) >= policy.min_vars
               for a in accepted):
            accepted.append(row)
    return len(accepted)


def oracle_reference(objective_sets: list[np.ndarray]) -> Reference:
    """The shared reference with every copy of a front point kept."""
    allobj = np.vstack(objective_sets)
    lo, hi = allobj.min(axis=0), allobj.max(axis=0)
    bounds = np.stack([lo, np.where(hi - lo <= 0, lo + 1.0, hi)], axis=1)
    front = normalize(non_dominated_filter(allobj), bounds)
    extremes = None
    if allobj.shape[1] == 2:
        order = np.lexsort((front[:, 1], front[:, 0]))
        extremes = np.stack([front[order[0]], front[order[-1]]])
    return Reference(bounds, front, extremes, np.full(allobj.shape[1], 1.01))


def oracle_prefix_indicators(objectives, genomes, critical, counts, ref, policy):
    """Every prefix filtered and scored from scratch."""
    m = objectives.shape[1]
    rows = []
    for count in counts:
        norm = normalize(non_dominated_filter(objectives[:count]), ref.bounds)
        rows.append({
            "hv": hypervolume(norm, ref.point) if m in (2, 3) else float("nan"),
            "gd": generational_distance(norm, ref.front),
            "spread": (spread(norm, ref.extremes)
                       if ref.extremes is not None else float("nan")),
            "distinct_critical": oracle_distinct(genomes[:count][critical[:count]], policy),
        })
    return rows


# few distinct values: duplicate rows, ties on one objective, both signed zeros
OBJECTIVE_VALUES = [-0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0]
GENOME_VALUES = [-0.0, 0.0, 0.05, 0.1, 1.0, np.nan]


@st.composite
def scored_archives(draw):
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 3))
    size = draw(st.integers(1, 40))
    values = st.sampled_from(OBJECTIVE_VALUES) | st.floats(-2.0, 4.0)
    objectives = np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m),
                                        min_size=size, max_size=size)))
    genomes = np.array(draw(st.lists(st.lists(st.sampled_from(GENOME_VALUES),
                                              min_size=n, max_size=n),
                                     min_size=size, max_size=size)))
    critical = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    # unsorted, repeated, and one count past the archive (a quarter budget can be)
    counts = draw(st.lists(st.integers(1, size), min_size=1, max_size=8))
    counts.insert(draw(st.integers(0, len(counts))), size + draw(st.integers(1, 5)))
    policy = draw(st.sampled_from([DistinctnessPolicy()]) | st.builds(
        DistinctnessPolicy, st.just("thresholded"), st.integers(1, n),
        st.sampled_from([0.0, 0.05, 0.5])))
    # a second archive widens the reference, as the other runs of a compare do
    other = np.array(draw(st.lists(st.lists(values, min_size=m, max_size=m), max_size=10)))
    return objectives, genomes, critical, counts, policy, other.reshape(-1, m)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scored_archives())
def test_incremental_prefix_scores_equal_batch_scores(case):
    objectives, genomes, critical, counts, policy, other = case
    fast = prefix_indicators(objectives, genomes, critical, counts,
                             build_reference([objectives, other]), policy)
    batch = oracle_prefix_indicators(objectives, genomes, critical, counts,
                                     oracle_reference([objectives, other]), policy)
    assert repr(fast) == repr(batch)  # bit for bit, signed zeros and NaN included
    assert distinct_critical(genomes, policy) == oracle_distinct(genomes, policy)


def test_prefix_scores_are_reused_while_the_front_stands(monkeypatch):
    import sasbt.indicators as ind

    objectives = np.array([[3.0, 0.0], [2.0, 1.0], [2.0, 1.0], [0.0, 3.0], [4.0, 4.0]])
    ref = build_reference([objectives])
    sizes, scored = [], []
    mask, hv = ind.non_dominated_mask, ind.hypervolume
    monkeypatch.setattr(ind, "non_dominated_mask",
                        lambda pts: (sizes.append(len(pts)), mask(pts))[1])
    monkeypatch.setattr(ind, "hypervolume",
                        lambda pts, point: (scored.append(len(pts)), hv(pts, point))[1])
    rows = prefix_indicators(objectives, np.zeros((5, 1)), np.ones(5, dtype=bool),
                             [2, 5, 2, 4, 9], ref)
    assert [row["distinct_critical"] for row in rows] == [1, 1, 1, 1, 1]
    assert rows[0] == rows[2] and rows[1] == rows[3] == rows[4]
    # count 2 filters 2 rows; count 4 the 2-row front and rows 2..3; count 5
    # the 4-row front (with its copy) and row 4, which is dominated, so the
    # front stands and is not rescored; count 9 is past the archive
    assert scored == [2, 4]
    assert sizes == [2, 2, 4, 4, 5]  # hypervolume filters what it scores
