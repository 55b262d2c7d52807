"""Decision-tree-guided multi-objective scenario search.

Alternates between fitting a CART classifier that separates critical from
non-critical evaluations and running focused NSGA-II searches inside the
tree's critical leaf boxes.  The archive of real evaluations is shared
across all stages and is the budget ledger: the loop never starts a region
run that would push the archive past the real-evaluation budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import indicators
from .search import (EvaluationArchive, Evaluator, SearchConfig, SearchSpace,
                     evolve, lhs_sample, non_dominated_sort)


# ---------- CART ----------


@dataclass
class TreeNode:
    n_total: int
    n_critical: int
    feature: int | None = None  # None marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def critical_fraction(self) -> float:
        return self.n_critical / self.n_total if self.n_total else 0.0


def _best_split(x: np.ndarray, y: np.ndarray,
                min_leaf: int) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold); thresholds are midpoints between
    consecutive distinct sorted feature values.  Ties resolve to the lowest
    feature index, then the lowest threshold (first strict improvement wins).
    """
    n, d = x.shape
    p = float(y.sum()) / n
    parent = 2.0 * p * (1.0 - p) * n  # the node's Gini impurity times its size
    best: tuple[float, int, float] | None = None
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        pos = np.cumsum(ys)
        total_pos = pos[-1]
        # split after position i puts i+1 samples left
        counts = np.arange(1, n)
        left_pos = pos[:-1]
        impurity = (2.0 * left_pos * (counts - left_pos) / counts
                    + 2.0 * (total_pos - left_pos)
                    * ((n - counts) - (total_pos - left_pos)) / (n - counts))
        valid = (xs[1:] > xs[:-1]) & (counts >= min_leaf) & (n - counts >= min_leaf)
        if not np.any(valid):
            continue
        gains = np.where(valid, parent - impurity, -np.inf)
        i = int(np.argmax(gains))  # first max = lowest threshold on ties
        gain = float(gains[i])
        if gain <= 1e-12:
            continue
        thr = 0.5 * (xs[i] + xs[i + 1])
        if best is None or gain > best[0] + 1e-12:
            best = (gain, f, float(thr))
    return best


def fit_tree(x: np.ndarray, y: np.ndarray, max_depth: int = 5,
             min_samples_leaf: int = 5) -> TreeNode:
    """Fit a CART classifier on critical labels with Gini impurity.

    Args:
        x: (N, d) genomes.
        y: (N,) boolean criticality labels.
        max_depth: maximum split depth (root at depth 0).
        min_samples_leaf: minimum samples on each side of a split.

    Returns:
        Root TreeNode; every node records its sample and critical counts.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=bool)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("need a non-empty 2-D sample matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("label length mismatch")
    if max_depth < 0 or min_samples_leaf < 1:
        raise ValueError("invalid tree parameters")

    def build(idx: np.ndarray, depth: int) -> TreeNode:
        node = TreeNode(n_total=int(idx.size), n_critical=int(y[idx].sum()))
        if (depth >= max_depth or idx.size < 2 * min_samples_leaf
                or node.n_critical in (0, node.n_total)):
            return node
        split = _best_split(x[idx], y[idx].astype(float), min_samples_leaf)
        if split is None:
            return node
        _, f, thr = split
        node.feature = f
        node.threshold = thr
        mask = x[idx, f] <= thr
        node.left = build(idx[mask], depth + 1)
        node.right = build(idx[~mask], depth + 1)
        return node

    return build(np.arange(x.shape[0]), 0)


def predict_critical(tree: TreeNode, x: np.ndarray) -> np.ndarray:
    """Majority-label prediction per row (fraction >= 0.5 counts critical)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty(x.shape[0], dtype=bool)
    for i, row in enumerate(x):
        node = tree
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.critical_fraction >= 0.5
    return out


# ---------- region extraction ----------


@dataclass(frozen=True)
class CriticalRegion(SearchSpace):
    """A critical leaf box, searched as it is, with its leaf's counts."""

    n_critical: int
    n_total: int

    @property
    def critical_fraction(self) -> float:
        return self.n_critical / self.n_total if self.n_total else 0.0


def leaf_boxes(tree: TreeNode, space: SearchSpace) -> list[tuple[TreeNode, np.ndarray, np.ndarray]]:
    """All leaves with their boxes (path constraints meet the space box),
    in left-to-right traversal order."""
    out: list[tuple[TreeNode, np.ndarray, np.ndarray]] = []

    def walk(node: TreeNode, lo: np.ndarray, hi: np.ndarray) -> None:
        if node.is_leaf:
            out.append((node, lo, hi))
            return
        hi_l = hi.copy()
        hi_l[node.feature] = min(hi_l[node.feature], node.threshold)
        lo_r = lo.copy()
        lo_r[node.feature] = max(lo_r[node.feature], node.threshold)
        walk(node.left, lo, hi_l)
        walk(node.right, lo_r, hi)

    walk(tree, space.lower.copy(), space.upper.copy())
    return out


def extract_regions(tree: TreeNode, space: SearchSpace,
                    min_fraction: float = 0.5) -> list[CriticalRegion]:
    """Critical leaf boxes: fraction >= min_fraction with >= 1 critical
    member, ordered by descending critical fraction (stable on ties)."""
    regions = [CriticalRegion(lo, hi, leaf.n_critical, leaf.n_total)
               for leaf, lo, hi in leaf_boxes(tree, space)
               if leaf.n_critical >= 1 and leaf.critical_fraction >= min_fraction]
    regions.sort(key=lambda r: -r.critical_fraction)
    return regions


# ---------- guided search loop ----------


@dataclass
class DtConfig:
    """Budgeted tree-guided search parameters."""

    budget: int = 1000  # total real evaluations, hard cap
    initial_lhs: int = 100
    region_threshold: float = 0.5
    max_depth: int = 5
    min_samples_leaf: int = 5
    search: SearchConfig = field(
        default_factory=lambda: SearchConfig(population=20, generations=4))
    seed: int = 0

    def validate(self) -> None:
        if self.initial_lhs < 1:
            raise ValueError("initial_lhs must be >= 1")
        if self.budget < self.initial_lhs:
            raise ValueError(
                f"budget {self.budget} smaller than initial sample {self.initial_lhs}")
        if not 0.0 < self.region_threshold <= 1.0:
            raise ValueError("region_threshold must lie in (0, 1]")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}")
        self.search.validate()
        # a 0-generation run in a box already holding a population of rows
        # appends nothing, so the loop would refit the same tree forever
        if self.search.generations < 1:
            raise ValueError(
                f"dt generations must be >= 1, got {self.search.generations}")


@dataclass
class StageRecord:
    """One budget-consuming stage; checkpoints are archive lengths at the
    initial population and after each generation (a single checkpoint for
    sampling stages).  The rows a stage appends carry its index as run id."""

    kind: str  # "init" | "region" | "global"
    iteration: int
    region_index: int | None
    checkpoints: list[int]


@dataclass
class DtResult:
    archive: EvaluationArchive
    stages: list[StageRecord]
    iterations: list[dict]  # per outer iteration: regions + evaluation spend


def _seed_rows(archive: EvaluationArchive, box: SearchSpace,
               limit: int) -> np.ndarray:
    """Rows of up to `limit` archive members inside the closed box, by
    non-domination rank and then by archive row."""
    genomes = archive.genomes
    inside = np.flatnonzero(np.all((genomes >= box.lower)
                                   & (genomes <= box.upper), axis=1))
    if inside.size == 0:
        return inside
    return inside[np.concatenate(non_dominated_sort(archive.objectives[inside]))[:limit]]


def stage_checkpoints(stages: list[StageRecord]) -> list[tuple[str, int]]:
    """(label, archive length) at every stage checkpoint, in stage order;
    labels read it<iteration>:<kind>[<region index>]:g<generation>."""
    out: list[tuple[str, int]] = []
    for stage in stages:
        label = stage.kind if stage.region_index is None else (
            f"{stage.kind}{stage.region_index:02d}")
        out.extend((f"it{stage.iteration:02d}:{label}:g{g:02d}", count)
                   for g, count in enumerate(stage.checkpoints))
    return out


def self_referenced_snapshots(
        archive: EvaluationArchive, stages: list[StageRecord],
        policy: indicators.DistinctnessPolicy = indicators.DistinctnessPolicy(),
) -> list[dict]:
    """Indicator rows at every stage checkpoint, scored against a reference
    built from the archive alone (its own objective ranges and final
    non-dominated front)."""
    objs = archive.objectives
    checkpoints = stage_checkpoints(stages)
    rows = indicators.prefix_indicators(
        objs, archive.genomes, archive.critical,
        [count for _, count in checkpoints], indicators.build_reference([objs]),
        policy)
    return [{"stage": label, "evaluations": count, **row}
            for (label, count), row in zip(checkpoints, rows)]


def nsga2_dt(space: SearchSpace, evaluator: Evaluator,
             config: DtConfig | None = None) -> DtResult:
    """Tree-guided search under a hard real-evaluation budget.

    One outer iteration: fit a tree on the full archive, extract critical
    regions, and run one focused NSGA-II per region (highest critical
    fraction first), seeding each run with archive members already inside
    the region box (fittest first by dominance rank, then oldest) topped up
    by LHS.  Seeded members are reused without re-simulation.  When no
    region qualifies, one whole-space run seeded the same way keeps the
    optimization moving.  The loop stops at the first run that would
    overshoot the budget.

    Returns:
        DtResult with the shared archive, stage records and per-iteration
        region reports.
    """
    config = config or DtConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    archive = EvaluationArchive()
    stages: list[StageRecord] = []
    iterations: list[dict] = []

    archive.evaluate(lhs_sample(space, config.initial_lhs, rng), evaluator, run_id=0)
    stages.append(StageRecord(kind="init", iteration=0, region_index=None,
                              checkpoints=[len(archive)]))

    pop = config.search.population
    gens = config.search.generations
    iteration = 0
    while True:
        iteration += 1
        tree = fit_tree(archive.genomes, archive.critical,
                        config.max_depth, config.min_samples_leaf)
        regions = extract_regions(tree, space, config.region_threshold)
        report = {"iteration": iteration,
                  "regions": [{"lower": r.lower.tolist(),
                               "upper": r.upper.tolist(),
                               "n_critical": r.n_critical,
                               "n_total": r.n_total,
                               "critical_fraction": r.critical_fraction}
                              for r in regions],
                  "evaluations_before": len(archive),
                  "region_runs": 0}
        iterations.append(report)
        # no leaf qualified: fall back to one whole-space run seeded from
        # the fittest archive members so the budget keeps working
        runs = list(enumerate(regions)) or [(None, space)]
        for r_idx, box in runs:
            seeds = _seed_rows(archive, box, pop)
            first = len(archive) + pop - len(seeds)  # archive length at g00
            if first + pop * gens > config.budget:
                return DtResult(archive=archive, stages=stages,
                                iterations=iterations)
            run_cfg = replace(config.search,
                              seed=int(rng.integers(2 ** 63 - 1)))
            evolve(box, run_cfg, evaluator, seeds=seeds, archive=archive,
                   run_id=len(stages))
            stages.append(StageRecord(
                kind="region" if r_idx is not None else "global",
                iteration=iteration, region_index=r_idx,
                checkpoints=[first + g * pop for g in range(gens + 1)]))
            if r_idx is not None:
                report["region_runs"] += 1
