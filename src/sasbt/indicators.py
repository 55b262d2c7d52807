"""Quality indicators for sets of objective vectors.

All indicators assume minimization in every objective.  Hypervolume is exact
only (2-D sweep, 3-D slice sweep); higher dimensions raise instead of
silently approximating.  Normalization maps objectives into the unit box so
indicator values are comparable across runs; `prefix_indicators` is the one
path that scores archive prefixes against a shared `Reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .search import non_dominated_mask


# ---------- dominance filtering ----------


def non_dominated_filter(points: np.ndarray) -> np.ndarray:
    """Return the maximal non-dominated subset, preserving input order."""
    pts = np.asarray(points, dtype=float)
    return pts[non_dominated_mask(pts)]


# ---------- hypervolume ----------


def hypervolume(front: np.ndarray, reference: np.ndarray) -> float:
    """Exact hypervolume dominated by `front` up to `reference`.

    Args:
        front: (N, m) objective vectors, m in {2, 3}, minimization.
        reference: point weakly dominated by every front member.

    Returns:
        Lebesgue measure of the union of boxes [point, reference].

    Raises:
        ValueError: on m > 3 (exact computation only), empty front, or a
            front point beyond the reference in any objective.
    """
    pts = np.asarray(front, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("front must be a non-empty 2-D array")
    m = pts.shape[1]
    if ref.shape != (m,):
        raise ValueError("reference dimension mismatch")
    if m not in (2, 3):
        raise ValueError(f"hypervolume supports m in {{2, 3}}, got m={m}")
    if np.any(pts > ref):
        bad = int(np.argmax(np.any(pts > ref, axis=1)))
        raise ValueError(f"front point {pts[bad]} lies beyond the reference {ref}")
    pts = pts[non_dominated_mask(pts)]
    if m == 2:
        return _hv2(pts, ref)
    return _hv3(pts, ref)


def _hv2(pts: np.ndarray, ref: np.ndarray) -> float:
    # the distinct rows sorted by f1, then f2 (np.unique(pts, axis=0)'s rows,
    # without its structured-dtype sort); of a filtered front that makes f2
    # strictly descending, and each point owns the strip up to the next
    # point's f1
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[distinct]
    xs = np.append(pts[1:, 0], ref[0])
    return float(np.sum((xs - pts[:, 0]) * (ref[1] - pts[:, 1])))


def _hv3(pts: np.ndarray, ref: np.ndarray) -> float:
    levels = np.unique(pts[:, 2])
    total = 0.0
    for i, z in enumerate(levels):
        upper = levels[i + 1] if i + 1 < levels.size else ref[2]
        active = pts[pts[:, 2] <= z, :2]
        total += _hv2(active[non_dominated_mask(active)], ref[:2]) * (upper - z)
    return float(total)


# ---------- distance-based indicators ----------


def generational_distance(front: np.ndarray, reference_front: np.ndarray) -> float:
    """Mean Euclidean distance from each front point to its nearest
    reference-front point (0 when the front is a subset of the reference)."""
    f = np.asarray(front, dtype=float)
    r = np.asarray(reference_front, dtype=float)
    if f.ndim != 2 or f.shape[0] == 0:
        raise ValueError("front must be a non-empty 2-D array")
    if r.ndim != 2 or r.shape[0] == 0:
        raise ValueError("reference front must be a non-empty 2-D array")
    diffs = f[:, None, :] - r[None, :, :]
    d = np.sqrt(np.sum(diffs * diffs, axis=2))
    return float(np.mean(np.min(d, axis=1)))


def spread(front: np.ndarray, extremes: np.ndarray) -> float:
    """Deb's spread (Delta) for two objectives.

    Delta = (d_f + d_l + sum_i |d_i - mean|) / (d_f + d_l + (N-1) * mean)
    where d_i are consecutive Euclidean gaps along the front sorted by the
    first objective and d_f, d_l are the distances from the given reference
    extremes to the first and last front point.

    Args:
        front: (N, 2) objective vectors.
        extremes: (2, 2) array; row 0 pairs with the low-f1 end of the
            front, row 1 with the high-f1 end.

    Returns:
        Delta >= 0; a single-point front returns 1.0 by convention.
    """
    f = np.asarray(front, dtype=float)
    ext = np.asarray(extremes, dtype=float)
    if f.ndim != 2 or f.shape[1] != 2:
        raise ValueError("spread is defined for two objectives only")
    if ext.shape != (2, 2):
        raise ValueError("extremes must be a (2, 2) array")
    if f.shape[0] == 0:
        raise ValueError("front must be non-empty")
    order = np.lexsort((f[:, 1], f[:, 0]))
    f = f[order]
    d_f = float(np.linalg.norm(ext[0] - f[0]))
    d_l = float(np.linalg.norm(ext[1] - f[-1]))
    if f.shape[0] == 1:
        return 1.0
    gaps = np.linalg.norm(np.diff(f, axis=0), axis=1)
    mean = float(np.mean(gaps))
    denom = d_f + d_l + (gaps.size) * mean
    if denom == 0.0:  # fully collapsed front sitting on both extremes
        return 0.0
    return float((d_f + d_l + np.sum(np.abs(gaps - mean))) / denom)


def normalize(points: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Affine map of each objective into [0, 1], clamping overshoot.

    Args:
        points: (N, m) objective vectors.
        bounds: (m, 2) per-objective (low, high); high must exceed low.
    """
    pts = np.asarray(points, dtype=float)
    b = np.asarray(bounds, dtype=float)
    if b.shape != (pts.shape[1], 2):
        raise ValueError("bounds must be (m, 2)")
    span = b[:, 1] - b[:, 0]
    if np.any(span <= 0):
        bad = int(np.argmax(span <= 0))
        raise ValueError(f"zero or negative range for objective {bad}")
    return np.clip((pts - b[:, 0]) / span, 0.0, 1.0)


# ---------- distinct critical scenarios ----------


@dataclass(frozen=True)
class DistinctnessPolicy:
    """How to count two critical genomes as the same scenario.

    mode "any-difference": exact unique genome vectors.
    mode "thresholded": a greedy maximal subset in evaluation order where
    every accepted pair differs in at least `min_vars` variables, each by
    more than `epsilon`.
    """

    mode: str = "any-difference"
    min_vars: int = 1
    epsilon: float = 0.0

    def validate(self) -> None:
        if self.mode not in ("any-difference", "thresholded"):
            raise ValueError(f"unknown distinctness mode: {self.mode!r}")
        if self.min_vars < 1:
            raise ValueError("min_vars must be >= 1")
        if not self.epsilon >= 0:  # NaN fails too
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")


def distinct_critical(genomes: np.ndarray,
                      policy: DistinctnessPolicy = DistinctnessPolicy()) -> int:
    """Count distinct critical scenarios among the given genomes."""
    return int(np.count_nonzero(_new_scenarios(genomes, policy)))


def _new_scenarios(genomes: np.ndarray, policy: DistinctnessPolicy) -> np.ndarray:
    """Per row, whether it is a scenario distinct from every row before it;
    the running sum counts the distinct scenarios of every prefix."""
    policy.validate()
    g = np.asarray(genomes, dtype=float)
    new = np.zeros(len(g), dtype=bool)
    if g.size == 0:
        return new
    if g.ndim != 2:
        raise ValueError("genomes must be a 2-D (N, n) array")
    if policy.mode == "any-difference":
        # groups rows by value (+0.0 equals -0.0, a row holding a NaN is its
        # own group); the stable sort behind return_index gives first rows
        new[np.unique(g, axis=0, return_index=True)[1]] = True
        return new
    for i, row in enumerate(g):  # greedy: kept if far from every row kept before
        far = np.abs(row - g[:i][new[:i]]) > policy.epsilon
        new[i] = np.all(np.count_nonzero(far, axis=1) >= policy.min_vars)
    return new


# ---------- archive prefixes against a shared reference ----------


@dataclass
class Reference:
    """What every archive prefix is scored against: per-objective bounds
    over all archives, the distinct points of the normalized non-dominated
    front of their union (a copy never changes a nearest distance), that
    front's low-f1 and high-f1 extremes (two objectives only) and the
    hypervolume reference point 1.01 per objective."""

    bounds: np.ndarray
    front: np.ndarray
    extremes: np.ndarray | None
    point: np.ndarray


def build_reference(objective_sets: list[np.ndarray]) -> Reference:
    """Shared reference over the union of the given (N_i, m) objective sets."""
    allobj = np.vstack(objective_sets)
    m = allobj.shape[1]
    lo = allobj.min(axis=0)
    hi = allobj.max(axis=0)
    hi = np.where(hi - lo <= 0, lo + 1.0, hi)  # guard degenerate ranges
    bounds = np.stack([lo, hi], axis=1)
    front = normalize(np.unique(non_dominated_filter(allobj), axis=0), bounds)
    extremes = None
    if m == 2:
        order = np.lexsort((front[:, 1], front[:, 0]))
        extremes = np.stack([front[order[0]], front[order[-1]]])
    return Reference(bounds=bounds, front=front, extremes=extremes,
                     point=np.full(m, 1.01))


def prefix_indicators(objectives: np.ndarray, genomes: np.ndarray,
                      critical: np.ndarray, counts, ref: Reference,
                      policy: DistinctnessPolicy = DistinctnessPolicy()) -> list[dict]:
    """Score the archive prefix `[:count]` for each count in `counts`.

    The rows of (N, m) `objectives`, (N, n) `genomes` and (N,) boolean
    `critical` are in evaluation order.  Returns one {"hv", "gd", "spread",
    "distinct_critical"} dict per count; hv is nan beyond three objectives
    and spread beyond two.  Counts are visited in ascending order: a
    prefix's front is filtered from the previous front and the rows added
    since, in archive order, which is the front of the whole prefix as
    dominance is transitive.  A front equal to the previous one keeps its
    scores; distinct critical scenarios are counted once over all rows."""
    m = objectives.shape[1]
    normalized = normalize(objectives, ref.bounds)  # elementwise: any rows' values
    crit_rows = np.flatnonzero(critical)
    distinct = np.cumsum(_new_scenarios(genomes[crit_rows], policy)).tolist()
    rows: list[dict] = [{}] * len(counts)
    front, done, scores = np.empty(0, dtype=np.intp), 0, None
    for i in sorted(range(len(counts)), key=counts.__getitem__):
        count = min(counts[i], len(objectives))
        if scores is None or count > done:
            grown = np.concatenate([front, np.arange(done, count)])
            grown = grown[non_dominated_mask(objectives[grown])]
            if scores is None or not np.array_equal(grown, front):
                norm = normalized[grown]
                scores = {
                    "hv": hypervolume(norm, ref.point) if m in (2, 3) else float("nan"),
                    "gd": generational_distance(norm, ref.front),
                    "spread": (spread(norm, ref.extremes)
                               if ref.extremes is not None else float("nan")),
                }
            front, done = grown, count
        k = int(np.searchsorted(crit_rows, count))  # critical rows in the prefix
        rows[i] = {**scores, "distinct_critical": distinct[k - 1] if k else 0}
    return rows
