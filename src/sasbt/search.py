"""Multi-objective evolutionary search core.

Implements the NSGA-II machinery used by both the plain scenario search and
the decision-tree-guided variant: Latin Hypercube initialization,
non-dominated sorting, crowding distance, binary tournament selection,
simulated binary crossover (SBX) and polynomial mutation, plus an append-only
archive of every real evaluation made during a run.  Two-objective
dominance is decided in one place, a sweep over the (f1, f2) order (Jensen
2003) that numbers every front: `non_dominated_mask` is its front 0, and
`non_dominated_sort` and `rank_and_crowding` use all of its ranks.  For any
other number of objectives the mask compares blocks of rows with all rows,
and the fronts are peeled with it.  `rank_and_crowding` computes the
crowding of all fronts at once, through the routine that
`crowding_distance` runs on one front.  The archive is the only record of
an evaluation: a population is a list of archive row indices, and a genome
or objective vector is read from the archive when it is needed.  `evolve`
breeds each generation in one pass on Python floats and records it as one
archive block.

All randomness flows through a single :class:`numpy.random.Generator` seeded
from the config, so identical configs reproduce identical archives bit for
bit; `evolve` reads the generator's values from a replay of its words.
Objectives are always minimized; callers that want to maximize a
quantity negate it in their evaluator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Evaluator = Callable[[np.ndarray], tuple[Sequence[float], bool]]
"""Maps a genome to (objective vector, criticality flag). Must be pure."""

MAX_SAMPLES = 10 ** 7  # largest time grid a `SimConfig` or `SignalParam` may ask for
MASK_BLOCK = 64  # rows `non_dominated_mask` compares with all rows at once (m != 2)


def grid_steps(horizon: float, step: float, name: str) -> int:
    """Steps of `step` in `horizon`, the time-grid rule of `SimConfig` ("dt")
    and `SignalParam` ("period"): both > 0 (a NaN fails the multiple check),
    a whole number >= 1 of steps to 1e-9 * max(1, horizon), <= MAX_SAMPLES samples."""
    for key, value in ((name, step), ("horizon", horizon)):
        if value <= 0:
            raise ValueError(f"{key} must be positive")
    steps = horizon / step
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or abs(n * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not a multiple of {name} {step}")
    if n + 1 > MAX_SAMPLES:
        raise ValueError(f"horizon {horizon} / {name} {step} asks for more "
                         f"than {MAX_SAMPLES} samples")
    return n


# ---------- search space ----------


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box of real-valued decision variables."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower/upper must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            bad = int(np.argmin(hi - lo))
            raise ValueError(f"empty range in dimension {bad}: [{lo[bad]}, {hi[bad]}]")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def check_finite(self) -> None:
        """Raise unless every dimension is bounded, as sampling the box needs."""
        finite = np.isfinite(self.lower) & np.isfinite(self.upper)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValueError(f"cannot sample the unbounded dimension {bad}: "
                             f"[{self.lower[bad]}, {self.upper[bad]}]")

    def clip(self, x: np.ndarray) -> np.ndarray:
        # np.clip's bits (signed zeros, NaN) without its Python wrapper's cost
        return np.minimum(np.maximum(x, self.lower), self.upper)


@dataclass
class SearchConfig:
    """Knobs for one NSGA-II run."""

    population: int = 40
    generations: int = 24
    crossover_prob: float = 0.6
    crossover_index: float = 15.0
    mutation_prob: float | None = None  # default 1/n, filled at run time
    mutation_index: float = 20.0
    seed: int = 0

    def validate(self) -> None:
        if self.population < 2 or self.population % 2:
            raise ValueError(f"population must be even and >= 2, got {self.population}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError(f"crossover_prob outside [0, 1]: {self.crossover_prob}")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob outside [0, 1]: {self.mutation_prob}")
        for name in ("crossover_index", "mutation_index"):
            if not getattr(self, name) >= 0:  # NaN fails too
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


# ---------- archive ----------


class EvaluationArchive:
    """Append-only log of every real evaluation.

    Rows are recorded in evaluation order; a row's number (`eval_index` in
    the CSV) is how populations refer to it and the determinism tie-break of
    selection.  The archive is the single source of truth for budget
    accounting and for all post-hoc indicator computation.  `evaluate` is
    the only writer: it records a block of genomes, one row each.  A genome
    whose bytes are already in the archive, or earlier in the block, is not
    re-simulated: its row copies the first such row's result, and still
    counts as a row.

    The rows live in four column arrays (genomes (N, n), objectives (N, m),
    critical (N,), run_ids (N,)) whose capacity at least doubles when a
    block does not fit; the properties are read-only views of the filled
    rows.  A pickled archive is those views alone.
    """

    def __init__(self) -> None:
        self.__setstate__((np.empty((0, 0)), np.empty((0, 0)),
                           np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)))

    def __getstate__(self) -> tuple[np.ndarray, ...]:
        return self.genomes, self.objectives, self.critical, self.run_ids

    def __setstate__(self, columns: tuple[np.ndarray, ...]) -> None:
        self._columns = list(columns)
        self._n = len(columns[3])  # full: the next append reallocates
        self.first_row: dict[bytes, int] = {}
        for row, genome in enumerate(columns[0]):
            self.first_row.setdefault(genome.tobytes(), row)

    def _view(self, column: int) -> np.ndarray:
        view = self._columns[column][:self._n]
        view.flags.writeable = False
        return view

    genomes = property(lambda self: self._view(0))
    objectives = property(lambda self: self._view(1))
    critical = property(lambda self: self._view(2))
    run_ids = property(lambda self: self._view(3))

    def __len__(self) -> int:
        return self._n

    def evaluate(self, genomes: np.ndarray, evaluator: Evaluator, run_id: int) -> list[int]:
        """Append one row per genome of a (k, n) block and return the rows.

        A genome whose bytes are already in the archive, or earlier in the
        block, reuses that first row's result (evaluators are pure), so the
        evaluator runs once per new genome, in row order.  The objective
        width comes from the first result.  Capacity grows, and the genome
        and run-id blocks are written, once per call.
        """
        genomes = np.ascontiguousarray(genomes, dtype=float)
        if genomes.ndim != 2:
            raise ValueError("genomes must be a 2-D (k, n) array")
        start, k = self._n, len(genomes)
        if not k:
            return []
        end = start + k
        blob, width = genomes.tobytes(), genomes.itemsize * genomes.shape[1]
        first_row, fresh = self.first_row, {}
        source, new = [], []  # each row's first row; block positions of new genomes
        for i in range(k):
            key = blob[i * width:(i + 1) * width]
            row = first_row.get(key, fresh.get(key))
            if row is None:
                row = fresh[key] = start + i
                new.append(i)
            source.append(row)
        results = [evaluator(genomes[i]) for i in new]
        m = len(results[0][0]) if results else self._columns[1].shape[1]
        self._reserve(end, genomes.shape[1], m)
        genome_col, objs, crit, run_ids = self._columns
        genome_col[start:end] = genomes
        run_ids[start:end] = run_id
        if results:
            rows = np.add(new, start)
            objs[rows] = [objectives for objectives, _ in results]
            crit[rows] = [critical for _, critical in results]
        objs[start:end] = objs[source]  # a repeat copies its first row, already written
        crit[start:end] = crit[source]
        first_row.update(fresh)
        self._n = end
        return list(range(start, end))

    def _reserve(self, rows: int, n: int, m: int) -> None:
        # capacity for `rows` rows of n genes and m objectives: at least
        # double the old capacity, and 64 at first
        size = len(self._columns[3])
        if rows <= size:
            return
        size = max(2 * size, rows, 64)
        grown = [np.empty((size, *shape), col.dtype)
                 for col, shape in zip(self._columns, ((n,), (m,), (), ()))]
        if self._n:
            for new, old in zip(grown, self._columns):
                new[:self._n] = old[:self._n]
        self._columns = grown

    def to_csv(self, path) -> None:
        """Write rows as run_id,eval_index,g0..,o0..,critical."""
        n, m = (self.genomes.shape[1], self.objectives.shape[1]) if len(self) else (0, 0)
        header = (["run_id", "eval_index"] + [f"g{i}" for i in range(n)]
                  + [f"o{j}" for j in range(m)] + ["critical"])
        row = "{},{}," + "{!r}," * (n + m) + "{:d}\n"  # repr(float): shortest round trip
        values = np.hstack([self.genomes, self.objectives]).tolist()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(row.format(run_id, idx, *vals, crit) for idx, (run_id, vals, crit)
                          in enumerate(zip(self.run_ids.tolist(), values,
                                           self.critical.tolist())))

    @classmethod
    def from_csv(cls, path) -> "EvaluationArchive":
        """Read a `to_csv` file; a row whose field count differs from the
        header's (a truncated file) raises `ValueError`."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = []
            for lineno, line in enumerate(fh, 2):
                parts = line.strip().split(",")
                if parts == [""]:
                    continue
                if len(parts) != len(header):
                    raise ValueError(f"{path} line {lineno}: {len(parts)} fields, "
                                     f"the header has {len(header)}")
                rows.append(parts)

        def floats(prefix: str) -> np.ndarray:
            cols = [i for i, c in enumerate(header) if c.startswith(prefix)]
            return np.array([[float(p[i]) for i in cols] for p in rows]).reshape(
                len(rows), len(cols))

        archive = cls.__new__(cls)
        archive.__setstate__((floats("g"), floats("o"),
                              np.array([p[-1] == "1" for p in rows], dtype=bool),
                              np.array([int(p[0]) for p in rows], dtype=np.int64)))
        return archive


# ---------- sampling ----------


def lhs_sample(space: SearchSpace, k: int,
               seed: int | np.random.Generator = 0) -> np.ndarray:
    """Latin Hypercube sample of k points inside the space.

    Each dimension is split into k equal strata; every stratum receives
    exactly one point, placed uniformly at random within it.

    Args:
        space: box to sample.
        k: number of samples, >= 1.
        seed: integer seed or an existing Generator to draw from.

    Returns:
        (k, dim) array of samples.

    Raises:
        ValueError: k < 1, or a dimension with an infinite bound.
    """
    if k < 1:
        raise ValueError(f"sample count must be >= 1, got {k}")
    space.check_finite()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out = np.empty((k, space.dim))
    for d in range(space.dim):
        strata = rng.permutation(k)
        jitter = rng.random(k)
        unit = (strata + jitter) / k
        out[:, d] = space.lower[d] + unit * (space.upper[d] - space.lower[d])
    return out


# ---------- dominance machinery ----------


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Pareto dominance for minimization: a <= b everywhere, < somewhere."""
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of the maximal non-dominated subset.

    A point is kept unless some other point is <= in every objective and <
    in at least one.  Exact duplicates never dominate each other, so every
    copy of a non-dominated point is kept; a NaN compares false, so a point
    with a NaN objective is never dominated (as in `dominates`).  For two
    objectives this is front 0 of the sweep that ranks every front.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D (N, m) array")
    n, m = pts.shape
    if m == 2:
        return _sweep_ranks_2d(pts) == 0
    # a block of rows against every row at once: (B, N, m) comparisons
    mask = np.empty(n, dtype=bool)
    for start in range(0, n, MASK_BLOCK):
        block = pts[start:start + MASK_BLOCK, None, :]
        dominated = (pts <= block).all(axis=2) & (pts < block).any(axis=2)
        mask[start:start + MASK_BLOCK] = ~dominated.any(axis=1)
    return mask


def non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Partition points into fronts F0, F1, ... by repeated non-domination:
    in one sweep for two objectives, otherwise by peeling with the mask.

    Args:
        objectives: (N, m) objective matrix, minimization.

    Returns:
        List of ascending index arrays; fronts partition range(N), and each
        front is the non-dominated subset of the points not in an earlier one.
    """
    return _fronts(_ranks(objectives))


def _ranks(objectives: np.ndarray) -> np.ndarray:
    # every row's front number: the sweep for two objectives, else the peel
    objs = np.asarray(objectives, dtype=float)
    if objs.ndim != 2:
        raise ValueError("objectives must be a 2-D (N, m) array")
    if objs.shape[1] == 2:
        return _sweep_ranks_2d(objs)
    rank = np.empty(len(objs), dtype=int)
    remaining, r = np.arange(len(objs)), 0
    while remaining.size:
        mask = non_dominated_mask(objs[remaining])
        rank[remaining[mask]] = r
        remaining, r = remaining[~mask], r + 1
    return rank


def _fronts(rank: np.ndarray) -> list[np.ndarray]:
    # ascending row indices per front number
    if not rank.size:
        return []
    return np.split(np.argsort(rank, kind="stable"), np.cumsum(np.bincount(rank))[:-1])


def _sweep_ranks_2d(pts: np.ndarray) -> np.ndarray:
    # Jensen's sweep for two objectives: in (f1, f2) order every dominator of
    # a point comes before it, and a point's front is the first whose
    # smallest f2 so far (`last`, ascending along the fronts) exceeds its f2;
    # a front whose smallest f2 ties it holds a smaller f1, so it dominates,
    # unless that point is an exact duplicate, which joins its twin's front.
    # A row with a NaN is never dominated and dominates nothing (as in
    # `dominates`), so it stays in front 0 and out of the sweep
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    rank = np.zeros(len(pts), dtype=int)
    last: list[float] = []
    prev = None
    for i, f1, f2 in zip(order.tolist(), pts[order, 0].tolist(), pts[order, 1].tolist()):
        if f1 != f1 or f2 != f2:
            continue
        if (f1, f2) != prev:
            r = bisect.bisect_right(last, f2)
            last[r:r + 1] = [f2]
            prev = (f1, f2)
        rank[i] = r
    return rank


def _crowding(objs: np.ndarray, rank: np.ndarray) -> np.ndarray:
    # every front at once: per objective, sort by (front, value), ties by
    # row as a stable per-front sort has them; each front's two ends get
    # inf, and its interior the neighbours' gap over the front's span
    n, m = objs.shape
    dist = np.zeros(n)
    for j in range(m):
        order = np.lexsort((objs[:, j], rank))
        f, r = objs[order, j], rank[order]
        ends = np.ones(n + 1, dtype=bool)
        ends[1:-1] = r[1:] != r[:-1]
        first, last = ends[:-1], ends[1:]
        front = np.cumsum(first) - 1
        span = (f[last] - f[first])[front]
        dist[order[first | last]] = np.inf
        inner = np.flatnonzero(~(first | last | (span <= 0.0)))
        dist[order[inner]] += (f[inner + 1] - f[inner - 1]) / span[inner]
    return dist


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distance within one front (boundary points get +inf).

    For every objective the front is sorted; interior points accumulate the
    normalized gap between their neighbours, and objectives with zero range
    contribute nothing.
    """
    objs = np.asarray(objectives, dtype=float)
    return _crowding(objs, np.zeros(len(objs), dtype=int))


def rank_and_crowding(objectives: np.ndarray,
                      ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Fronts of an (N, m) objective matrix, with every position's rank
    (front number) and crowding distance within its front."""
    objs = np.asarray(objectives, dtype=float)
    rank = _ranks(objs)
    return _fronts(rank), rank, _crowding(objs, rank)


def environmental_selection(fronts: list[np.ndarray], crowding: np.ndarray,
                            rows: Sequence[int], n: int) -> list[int]:
    """Positions of the n survivors: whole fronts in rank order, boundary
    front by descending crowding (ties by ascending archive row)."""
    chosen: list[int] = []
    for front in fronts:
        if len(chosen) + len(front) <= n:
            chosen.extend(front)
        else:
            front = sorted(front, key=lambda i: (-crowding[i], rows[i]))
            chosen.extend(front[: n - len(chosen)])
            break
    return chosen


def _tournament(rng: np.random.Generator, rows: Sequence[int],
                rank: Sequence[int], crowding: Sequence[float]) -> int:
    """Population position of the winner of one binary tournament: lower
    rank, then larger crowding, then lower archive row."""
    i = rng.integers(len(rows))
    j = rng.integers(len(rows))
    if rank[i] != rank[j]:
        wins = rank[i] < rank[j]
    elif crowding[i] != crowding[j]:
        wins = crowding[i] > crowding[j]
    else:
        wins = rows[i] < rows[j]
    return i if wins else j


# ---------- the generator's stream ----------

REPLAY_BLOCK = 256  # words fetched from the bit generator at a time


class _StreamReplay:
    """`random()` and `integers(n)` (1 <= n <= 2**32) of a PCG64
    `numpy.random.Generator`, replayed bit for bit from its 64-bit words.

    A double is a word's top 53 bits times 2**-53.  An integer below n is
    numpy's Lemire draw (arXiv:1805.10941) on 32-bit halves: a word gives its
    low half first and keeps the high half for the next 32-bit draw.
    Doubles leave that half alone, and the generator's state (`has_uint32`,
    `uinteger`) hands over one left by earlier draws, such as `permutation`'s.
    Words are fetched a block at a time with `random_raw`, so the generator
    ends up ahead of the draws replayed: replay only a generator that is not
    drawn from directly again.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        self._raw = bit_generator.random_raw
        self._words: list[int] = []  # the block's unread words, next one last

    def _word(self) -> int:
        if not self._words:
            self._words = self._raw(REPLAY_BLOCK)[::-1].tolist()
        return self._words.pop()

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def _uint32(self) -> int:
        half = self._half
        if half is None:
            word = self._word()
            half, self._half = word & 0xFFFFFFFF, word >> 32
        else:
            self._half = None
        return half

    def integers(self, n: int) -> int:
        if n == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:  # only then can it fall below the threshold
            threshold = 2 ** 32 % n  # rejecting below it leaves no bias
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * n
        return m >> 32


# ---------- variation operators ----------


def _sbx_pair(rng: np.random.Generator, p1: list[float], p2: list[float],
              prob: float, index: float) -> tuple[list[float], list[float]]:
    c1, c2 = p1.copy(), p2.copy()
    if rng.random() > prob:
        return c1, c2
    exponent = 1.0 / (index + 1.0)
    for d, (x1, x2) in enumerate(zip(p1, p2)):
        if rng.random() > 0.5:
            continue
        if abs(x1 - x2) < 1e-14:
            continue
        u = rng.random()
        if u <= 0.5:
            beta = (2.0 * u) ** exponent
        else:
            beta = (1.0 / (2.0 * (1.0 - u))) ** exponent
        c1[d] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)
        c2[d] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)
    return c1, c2


def _polynomial_mutation(rng: np.random.Generator, x: list[float], width: list[float],
                         prob: float, index: float) -> list[float]:
    # width: the box's upper - lower per dimension
    y = x.copy()
    exponent = 1.0 / (index + 1.0)
    for d, span in enumerate(width):
        if rng.random() > prob:
            continue
        u = rng.random()
        if u < 0.5:
            delta = (2.0 * u) ** exponent - 1.0
        else:
            delta = 1.0 - (2.0 * (1.0 - u)) ** exponent
        y[d] = x[d] + delta * span
    return y


# ---------- main loop ----------


def evolve(space: SearchSpace, config: SearchConfig, evaluator: Evaluator, *,
           seeds: Sequence[int] = (),
           archive: EvaluationArchive | None = None,
           run_id: int = 0) -> tuple[list[int], EvaluationArchive]:
    """Run one NSGA-II search and log every evaluation.

    A population is a list of archive rows.  The initial population is
    `seeds` (rows of `archive` already evaluated, e.g. members inside a
    region), reused without re-simulation and topped up by Latin Hypercube
    samples.  Each generation appends exactly `population` offspring, so a
    run appends (population - len(seeds)) + population x generations archive
    rows; the evaluator runs only for genomes not yet in the archive.

    A generation is one pass: tournaments, SBX and polynomial mutation
    breed all offspring on Python floats, drawing from a replay of the
    generator's words (`_StreamReplay`); the (population, dim) block is
    clipped once and recorded with one `archive.evaluate`.  The draws, and
    so the archive, are those of a loop that draws from the generator and
    evaluates offspring one at a time.

    Args:
        space: decision-variable box; offspring are clamped into it.
        config: NSGA-II parameters; `mutation_prob` defaults to 1/dim.
        evaluator: pure map genome -> (objectives, critical).
        seeds: at most `population` rows of `archive` for generation 0.
        archive: optional shared archive to append into (created if None).
        run_id: tag recorded with every appended row.

    Returns:
        (archive rows of the final population, archive).
    """
    config.validate()
    if archive is None:
        archive = EvaluationArchive()
    if len(seeds) > config.population:
        raise ValueError("more seeds than population slots")
    if any(not 0 <= row < len(archive) for row in seeds):
        raise ValueError("seeds must be rows of the archive")
    rng = np.random.default_rng(config.seed)
    pm = config.mutation_prob if config.mutation_prob is not None else 1.0 / space.dim

    population = [int(row) for row in seeds]
    n_new = config.population - len(population)
    if n_new > 0:
        population += archive.evaluate(lhs_sample(space, n_new, rng), evaluator, run_id)
    _, rank, crowding = rank_and_crowding(archive.objectives[population])

    # every later draw comes from a replay of the generator's words, which
    # reads ahead of them: harmless, as `rng` is private to this call and
    # dropped when it returns
    draws = _StreamReplay(rng)
    width = (space.upper - space.lower).tolist()
    for _ in range(config.generations):
        parents = archive.genomes[population].tolist()
        ranks, crowds = rank.tolist(), crowding.tolist()
        children: list[list[float]] = []
        while len(children) < config.population:
            a = _tournament(draws, population, ranks, crowds)
            b = _tournament(draws, population, ranks, crowds)
            for child in _sbx_pair(draws, parents[a], parents[b],
                                   config.crossover_prob, config.crossover_index):
                children.append(_polynomial_mutation(draws, child, width, pm,
                                                     config.mutation_index))
        offspring = archive.evaluate(space.clip(np.array(children)), evaluator, run_id)
        merged = population + offspring
        fronts, rank, crowding = rank_and_crowding(archive.objectives[merged])
        # survivors keep the rank and crowding they have in the merged population
        keep = environmental_selection(fronts, crowding, merged, config.population)
        population = [merged[i] for i in keep]
        rank, crowding = rank[keep], crowding[keep]
    return population, archive
