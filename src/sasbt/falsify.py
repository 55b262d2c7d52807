"""Approximation-refinement falsification of black-box systems.

The loop runs a handful of real simulations, fits a cheap ARX surrogate on
everything observed so far, hunts for a requirement violation on the
surrogate by simulated annealing, then confirms the single best candidate
on the real system.  Only real simulations count against the falsification
budget; a trial succeeds the moment a real run has negative robustness.
Every round, initial sample, surrogate candidate or random draw, ends in
the same real step (`_trial`).  `check_trial` and `check_surrogate`, which
the config layer calls too, check every input, the ARX orders included,
before the first.

The surrogate pays off only if a surrogate call is far cheaper than a real
one, so nothing fixed is rebuilt per call: each trial compiles the
requirement (`stl.compile_requirement`), each signal description its
theta-to-samples expansion (`SignalParam.expand`, which real inputs and
surrogate inputs share), and each round the fitted model's filter
coefficients (`ArxModel.siso_filter`).  A surrogate call then scores a
whole stack of thetas (`surrogate_objective`): one gather (or `np.interp`
per row), one `arx.lfilter` over the stack, which calls scipy's compiled
filter kernel directly (or `np.convolve` per row for a pure FIR surrogate,
`arx_na = 0`) without importing `scipy.signal`, and one compiled robustness
evaluation of the stack as (k, 1, n) one-signal traces: time stays on the
last axis, and a stack only adds leading axes.  The annealer proposes
speculatively, a batch of clipped proposals (`SearchSpace.clip`) per call,
and keeps the exact random stream of a one-proposal-at-a-time walk
(`anneal_minimize`).  Falsification is single-input, single-output.

Also provides the parametric input-signal encoding shared by every system
under test (its grid checked by `search.grid_steps`, as the simulator's
`dt` is), two built-in benchmark systems, a pure-random baseline, and the
FR / mean / median trial statistics table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .arx import ArxConfig, ArxModel, fit_arx, lfilter, siso_rows
from .search import SearchSpace, grid_steps, lhs_sample
from .stl import Formula, compile_requirement, robustness

# ---------- input signals ----------


@dataclass(frozen=True)
class SignalParam:
    """Parametric input-signal description; `interpolation` gives the shape
    ("constant" segments or "linear" between nodes)."""

    control_points: int = 5
    interpolation: str = "constant"
    lower: float = 0.0
    upper: float = 1.0
    horizon: float = 50.0
    period: float = 1.0

    def validate(self) -> None:
        if self.control_points < 1:
            raise ValueError("control_points must be >= 1")
        if self.interpolation not in ("constant", "linear"):
            raise ValueError(f"unknown interpolation: {self.interpolation!r}")
        grid_steps(self.horizon, self.period, "period")
        if not -math.inf < self.lower < self.upper < math.inf:
            raise ValueError("amplitude bounds must be finite with lower < upper, "
                             f"got [{self.lower}, {self.upper}]")

    @property
    def n_samples(self) -> int:
        return grid_steps(self.horizon, self.period, "period") + 1

    @cached_property
    def expand(self) -> Callable[[np.ndarray], np.ndarray]:
        """(..., control_points) thetas -> their (..., n_samples) signals, one
        theta or a stack with leading axes, the sample grid built once per
        (valid) param: a constant signal or a single control point gathers
        each sample's point, a linear one interpolates each theta."""
        times = np.arange(self.n_samples) * self.period
        if self.interpolation == "constant" or self.control_points == 1:
            held = np.minimum((times * self.control_points / self.horizon + 1e-9).astype(int),
                              self.control_points - 1)
            return lambda theta: theta[..., held]
        nodes = np.linspace(0.0, self.horizon, self.control_points)
        return lambda theta: np.array([np.interp(times, nodes, row) for row in theta.reshape(
            -1, nodes.size)]).reshape(theta.shape[:-1] + times.shape)

    def theta_space(self) -> SearchSpace:
        """Box over the control-point vector."""
        self.validate()
        return SearchSpace(np.full(self.control_points, self.lower),
                           np.full(self.control_points, self.upper))


def build_signal(param: SignalParam, theta) -> np.ndarray:
    """Expand a control-point vector to the sampled (n_samples,) input
    signal; a vector of the wrong length raises `ValueError`.

    `param` must already be valid (`SignalParam.validate`): this runs once
    per real simulation and does not check it again.  It shape-checks theta
    for `SignalParam.expand`, which the surrogate objective calls directly.
    """
    return param.expand(np.asarray(theta, dtype=float).reshape(param.control_points))


# ---------- benchmark systems ----------

TANK_DT = 1.0
TANK_OUTFLOW = 0.4
TANK_LEVEL0 = 0.0
LTI2_FILTER = (np.array([0.0, 1.0, 0.3]), np.array([1.0, -0.5, -0.2]))  # (num, den)
BENCHMARK_SYSTEMS = ("lti2", "tank")  # the names benchmark_sut knows


def benchmark_sut(name: str, u) -> np.ndarray:
    """Built-in single-input single-output systems.

    "lti2": stable second-order linear system
        y[k] = 0.5 y[k-1] + 0.2 y[k-2] + 1.0 u[k-1] + 0.3 u[k-2]
    "tank": water-tank level with square-root outflow (Euler step)
        x[k+1] = x[k] + dt * (u[k] - c * sqrt(max(x[k], 0)))
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("benchmark systems are single-input (1-D signal)")
    if name == "lti2":
        return lfilter(*LTI2_FILTER, u)
    if name == "tank":
        y = np.empty_like(u)
        x = TANK_LEVEL0
        for k in range(u.size):
            y[k] = x
            x = x + TANK_DT * (u[k] - TANK_OUTFLOW * math.sqrt(max(x, 0.0)))
        return y
    raise ValueError(f"unknown benchmark system: {name!r}")


# ---------- optimizers over the surrogate ----------

ANNEAL_T0 = 1.0  # initial temperature
ANNEAL_COOLING = 0.95  # temperature factor per proposal
ANNEAL_STEP = 0.1  # proposal standard deviation, as a fraction of the box extent
# proposals scored per objective call: the first batch, then doubled after a
# batch the walk finished and halved after one an improvement cut short
ANNEAL_BATCH_START = 16
ANNEAL_BATCH_MIN = 2
ANNEAL_BATCH_MAX = 64


def anneal_minimize(fun: Callable[[np.ndarray], np.ndarray], space: SearchSpace,
                    budget: int, rng: np.random.Generator, *,
                    init: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, float, int]:
    """Simulated annealing: geometric cooling, Gaussian proposals scaled to
    the box extent, clamped to bounds.  `fun` scores a (k, dim) stack of
    points row by row, returning (k,) values.  Returns (best x, best f,
    evals); evals counts the start point and the proposals walked.

    The walk is the one-proposal-at-a-time loop: each step draws a normal,
    then a uniform only when the proposal is not better (`not delta < 0`),
    and accepts it when better or when that uniform is below
    exp(-delta / temp).  Proposals are scored speculatively in batches:
    a batch draws the next steps' (normal, uniform) pairs as that loop would
    if every proposal were worse, and scores them in one call.  A worse
    proposal's uniform is then the true one; if it is accepted and moves x,
    the batch's later proposals are rebuilt from the new x with the same
    normals and scored again.  A better proposal drew no uniform, so it ends
    the batch: the generator is rewound to the batch start and replays the
    draws the loop made.  The result and the generator's final state equal
    the sequential loop's; discarded proposals are scored but not counted.

    A normal is `rng.standard_normal(dim)`: it reads the same words as the
    loop's `rng.normal(0.0, 1.0, dim)` and leaves the same state, and
    differs only where the ziggurat returns -0.0, to which `normal` adds
    0.0.  The step is then -0.0 instead of 0.0, which changes x + step only
    where x is -0.0 too.  A uniform start is never -0.0, and a sum is -0.0
    only when both terms are, so x is -0.0 only from a -0.0 in `init` or
    from the clip at a bound of -0.0.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    space.check_finite()  # the start draw and `sigma` both need a bounded box
    if init is not None:
        x = space.clip(np.asarray(init, dtype=float))
    else:
        x = rng.uniform(space.lower, space.upper)
    fx = fun(x[None]).tolist()[0]
    evals = 1
    best_x, best_f = x, fx
    temp = ANNEAL_T0
    sigma = ANNEAL_STEP * (space.upper - space.lower)
    dim = space.dim
    bit_generator = rng.bit_generator
    size = ANNEAL_BATCH_START
    while evals < budget:
        n = min(size, budget - evals)
        start = bit_generator.state
        normals, uniforms = [], []
        for _ in range(n):
            normals.append(rng.standard_normal(dim))
            uniforms.append(rng.random())
        steps = np.array(normals) * sigma
        cands = space.clip(x + steps)
        values = fun(cands).tolist()
        first = 0  # the step that cands[0] and values[0] belong to
        for i in range(n):
            cand, fc = cands[i - first], values[i - first]
            evals += 1
            delta = fc - fx
            better = delta < 0.0
            if better or uniforms[i] < math.exp(-delta / max(temp, 1e-12)):
                if not better and i + 1 < n and cand.tobytes() != x.tobytes():
                    first = i + 1  # x moves: re-propose the rest from it
                    cands = space.clip(cand + steps[first:])
                    values = fun(cands).tolist()
                x, fx = cand, fc
            if fc < best_f:
                best_x, best_f = cand, fc
            temp *= ANNEAL_COOLING
            if better:  # no uniform was drawn here: rewind, replay the draws
                bit_generator.state = start
                for _ in range(i):
                    rng.standard_normal(dim)
                    rng.random()
                rng.standard_normal(dim)
                size = max(size // 2, ANNEAL_BATCH_MIN)
                break
        else:
            size = min(size * 2, ANNEAL_BATCH_MAX)
    return best_x, best_f, evals


def random_minimize(fun: Callable[[np.ndarray], float], space: SearchSpace,
                    budget: int, rng: np.random.Generator, *,
                    init: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, float, int]:
    """Uniform random search baseline, called like `anneal_minimize` and
    returning the same result, except that `fun` scores one point (not a
    (k, dim) stack) and `init` is ignored."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    space.check_finite()
    best_x, best_f = None, np.inf
    for _ in range(budget):
        x = rng.uniform(space.lower, space.upper)
        fx = fun(x)
        if fx < best_f:
            best_x, best_f = x, fx
    return best_x, best_f, budget


# `falsify` calls `anneal_minimize` itself; perfbench/ traces through this table
OPTIMIZERS: dict[str, Callable] = {
    "anneal": anneal_minimize,
    "random": random_minimize,
}


# ---------- the approximation-refinement loop ----------


def check_trial(requirement: Formula, signal: SignalParam,
                real_budget: int) -> Callable[[np.ndarray], np.ndarray]:
    """Check a trial's inputs before any simulation, in the words of the
    config keys; returns the requirement compiled for `signal.n_samples`."""
    signal.validate()
    if real_budget < 1:
        raise ValueError("falsify.real_budget must be >= 1")
    try:
        return compile_requirement(requirement, signal.period, signal.n_samples)
    except ValueError as exc:
        raise ValueError(f"falsify.requirement: {exc} (a signal of {signal.n_samples} "
                         f"samples at period {signal.period:g})") from exc


def check_surrogate(signal: SignalParam, surrogate_budget: int, arx: ArxConfig,
                    n_initial: int) -> None:
    """Check the surrogate settings for a `check_trial`-valid `signal`: the
    first fit, on `n_initial` real traces, needs a row per coefficient."""
    if surrogate_budget < 1:
        raise ValueError("falsify.surrogate_budget must be >= 1")
    if n_initial < 1:
        raise ValueError("falsify.n_initial must be >= 1")
    arx.validate()
    na, nb, nk = arx.na, arx.nb, arx.nk
    rows = n_initial * siso_rows(arx, signal.n_samples)
    if rows < na + nb:
        raise ValueError(
            f"falsify.arx_na/arx_nb/arx_nk = {na}/{nb}/{nk} leave {rows} "
            f"regression rows in falsify.n_initial = {n_initial} traces of "
            f"{signal.n_samples} samples, fewer than the {na + nb} coefficients")


def surrogate_objective(model: ArxModel, rho: Callable[[np.ndarray], np.ndarray],
                        signal: SignalParam) -> Callable[[np.ndarray], np.ndarray]:
    """(k, dim) thetas -> the (k,) robustness of the surrogate's free-run
    responses to the inputs they encode (one theta -> a 0-d array).  Each
    value is bit-identical to `robustness(requirement, simulate_arx(model,
    build_signal(signal, theta)), signal.period)` for `rho =
    compile_requirement(requirement, signal.period, signal.n_samples)`:
    thetas are expanded by `SignalParam.expand`, as `build_signal` expands
    them, and the responses are filtered by `arx.lfilter`, the same helper
    `simulate_arx` uses, with the filter built once per model, then scored
    as (1, n_samples) one-signal traces."""
    num, den = model.siso_filter()
    expand = signal.expand
    return lambda theta: rho(lfilter(num, den, expand(theta))[..., None, :])


@dataclass
class RoundLog:
    """One real simulation.  `round` is 0 for `falsify`'s initial samples and k
    for its k-th surrogate round; `random_baseline` numbers its draws 0, 1, 2, ..."""

    round: int
    surrogate_residual: float | None
    best_surrogate_robustness: float | None
    real_robustness: float


@dataclass
class FalsifyResult:
    """A trial is its round log: it stops at its first negative real
    robustness, so it is falsified exactly when the last logged one is."""

    rounds: list[RoundLog]
    falsifying_theta: np.ndarray | None = None
    falsifying_input: np.ndarray | None = None

    falsified = property(lambda self: bool(self.rounds)
                         and self.rounds[-1].real_robustness < 0.0)
    real_simulations = property(lambda self: len(self.rounds))


def _trial(sut, requirement: Formula, signal: SignalParam, real_budget: int,
           propose: Callable[..., tuple]) -> FalsifyResult:
    """Both methods' one trial loop: `propose(k, us, ys, best_theta)`, given the
    real inputs, outputs and best theta so far, returns round k's theta and its
    `RoundLog` diagnostics; then the real step, logged, until robustness < 0."""
    us, ys, rounds = [], [], []  # real inputs, real outputs, one RoundLog each
    best_rho, best_theta = np.inf, None
    for k in range(real_budget):
        theta, *diagnostics = propose(k, us, ys, best_theta)
        u = build_signal(signal, theta)
        y = sut(u)
        rho = robustness(requirement, y, signal.period)
        us.append(u)
        ys.append(y)
        rounds.append(RoundLog(*diagnostics, rho))
        if rho < best_rho:
            best_rho, best_theta = rho, theta
        if rho < 0.0:
            return FalsifyResult(rounds, theta, u)
    return FalsifyResult(rounds)


def falsify(sut: Callable[[np.ndarray], np.ndarray], requirement: Formula,
            signal: SignalParam, *, real_budget: int = 300,
            surrogate_budget: int = 300, arx: ArxConfig = ArxConfig(),
            n_initial: int = 2, seed: int = 0) -> FalsifyResult:
    """Surrogate-guided falsification of `requirement` on `sut`.

    Each round spends one real simulation, and the trial ends at the first
    negative real robustness.  Round 0 runs the `n_initial` Latin-Hypercube
    input signals drawn up front; every later round refits the ARX surrogate
    on all real data, minimizes surrogate robustness by simulated annealing
    (`anneal_minimize`) over `surrogate_budget` annealing steps, the start
    point included, and confirms the single best candidate on the real
    system.  Speculative proposals that the walk discards are scored on the
    surrogate too, so a round makes somewhat more surrogate simulations
    than `surrogate_budget`.

    The requirement and the sample grid are compiled once per trial, before
    any simulation, and the surrogate's filter once per round (see
    `surrogate_objective`).  Real outputs are scored by `robustness`, which
    checks the trace the system returns.

    Raises:
        ValueError: invalid signal, a requirement the sampled output cannot
            be scored against, budgets or `n_initial` below 1, or ARX orders
            the `n_initial` traces cannot fit; all before the first simulation.

    Returns:
        FalsifyResult; `falsified` is decided only by real robustness < 0
        and `falsifying_input` always re-simulates to a violation.
    """
    compiled_rho = check_trial(requirement, signal, real_budget)
    check_surrogate(signal, surrogate_budget, arx, n_initial)
    rng = np.random.default_rng(seed)
    space = signal.theta_space()
    initial = lhs_sample(space, n_initial, rng)

    def propose(k, us, ys, best_theta):
        if k < n_initial:
            return initial[k], 0, None, None
        model = fit_arx(us, ys, arx)
        theta, cand_rho, _ = anneal_minimize(
            surrogate_objective(model, compiled_rho, signal),
            space, surrogate_budget, rng, init=best_theta)
        return theta, k - n_initial + 1, model.residual_rms, float(cand_rho)

    return _trial(sut, requirement, signal, real_budget, propose)


def random_baseline(sut: Callable[[np.ndarray], np.ndarray], requirement: Formula,
                    signal: SignalParam, *, real_budget: int = 300,
                    seed: int = 0) -> FalsifyResult:
    """Pure random sampling at equal real budget: every real simulation is
    an independent uniform draw, with no surrogate in the loop, so only
    `check_trial` checks its inputs (before any simulation)."""
    check_trial(requirement, signal, real_budget)
    rng = np.random.default_rng(seed)
    space = signal.theta_space()
    return _trial(sut, requirement, signal, real_budget, lambda k, us, ys, best_theta: (
        rng.uniform(space.lower, space.upper), k, None, None))


# ---------- trial statistics ----------


@dataclass(frozen=True)
class FalsificationStats:
    fr: int  # number of successful trials
    mean_sims: float | None  # over successful trials; None when fr == 0
    median_sims: float | None


def falsification_stats(results: Sequence[FalsifyResult]) -> FalsificationStats:
    sims = [r.real_simulations for r in results if r.falsified]
    if not sims:
        return FalsificationStats(0, None, None)
    return FalsificationStats(len(sims), float(np.mean(sims)), float(np.median(sims)))


def _fmt_stat(v: float | None) -> str:
    return "-" if v is None else f"{v:g}"


def format_stats_row(name: str, stats: FalsificationStats) -> str:
    """One CSV row of the requirement,FR,mean,median table."""
    return ",".join([name, str(stats.fr), _fmt_stat(stats.mean_sims),
                     _fmt_stat(stats.median_sims)])

