"""Approximation-refinement falsification of black-box systems.

The loop runs a handful of real simulations, fits a cheap ARX surrogate on
everything observed so far, hunts for a requirement violation on the
surrogate by simulated annealing, then confirms the single best candidate
on the real system.  Only real simulations count against the falsification
budget; a trial succeeds the moment a real run has negative robustness.
Every round, initial sample or surrogate candidate, ends in the same real
step, and every input, the ARX orders included, is checked before the first.

The surrogate pays off only if a surrogate call is far cheaper than a real
one, so nothing fixed is rebuilt per call: each trial compiles the
requirement (`stl.compile_requirement`), each signal description its
theta-to-samples expansion (`SignalParam.expand`, which real inputs and
surrogate inputs share), and each round the fitted model's filter
coefficients (`ArxModel.siso_filter`).  A surrogate call is then
one gather (or `np.interp`), one `arx.lfilter`, which calls scipy's
compiled filter kernel directly (or `np.convolve` for a pure FIR surrogate,
`arx_na = 0`) without importing `scipy.signal`, and one compiled robustness
evaluation (`surrogate_objective`).  Each annealing step also clips its
proposal to the box (`SearchSpace.clip`).  Falsification is single-input,
single-output.

Also provides the parametric input-signal encoding shared by every system
under test, two built-in benchmark systems, a pure-random baseline, and the
FR / mean / median trial statistics table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .arx import ArxConfig, ArxModel, fit_arx, lfilter, siso_rows
from .search import SearchSpace, lhs_sample
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
        if self.period <= 0 or self.horizon <= 0:
            raise ValueError("period and horizon must be positive")
        n = self.horizon / self.period
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon must be a multiple of the sample period")
        if self.lower >= self.upper:
            raise ValueError("amplitude bounds must satisfy lower < upper")

    @property
    def n_samples(self) -> int:
        return int(round(self.horizon / self.period)) + 1

    @cached_property
    def expand(self) -> Callable[[np.ndarray], np.ndarray]:
        """theta -> the sampled (n_samples,) signal, with the sample grid
        built once per (valid) param: a constant signal or a single control
        point gathers each sample's point, a linear one interpolates."""
        times = np.arange(self.n_samples) * self.period
        if self.interpolation == "constant" or self.control_points == 1:
            held = np.minimum((times * self.control_points / self.horizon + 1e-9).astype(int),
                              self.control_points - 1)
            return lambda theta: theta[held]
        nodes = np.linspace(0.0, self.horizon, self.control_points)
        return lambda theta: np.interp(times, nodes, theta)

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


def anneal_minimize(fun: Callable[[np.ndarray], float], space: SearchSpace,
                    budget: int, rng: np.random.Generator, *,
                    init: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, float, int]:
    """Simulated annealing: geometric cooling, Gaussian proposals scaled to
    the box extent, clamped to bounds.  Returns (best x, best f, evals)."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    x = space.clip(np.asarray(init, dtype=float)) if init is not None \
        else rng.uniform(space.lower, space.upper)
    fx = fun(x)
    evals = 1
    best_x, best_f = x, fx
    temp = ANNEAL_T0
    sigma = ANNEAL_STEP * (space.upper - space.lower)
    dim = space.dim
    while evals < budget:
        cand = space.clip(x + rng.normal(0.0, 1.0, dim) * sigma)
        fc = fun(cand)
        evals += 1
        delta = fc - fx
        if delta < 0.0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            x, fx = cand, fc
        if fc < best_f:
            best_x, best_f = cand, fc
        temp *= ANNEAL_COOLING
    return best_x, best_f, evals


def random_minimize(fun: Callable[[np.ndarray], float], space: SearchSpace,
                    budget: int, rng: np.random.Generator, *,
                    init: np.ndarray | None = None,
                    ) -> tuple[np.ndarray, float, int]:
    """Uniform random search baseline with the same interface."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
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


def _compile_trial(requirement: Formula, signal: SignalParam,
                   real_budget: int) -> Callable[[np.ndarray], float]:
    """Check a trial's inputs before any simulation; returns the requirement
    compiled for one output signal of `signal.n_samples` samples."""
    signal.validate()
    if real_budget < 1:
        raise ValueError("real_budget must be >= 1")
    return compile_requirement(requirement, signal.period, signal.n_samples)


def surrogate_objective(model: ArxModel, rho: Callable[[np.ndarray], float],
                        signal: SignalParam) -> Callable[[np.ndarray], float]:
    """theta -> robustness of the surrogate's free-run response to the
    input theta encodes.  Bit-identical to `robustness(requirement,
    simulate_arx(model, build_signal(signal, theta)), signal.period)` for
    `rho = compile_requirement(requirement, signal.period,
    signal.n_samples)`: theta is expanded by `SignalParam.expand`, as
    `build_signal` expands it, and the response is filtered by
    `arx.lfilter`, the same helper `simulate_arx` uses, with the filter
    built once per model."""
    num, den = model.siso_filter()
    expand = signal.expand
    return lambda theta: rho(lfilter(num, den, expand(theta)))


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
    falsified: bool
    real_simulations: int
    falsifying_theta: np.ndarray | None
    falsifying_input: np.ndarray | None
    rounds: list[RoundLog]


def falsify(sut: Callable[[np.ndarray], np.ndarray], requirement: Formula,
            signal: SignalParam, *, real_budget: int = 300,
            surrogate_budget: int = 300, arx: ArxConfig | None = None,
            n_initial: int = 2, seed: int = 0) -> FalsifyResult:
    """Surrogate-guided falsification of `requirement` on `sut`.

    Each round spends one real simulation, and the trial ends at the first
    negative real robustness.  Round 0 runs the `n_initial` Latin-Hypercube
    input signals drawn up front; every later round refits the ARX surrogate
    on all real data, minimizes surrogate robustness by simulated annealing
    (`anneal_minimize`) with `surrogate_budget` surrogate simulations, and
    confirms the single best candidate on the real system.

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
    compiled_rho = _compile_trial(requirement, signal, real_budget)
    if n_initial < 1 or surrogate_budget < 1:
        raise ValueError("n_initial and surrogate_budget must be >= 1")
    arx = arx or ArxConfig()
    arx.validate()
    rows = n_initial * siso_rows(arx, signal.n_samples)
    if rows < arx.na + arx.nb:
        raise ValueError(f"n_initial = {n_initial} traces give {rows} regression rows "
                         f"for {arx.na + arx.nb} ARX coefficients")
    rng = np.random.default_rng(seed)
    space = signal.theta_space()
    initial = lhs_sample(space, n_initial, rng)

    us: list[np.ndarray] = []  # the real inputs and outputs the surrogate fits
    ys: list[np.ndarray] = []
    rounds: list[RoundLog] = []
    best_rho, best_theta = np.inf, None
    while len(rounds) < real_budget:
        if len(rounds) < n_initial:
            theta = initial[len(rounds)]
            diagnostics = (0, None, None)
        else:
            model = fit_arx(us, ys, arx)
            theta, cand_rho, _ = anneal_minimize(
                surrogate_objective(model, compiled_rho, signal),
                space, surrogate_budget, rng, init=best_theta)
            diagnostics = (len(rounds) - n_initial + 1, model.residual_rms, float(cand_rho))
        u = build_signal(signal, theta)
        y = sut(u)
        rho = robustness(requirement, y, signal.period)
        us.append(u)
        ys.append(y)
        rounds.append(RoundLog(*diagnostics, rho))
        if rho < best_rho:
            best_rho, best_theta = rho, theta
        if rho < 0.0:
            return FalsifyResult(True, len(rounds), theta, u, rounds)
    return FalsifyResult(False, len(rounds), None, None, rounds)


def random_baseline(sut: Callable[[np.ndarray], np.ndarray], requirement: Formula,
                    signal: SignalParam, *, real_budget: int = 300,
                    seed: int = 0) -> FalsifyResult:
    """Pure random sampling at equal real budget: every real simulation is
    an independent uniform draw, with no surrogate in the loop.  Its inputs
    are checked as `falsify` checks them, before any simulation."""
    _compile_trial(requirement, signal, real_budget)
    rng = np.random.default_rng(seed)
    space = signal.theta_space()
    rounds: list[RoundLog] = []
    for k in range(real_budget):
        theta = rng.uniform(space.lower, space.upper)
        u = build_signal(signal, theta)
        y = sut(u)
        rho = robustness(requirement, y, signal.period)
        rounds.append(RoundLog(k, None, None, rho))
        if rho < 0.0:
            return FalsifyResult(True, k + 1, theta, u, rounds)
    return FalsifyResult(False, real_budget, None, None, rounds)


# ---------- trial statistics ----------


@dataclass(frozen=True)
class FalsificationStats:
    trials: int
    fr: int  # number of successful trials
    mean_sims: float | None  # over successful trials; None when fr == 0
    median_sims: float | None


def falsification_stats(results: Sequence[FalsifyResult]) -> FalsificationStats:
    sims = [r.real_simulations for r in results if r.falsified]
    if not sims:
        return FalsificationStats(len(results), 0, None, None)
    return FalsificationStats(len(results), len(sims),
                              float(np.mean(sims)), float(np.median(sims)))


def _fmt_stat(v: float | None) -> str:
    return "-" if v is None else f"{v:g}"


def format_stats_row(name: str, stats: FalsificationStats) -> str:
    """One CSV row of the requirement,FR,mean,median table."""
    return ",".join([name, str(stats.fr), _fmt_stat(stats.mean_sims),
                     _fmt_stat(stats.median_sims)])


def parse_stats_row(line: str) -> tuple[str, int, float | None, float | None]:
    # split from the right: requirement names may contain commas (window bounds)
    name, fr, mean, median = line.strip().rsplit(",", 3)
    to_val = lambda s: None if s == "-" else float(s)
    return name, int(fr), to_val(mean), to_val(median)
