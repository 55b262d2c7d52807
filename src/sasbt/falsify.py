"""Approximation-refinement falsification of black-box systems.

The loop runs a handful of real simulations, fits a cheap ARX surrogate on
everything observed so far, hunts for a requirement violation on the
surrogate (simulated annealing by default), then confirms the single best
candidate on the real system.  Only real simulations count against the
falsification budget; a trial succeeds the moment a real run has negative
robustness.

Also provides the parametric input-signal encoding shared by every system
under test, two built-in benchmark systems, a pure-random baseline, and the
FR / mean / median trial statistics table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .arx import ArxConfig, ArxModel, fit_arx, simulate_arx
from .search import SearchSpace, lhs_sample
from .stl import Formula, robustness

# ---------- input signals ----------


@dataclass(frozen=True)
class SignalParam:
    """Parametric input-signal description; `interpolation` gives the shape
    ("constant" segments or "linear" between nodes)."""

    control_points: int = 5
    interpolation: str = "constant"
    lower: float | tuple[float, ...] = 0.0
    upper: float | tuple[float, ...] = 1.0
    horizon: float = 50.0
    period: float = 1.0
    channels: int = 1

    def validate(self) -> None:
        if self.control_points < 1:
            raise ValueError("control_points must be >= 1")
        if self.interpolation not in ("constant", "linear"):
            raise ValueError(f"unknown interpolation: {self.interpolation!r}")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.period <= 0 or self.horizon <= 0:
            raise ValueError("period and horizon must be positive")
        n = self.horizon / self.period
        if abs(n - round(n)) > 1e-9:
            raise ValueError("horizon must be a multiple of the sample period")
        lo, hi = self._bounds()
        if np.any(lo >= hi):
            raise ValueError("amplitude bounds must satisfy lower < upper")

    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.broadcast_to(np.asarray(self.lower, dtype=float), (self.channels,))
        hi = np.broadcast_to(np.asarray(self.upper, dtype=float), (self.channels,))
        return lo, hi

    @property
    def n_samples(self) -> int:
        return int(round(self.horizon / self.period)) + 1

    @property
    def dim(self) -> int:
        return self.control_points * self.channels

    def theta_space(self) -> SearchSpace:
        """Box over the flattened control-point vector."""
        self.validate()
        lo, hi = self._bounds()
        return SearchSpace(np.tile(lo, self.control_points),
                           np.tile(hi, self.control_points))


def build_signal(param: SignalParam, theta) -> np.ndarray:
    """Expand a control-point vector to the sampled input signal.

    Returns (n_samples,) for one channel, else (n_samples, channels).
    `param` must already be valid (`SignalParam.validate`): this runs once
    per real or surrogate simulation and does not check it again.
    """
    th = np.asarray(theta, dtype=float).reshape(param.control_points, param.channels)
    times = np.arange(param.n_samples) * param.period
    if param.interpolation == "constant" or param.control_points == 1:
        seg = np.minimum(
            (times * param.control_points / param.horizon + 1e-9).astype(int),
            param.control_points - 1)
        out = th[seg]
    else:
        nodes = np.linspace(0.0, param.horizon, param.control_points)
        out = np.column_stack([np.interp(times, nodes, th[:, c])
                               for c in range(param.channels)])
    return out[:, 0] if param.channels == 1 else out


# ---------- benchmark systems ----------

TANK_DT = 1.0
TANK_OUTFLOW = 0.4
TANK_LEVEL0 = 0.0
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
        from scipy.signal import lfilter
        return lfilter([0.0, 1.0, 0.3], [1.0, -0.5, -0.2], u)
    if name == "tank":
        y = np.empty_like(u)
        x = TANK_LEVEL0
        for k in range(u.size):
            y[k] = x
            x = x + TANK_DT * (u[k] - TANK_OUTFLOW * math.sqrt(max(x, 0.0)))
        return y
    raise ValueError(f"unknown benchmark system: {name!r}")


# ---------- optimizers over the surrogate ----------


def anneal_minimize(fun: Callable[[np.ndarray], float], space: SearchSpace,
                    budget: int, rng: np.random.Generator, *,
                    init: np.ndarray | None = None, t0: float = 1.0,
                    cooling: float = 0.95, step_scale: float = 0.1,
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
    temp = t0
    sigma = step_scale * (space.upper - space.lower)
    while evals < budget:
        cand = space.clip(x + rng.normal(0.0, 1.0, space.dim) * sigma)
        fc = fun(cand)
        evals += 1
        delta = fc - fx
        if delta < 0.0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            x, fx = cand, fc
        if fc < best_f:
            best_x, best_f = cand, fc
        temp *= cooling
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


OPTIMIZERS: dict[str, Callable] = {
    "anneal": anneal_minimize,
    "random": random_minimize,
}


# ---------- the approximation-refinement loop ----------


@dataclass
class RoundLog:
    """One real simulation: round 0 rows are the initial dataset (no
    surrogate yet), later rows carry the surrogate diagnostics."""

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
            optimizer: str = "anneal",
            n_initial: int = 2, seed: int = 0) -> FalsifyResult:
    """Surrogate-guided falsification of `requirement` on `sut`.

    The initial dataset is `n_initial` Latin-Hypercube input signals run on
    the real system (each counts against `real_budget`; the trial ends early
    if one already violates).  Every refinement round refits the ARX
    surrogate on all real data, minimizes surrogate robustness with at most
    `surrogate_budget` surrogate simulations, then confirms the single best
    candidate with one real simulation.  `optimizer` names an entry of
    `OPTIMIZERS`.

    Returns:
        FalsifyResult; `falsified` is decided only by real robustness < 0
        and `falsifying_input` always re-simulates to a violation.
    """
    signal.validate()
    if real_budget < 1:
        raise ValueError("real_budget must be >= 1")
    if n_initial < 1:
        raise ValueError("n_initial must be >= 1")
    opt = OPTIMIZERS[optimizer]
    rng = np.random.default_rng(seed)
    space = signal.theta_space()

    us: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    rounds: list[RoundLog] = []
    real = 0
    best_rho = np.inf
    best_theta: np.ndarray | None = None

    # initial dataset, checked one by one so an immediate violation stops
    for theta in lhs_sample(space, n_initial, rng):
        if real >= real_budget:
            break
        u = build_signal(signal, theta)
        y = sut(u)
        real += 1
        rho = robustness(requirement, y, signal.period)
        us.append(u)
        ys.append(y)
        rounds.append(RoundLog(0, None, None, rho))
        if rho < best_rho:
            best_rho, best_theta = rho, theta
        if rho < 0.0:
            return FalsifyResult(True, real, theta, u, rounds)

    round_idx = 0
    while real < real_budget:
        round_idx += 1
        model = fit_arx(us, ys, arx)

        def surrogate_rho(theta: np.ndarray, _m: ArxModel = model) -> float:
            y_hat = simulate_arx(_m, build_signal(signal, theta))
            return robustness(requirement, y_hat, signal.period)

        cand, cand_rho, _ = opt(surrogate_rho, space, surrogate_budget, rng,
                                init=best_theta)
        u = build_signal(signal, cand)
        y = sut(u)
        real += 1
        rho = robustness(requirement, y, signal.period)
        us.append(u)
        ys.append(y)
        rounds.append(RoundLog(round_idx, model.residual_rms, float(cand_rho), rho))
        if rho < best_rho:
            best_rho, best_theta = rho, cand
        if rho < 0.0:
            return FalsifyResult(True, real, cand, u, rounds)
    return FalsifyResult(False, real, None, None, rounds)


def random_baseline(sut: Callable[[np.ndarray], np.ndarray], requirement: Formula,
                    signal: SignalParam, *, real_budget: int = 300,
                    seed: int = 0) -> FalsifyResult:
    """Pure random sampling at equal real budget: every real simulation is
    an independent uniform draw, with no surrogate in the loop."""
    signal.validate()
    if real_budget < 1:
        raise ValueError("real_budget must be >= 1")
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
