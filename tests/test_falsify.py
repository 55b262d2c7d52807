"""Tests for signal encoding, benchmark systems, optimizers and the
surrogate-guided falsification loop."""

import importlib
import math

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt.arx import ArxConfig, fit_arx, simulate_arx
from sasbt.falsify import (
    ANNEAL_COOLING,
    ANNEAL_STEP,
    ANNEAL_T0,
    FalsificationStats,
    FalsifyResult,
    RoundLog,
    SignalParam,
    anneal_minimize,
    benchmark_sut,
    build_signal,
    falsification_stats,
    falsify,
    format_stats_row,
    random_baseline,
    random_minimize,
    surrogate_objective,
)
from sasbt.search import SearchSpace
from sasbt.stl import compile_requirement, parse_requirement, robustness

# the module; the package attribute `sasbt.falsify` is the function
FALSIFY_MODULE = importlib.import_module("sasbt.falsify")
SHORT = SignalParam(control_points=3, lower=0.0, upper=2.0, horizon=10.0, period=1.0)


# ---------- input-signal encoding ----------


def test_constant_signal_is_a_staircase() -> None:
    p = SignalParam(control_points=5, interpolation="constant",
                    lower=0.0, upper=10.0, horizon=50.0, period=1.0)
    u = build_signal(p, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert u.shape == (51,)
    assert np.array_equal(u[0:10], np.full(10, 1.0))
    assert u[10] == 2.0  # each segment is horizon / control_points long
    assert np.array_equal(u[40:], np.full(11, 5.0))  # last segment absorbs t = horizon


def test_linear_signal_interpolates_between_nodes() -> None:
    p = SignalParam(control_points=5, interpolation="linear",
                    lower=0.0, upper=10.0, horizon=50.0, period=1.0)
    theta = [0.0, 10.0, 0.0, 10.0, 0.0]
    u = build_signal(p, theta)
    nodes = np.linspace(0.0, 50.0, 5)
    assert np.allclose(u, np.interp(np.arange(51.0), nodes, theta))
    assert u[0] == 0.0 and np.isclose(u[6], 10.0 * 6 / 12.5)


def test_signal_layout_and_theta_space() -> None:
    p = SignalParam(control_points=2, lower=-1.0, upper=1.0, horizon=4.0, period=0.5)
    u = build_signal(p, [0.1, -0.5])
    assert u.shape == (p.n_samples,) == (9,)
    assert np.array_equal(u, [0.1] * 4 + [-0.5] * 5)  # two 2 s segments
    space = p.theta_space()
    assert np.array_equal(space.lower, [-1.0, -1.0])
    assert np.array_equal(space.upper, [1.0, 1.0])
    with pytest.raises(ValueError, match="lower < upper"):
        SignalParam(control_points=2, lower=1.0, upper=1.0).theta_space()
    for lower, upper in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite with lower < upper"):
            SignalParam(lower=lower, upper=upper).validate()


def test_single_control_point_is_constant() -> None:
    p = SignalParam(control_points=1, interpolation="linear",
                    lower=0.0, upper=5.0, horizon=10.0, period=1.0)
    assert np.array_equal(build_signal(p, [3.0]), np.full(11, 3.0))


def test_two_dimensional_traces_and_wrong_length_theta_are_rejected() -> None:
    # falsification is single-input single-output: a column trace is an error
    u = np.ones(20)
    with pytest.raises(ValueError, match="1-D"):
        fit_arx(u[:, None], u[:, None], ArxConfig(na=1, nb=1, nk=0))
    with pytest.raises(ValueError, match="1-D"):
        fit_arx([u, u[:, None]], [u, u], ArxConfig(na=1, nb=1, nk=0))
    model = fit_arx(u, u, ArxConfig(na=1, nb=1, nk=0))
    with pytest.raises(ValueError, match="1-D"):
        simulate_arx(model, u[:, None])
    for theta in ([1.0, 2.0], [1.0] * 4, np.ones((3, 2))):
        with pytest.raises(ValueError):
            build_signal(SHORT, theta)


def test_signal_param_validation() -> None:
    good = dict(control_points=3, lower=0.0, upper=1.0, horizon=10.0, period=1.0)
    SignalParam(**good).validate()
    for bad in (
        dict(good, control_points=0),
        dict(good, interpolation="cubic"),
        dict(good, period=0.0),
        dict(good, horizon=10.5),  # not a multiple of the period
        dict(good, lower=2.0),  # lower >= upper
    ):
        with pytest.raises(ValueError):
            SignalParam(**bad).validate()


# ---------- benchmark systems ----------


def test_lti2_matches_difference_equation() -> None:
    rng = np.random.default_rng(1)
    u = rng.normal(size=60)
    y = benchmark_sut("lti2", u)
    expect = np.zeros(60)
    for k in range(60):
        acc = 0.0
        if k >= 1:
            acc += 0.5 * expect[k - 1] + 1.0 * u[k - 1]
        if k >= 2:
            acc += 0.2 * expect[k - 2] + 0.3 * u[k - 2]
        expect[k] = acc
    assert np.allclose(y, expect, atol=1e-12)


def test_lti2_steady_state_gain() -> None:
    y = benchmark_sut("lti2", np.ones(400))
    assert math.isclose(y[-1], 1.3 / 0.3, rel_tol=1e-9)  # (1 + 0.3) / (1 - 0.7)


def test_tank_follows_euler_recursion_and_equilibrium() -> None:
    u = np.ones(200)
    y = benchmark_sut("tank", u)
    assert y[0] == 0.0  # level is read before the step
    x = 0.0
    for k in range(5):
        assert y[k] == x
        x = x + 1.0 * (u[k] - 0.4 * math.sqrt(max(x, 0.0)))
    assert math.isclose(y[-1], (1.0 / 0.4) ** 2, rel_tol=1e-6)  # u = c * sqrt(x)


def test_benchmark_rejects_unknown_and_bad_input() -> None:
    with pytest.raises(ValueError, match="unknown benchmark"):
        benchmark_sut("pendulum", np.zeros(4))
    with pytest.raises(ValueError, match="single-input"):
        benchmark_sut("lti2", np.zeros((4, 2)))


# ---------- optimizers ----------


def quadratic(x: np.ndarray) -> float | np.ndarray:
    """One point -> its value; a (k, dim) stack -> the (k,) values."""
    return np.sum((x - 0.3) ** 2, axis=-1)


def sequential_anneal(fun, space: SearchSpace, budget: int, rng: np.random.Generator,
                      init: np.ndarray | None = None) -> tuple[np.ndarray, float, int]:
    """The reference annealer: the loop that scored one proposal per call."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    x = space.clip(np.asarray(init, dtype=float)) if init is not None \
        else rng.uniform(space.lower, space.upper)
    fx = fun(x[None])[0]
    evals = 1
    best_x, best_f = x, fx
    temp = ANNEAL_T0
    sigma = ANNEAL_STEP * (space.upper - space.lower)
    dim = space.dim
    while evals < budget:
        cand = space.clip(x + rng.normal(0.0, 1.0, dim) * sigma)
        fc = fun(cand[None])[0]
        evals += 1
        delta = fc - fx
        if delta < 0.0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            x, fx = cand, fc
        if fc < best_f:
            best_x, best_f = cand, fc
        temp *= ANNEAL_COOLING
    return best_x, best_f, evals


def same_anneal(got, rng, expected, ref_rng) -> bool:
    """Equal best x bytes, best f bits, evals and generator state."""
    return (got[0].tobytes() == expected[0].tobytes()
            and np.float64(got[1]).tobytes() == np.float64(expected[1]).tobytes()
            and got[2] == expected[2]
            and rng.bit_generator.state == ref_rng.bit_generator.state)


def test_optimizers_spend_exactly_the_budget_and_stay_in_bounds() -> None:
    space = SearchSpace([-1.0, -1.0], [1.0, 1.0])
    calls = []

    def counted(x: np.ndarray) -> float:
        calls.append(x.copy())
        return quadratic(x)

    _, best_f, evals = random_minimize(counted, space, 40, np.random.default_rng(2))
    assert evals == 40
    assert len(calls) == 40
    for x in calls:
        assert np.all(x >= space.lower - 1e-12) and np.all(x <= space.upper + 1e-12)
    assert best_f == min(quadratic(x) for x in calls)

    # the annealer also scores speculative proposals that its walk discards,
    # so it scores more rows than its budget; the walk is the reference's
    scored, walked = [], []

    def stacked(xs: np.ndarray) -> np.ndarray:
        scored.extend(xs.copy())
        return quadratic(xs)

    rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
    got = anneal_minimize(stacked, space, 40, rng)
    expected = sequential_anneal(lambda xs: walked.extend(xs.copy()) or quadratic(xs),
                                 space, 40, ref_rng)
    assert got[2] == 40 and len(walked) == 40
    for x in scored:
        assert np.all(x >= space.lower - 1e-12) and np.all(x <= space.upper + 1e-12)
    assert {x.tobytes() for x in walked} <= {x.tobytes() for x in scored}
    assert same_anneal(got, rng, expected, ref_rng)
    assert got[1] == min(quadratic(x) for x in walked)


def objective(kind: str, dim: int, center: np.ndarray):
    """A fresh stack objective of the named kind over the box [0, 1]^dim."""
    if kind == "quadratic":
        return lambda xs: np.sum((xs - center) ** 2, axis=-1)
    if kind == "plateau":  # exact ties wherever floor(3x) agrees
        return lambda xs: np.floor(3.0 * xs).sum(axis=-1)
    if kind == "corner":  # minimum at the upper corner, where clipping ties
        return lambda xs: -np.sum(xs, axis=-1)
    if kind == "nan":  # NaN of both signs on part of the box
        def partly_nan(xs):
            q = np.sum((xs - center) ** 2, axis=-1)
            return np.where(xs[:, 0] > 0.7, np.nan, np.where(xs[:, 0] < 0.2, -np.nan, q))
        return partly_nan
    if kind == "all-nan":
        return lambda xs: np.full(len(xs), np.nan)
    if kind == "constant":  # never improves: every proposal ties and is accepted
        return lambda xs: np.zeros(len(xs))
    calls = []  # "improving": each call scores lower than the one before

    def improving(xs):
        calls.append(None)
        return np.full(len(xs), -float(len(calls)))
    return improving


KINDS = ["quadratic", "plateau", "corner", "nan", "all-nan", "constant", "improving"]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(dim=st.integers(1, 6), budget=st.one_of(st.integers(1, 40), st.integers(41, 400)),
       kind=st.sampled_from(KINDS), batch=st.sampled_from([None, 1, 2, 7, 64]),
       seed=st.integers(0, 2 ** 32 - 1), warm=st.sampled_from([None, "inside", "outside"]))
def test_speculative_annealer_walks_as_the_sequential_loop(dim, budget, kind, batch, seed,
                                                           warm) -> None:
    space = SearchSpace(np.zeros(dim), np.ones(dim))
    center = np.random.default_rng(seed).uniform(-0.2, 1.2, dim)
    init = None if warm is None else center if warm == "outside" else space.clip(center)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # a fixed batch size; None keeps the adaptive one
            for name in ("ANNEAL_BATCH_START", "ANNEAL_BATCH_MIN", "ANNEAL_BATCH_MAX"):
                mp.setattr(FALSIFY_MODULE, name, batch)
        got = anneal_minimize(objective(kind, dim, center), space, budget, rng, init=init)
    expected = sequential_anneal(objective(kind, dim, center), space, budget, ref_rng, init)
    assert same_anneal(got, rng, expected, ref_rng)


def test_annealing_improves_on_random_start_and_accepts_warm_start() -> None:
    space = SearchSpace([-5.0], [5.0])
    rng = np.random.default_rng(3)
    _, cold_f, _ = anneal_minimize(quadratic, space, 200, rng)
    assert cold_f < 0.05
    x, warm_f, _ = anneal_minimize(quadratic, space, 1,
                                   np.random.default_rng(4), init=np.array([0.3]))
    assert warm_f == 0.0 and x[0] == 0.3  # budget 1 just scores the start point


def test_warm_start_outside_bounds_is_clipped() -> None:
    space = SearchSpace([0.0], [1.0])
    x, f, _ = anneal_minimize(quadratic, space, 1, np.random.default_rng(5),
                              init=np.array([7.0]))
    assert x[0] == 1.0 and f == quadratic(np.array([1.0]))


def test_optimizers_reject_non_positive_budget() -> None:
    space = SearchSpace([0.0], [1.0])
    for opt in (anneal_minimize, random_minimize):
        with pytest.raises(ValueError, match="budget"):
            opt(quadratic, space, 0, np.random.default_rng(0))


def test_optimizers_reject_drawing_from_an_unbounded_box() -> None:
    space = SearchSpace([0.0, 0.0], [1.0, np.inf])
    for opt in (anneal_minimize, random_minimize):
        with pytest.raises(ValueError, match="dimension 1"):
            opt(quadratic, space, 5, np.random.default_rng(0))
    # a warm start draws no start point, but its steps scale with the box
    with pytest.raises(ValueError, match="dimension 1"):
        anneal_minimize(quadratic, space, 20, np.random.default_rng(0),
                        init=np.array([0.5, 3.0]))


def test_optimizers_are_deterministic_per_seed() -> None:
    space = SearchSpace([-2.0, -2.0], [2.0, 2.0])
    for opt in (anneal_minimize, random_minimize):
        a = opt(quadratic, space, 50, np.random.default_rng(7))
        b = opt(quadratic, space, 50, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]


# ---------- the compiled surrogate objective ----------


@pytest.mark.parametrize("signal, arx", [
    (SignalParam(control_points=5, upper=2.0, horizon=20.0), ArxConfig(2, 2, 1)),
    (SignalParam(control_points=4, interpolation="linear", upper=2.0, horizon=20.0,
                 period=0.5), ArxConfig(2, 2, 1)),
    (SignalParam(control_points=1, upper=2.0, horizon=20.0), ArxConfig(1, 1, 1)),
    (SignalParam(control_points=1, interpolation="linear", upper=2.0, horizon=20.0),
     ArxConfig(2, 1, 2)),
    (SignalParam(control_points=3, upper=2.0, horizon=20.0), ArxConfig(2, 3, 0)),
    (SignalParam(control_points=3, upper=2.0, horizon=20.0), ArxConfig(2, 0, 0)),
    (SignalParam(control_points=3, upper=2.0, horizon=20.0), ArxConfig(0, 3, 0)),
], ids=["constant", "linear", "one-point", "one-point-linear", "nk0", "nb0", "na0"])
@pytest.mark.parametrize("text", [
    "always[0,15] y0 <= 1.5",
    "eventually[1,4] (y0 >= 0.2 and not always[0,3.5] y0 <= 0.9)",
])
def test_surrogate_objective_matches_the_public_layers_bit_for_bit(
        signal: SignalParam, arx: ArxConfig, text: str) -> None:
    rng = np.random.default_rng(3)
    space = signal.theta_space()
    us = [build_signal(signal, rng.uniform(space.lower, space.upper)) for _ in range(3)]
    model = fit_arx(us, [benchmark_sut("lti2", u) for u in us], arx)
    req = parse_requirement(text)
    rho = compile_requirement(req, signal.period, signal.n_samples)
    traces = []  # every response the objective scores
    objective = surrogate_objective(model, lambda y: traces.append(y) or rho(y), signal)
    num, den = model.siso_filter()
    thetas = [rng.uniform(space.lower, space.upper) for _ in range(500)]
    thetas += [space.lower, space.upper, -0.0 * space.upper]
    for theta in thetas:
        # public scipy here: simulate_arx shares the objective's filter helper;
        # at na = 0 a direct-form filter changes trace bits but rarely rho
        u = build_signal(signal, theta)
        y = scipy.signal.lfilter(num, den, u)
        got = objective(theta)
        assert traces.pop().tobytes() == y.tobytes()
        assert simulate_arx(model, u).tobytes() == y.tobytes()
        expected = robustness(req, y, signal.period)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    # the stack objective: one call scores every theta, each row as alone
    singles = [np.float64(objective(theta)).tobytes() for theta in thetas]
    responses = [traces.pop().tobytes() for _ in thetas][::-1]
    got = objective(np.array(thetas))
    assert got.shape == (len(thetas),)
    assert [value.tobytes() for value in got] == singles
    assert [row.tobytes() for row in traces.pop()] == responses


# ---------- the falsification loop ----------


def test_immediate_violation_stops_after_one_simulation() -> None:
    req = parse_requirement("always[0,10] y0 <= -1")  # tank level is never negative
    res = falsify(lambda u: benchmark_sut("tank", u), req, SHORT, seed=0)
    assert res.falsified
    assert res.real_simulations == 1
    assert len(res.rounds) == 1
    assert res.rounds[0].round == 0
    assert res.rounds[0].surrogate_residual is None
    assert res.rounds[0].best_surrogate_robustness is None
    assert res.rounds[0].real_robustness < 0


def test_unfalsifiable_requirement_exhausts_budget_exactly() -> None:
    req = parse_requirement("always[0,10] y0 <= 1e6")
    res = falsify(lambda u: benchmark_sut("tank", u), req, SHORT,
                  real_budget=7, seed=1)
    assert not res.falsified
    assert res.real_simulations == 7
    assert len(res.rounds) == 7
    assert res.falsifying_theta is None and res.falsifying_input is None
    assert [r.round for r in res.rounds] == [0, 0, 1, 2, 3, 4, 5]
    for row in res.rounds[2:]:
        assert row.surrogate_residual is not None
        assert row.best_surrogate_robustness is not None


def test_success_is_decided_by_the_last_real_robustness() -> None:
    req = parse_requirement("always[0,10] y0 <= 4.0")
    sut = lambda u: benchmark_sut("lti2", u)
    p = SignalParam(control_points=3, lower=0.0, upper=1.5, horizon=10.0, period=1.0)
    for seed in range(5):
        res = falsify(sut, req, p, real_budget=40, seed=seed,
                      arx=ArxConfig(na=2, nb=2, nk=1))
        assert res.falsified == (res.rounds[-1].real_robustness < 0)
        for row in res.rounds[:-1]:
            assert row.real_robustness >= 0  # the loop stops at the first violation
        if res.falsified:
            y = sut(res.falsifying_input)
            assert robustness(req, y, p.period) < 0
            assert np.array_equal(build_signal(p, res.falsifying_theta),
                                  res.falsifying_input)


def test_initial_samples_respect_a_tiny_budget() -> None:
    req = parse_requirement("always[0,10] y0 <= 1e6")
    res = falsify(lambda u: benchmark_sut("tank", u), req, SHORT,
                  real_budget=3, n_initial=5, seed=2)
    assert res.real_simulations == 3
    assert all(r.round == 0 for r in res.rounds)


def test_falsify_never_exceeds_the_real_budget() -> None:
    rng = np.random.default_rng(11)
    for _ in range(15):
        system = ["lti2", "tank"][int(rng.integers(2))]
        bound = float(rng.uniform(0.5, 8.0))
        req = parse_requirement(f"always[0,10] y0 <= {bound}")
        budget = int(rng.integers(1, 9))
        res = falsify(lambda u: benchmark_sut(system, u), req, SHORT,
                      real_budget=budget, n_initial=int(rng.integers(1, 4)),
                      surrogate_budget=30, seed=int(rng.integers(1000)),
                      arx=ArxConfig(na=2, nb=2, nk=1))
        assert res.real_simulations <= budget
        assert len(res.rounds) == res.real_simulations


def test_falsify_is_deterministic_per_seed() -> None:
    req = parse_requirement("always[0,10] y0 <= 4.0")
    kwargs = dict(real_budget=15, surrogate_budget=50, seed=42,
                  arx=ArxConfig(na=2, nb=2, nk=1))
    a = falsify(lambda u: benchmark_sut("lti2", u), req, SHORT, **kwargs)
    b = falsify(lambda u: benchmark_sut("lti2", u), req, SHORT, **kwargs)
    assert a.falsified == b.falsified
    assert a.real_simulations == b.real_simulations
    assert [r.real_robustness for r in a.rounds] == [r.real_robustness for r in b.rounds]


def test_random_baseline_draws_until_violation_or_budget() -> None:
    req = parse_requirement("always[0,10] y0 <= 4.0")
    res = random_baseline(lambda u: benchmark_sut("lti2", u), req,
                          SHORT, real_budget=200, seed=8)
    assert len(res.rounds) == res.real_simulations
    assert res.falsified == (res.rounds[-1].real_robustness < 0)
    assert all(r.surrogate_residual is None for r in res.rounds)
    unfalsifiable = parse_requirement("always[0,10] y0 <= 1e6")
    res2 = random_baseline(lambda u: benchmark_sut("tank", u), unfalsifiable,
                           SHORT, real_budget=5, seed=8)
    assert not res2.falsified and res2.real_simulations == 5


def test_falsify_validates_arguments() -> None:
    req = parse_requirement("always[0,10] y0 <= 1")
    sut = lambda u: benchmark_sut("tank", u)
    with pytest.raises(ValueError, match="real_budget"):
        falsify(sut, req, SHORT, real_budget=0)
    with pytest.raises(ValueError, match="n_initial"):
        falsify(sut, req, SHORT, n_initial=0)
    with pytest.raises(ValueError, match="real_budget"):
        random_baseline(sut, req, SHORT, real_budget=0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(surrogate_budget=0), "surrogate_budget"),
    (dict(arx=ArxConfig(na=-1, nb=2, nk=1)), r"falsify\.arx_na must be >= 0, got -1"),
    (dict(arx=ArxConfig(na=0, nb=0, nk=1)), r"falsify\.arx_na and falsify\.arx_nb are both 0"),
    (dict(arx=ArxConfig(na=2, nb=2, nk=60)),
     r"leave 0 regression rows in falsify\.n_initial = 2 traces of 11 samples, "
     r"fewer than the 4 coefficients"),
], ids=["surrogate-budget-0", "na-negative", "no-coefficients", "nk-60"])
def test_unusable_surrogate_settings_fail_before_any_simulation(kwargs,
                                                                message: str) -> None:
    # each would otherwise spend the n_initial real runs before the first fit
    calls = []
    req = parse_requirement("always[0,10] y0 <= 1e6")
    with pytest.raises(ValueError, match=message):
        falsify(lambda u: calls.append(u) or benchmark_sut("tank", u), req, SHORT,
                real_budget=10, **kwargs)
    assert calls == []


def test_random_baseline_runs_a_signal_too_short_for_a_surrogate() -> None:
    # horizon = period: 2 samples, no regression row under the default orders
    two = SignalParam(control_points=1, horizon=1.0, period=1.0)
    req = parse_requirement("y0 <= 1e6")
    sut = lambda u: benchmark_sut("tank", u)
    res = random_baseline(sut, req, two, real_budget=3)
    assert not res.falsified and res.real_simulations == 3
    with pytest.raises(ValueError, match="leave 0 regression rows"):
        falsify(sut, req, two, real_budget=3)


class CountingSut:
    """lti2 that records every input and raises on call `limit + 1`."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.inputs: list[np.ndarray] = []

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if len(self.inputs) == self.limit:
            raise AssertionError(f"real simulation {self.limit + 1} over the budget")
        self.inputs.append(u.copy())
        return benchmark_sut("lti2", u)


def check_trial_bounds(res: FalsifyResult, sut: CountingSut, signal: SignalParam,
                       real_budget: int) -> None:
    assert len(sut.inputs) == res.real_simulations == len(res.rounds) <= real_budget
    assert res.falsified == (res.rounds[-1].real_robustness < 0)
    assert all(r.real_robustness >= 0 for r in res.rounds[:-1])
    if res.falsified:
        assert np.array_equal(build_signal(signal, res.falsifying_theta),
                              res.falsifying_input)
        assert np.array_equal(sut.inputs[-1], res.falsifying_input)
    else:
        assert len(res.rounds) == real_budget
        assert res.falsifying_theta is None and res.falsifying_input is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(real_budget=st.integers(1, 8), n_initial=st.integers(1, 10),
       surrogate_budget=st.integers(1, 20), na=st.integers(0, 3),
       nb=st.integers(0, 3), nk=st.integers(0, 3),
       interpolation=st.sampled_from(["constant", "linear"]),
       bound=st.floats(0.5, 6.0), seed=st.integers(0, 1000))
def test_falsify_ends_within_its_real_budget(real_budget: int, n_initial: int,
                                             surrogate_budget: int, na: int, nb: int,
                                             nk: int, interpolation: str,
                                             bound: float, seed: int) -> None:
    # every order up to 3 is fittable from one 11-sample trace (at most 6
    # coefficients, at least 6 rows), so only na = nb = 0 is excluded
    if na + nb == 0:
        nb = 1
    signal = SignalParam(control_points=3, interpolation=interpolation,
                         lower=0.0, upper=2.0, horizon=10.0, period=1.0)
    req = parse_requirement(f"always[0,10] y0 <= {bound}")
    sut = CountingSut(real_budget)
    res = falsify(sut, req, signal, real_budget=real_budget, n_initial=n_initial,
                  surrogate_budget=surrogate_budget, arx=ArxConfig(na, nb, nk),
                  seed=seed)
    check_trial_bounds(res, sut, signal, real_budget)
    n_zero = min(n_initial, real_budget)
    labels = [0] * n_zero + list(range(1, real_budget - n_zero + 1))
    assert [r.round for r in res.rounds] == labels[:len(res.rounds)]
    for row in res.rounds:
        assert (row.surrogate_residual is None) == (row.round == 0)
        assert (row.best_surrogate_robustness is None) == (row.round == 0)

    sut = CountingSut(real_budget)
    res = random_baseline(sut, req, signal, real_budget=real_budget, seed=seed)
    check_trial_bounds(res, sut, signal, real_budget)
    assert [r.round for r in res.rounds] == list(range(len(res.rounds)))


@pytest.mark.parametrize("search", [falsify, random_baseline])
@pytest.mark.parametrize("text, signal, message", [
    ("always[0,11] y0 <= 1", SHORT, "horizon"),
    ("always[0,10] y1 <= 1", SHORT, "signal index 1"),
    ("always[0,10] y0 <= 1", SignalParam(control_points=0, horizon=10.0),
     "control_points"),
])
def test_unscorable_trials_fail_before_any_simulation(search, text: str,
                                                     signal: SignalParam,
                                                     message: str) -> None:
    calls = []
    with pytest.raises(ValueError, match=message):
        search(lambda u: calls.append(u), parse_requirement(text), signal)
    assert calls == []


# ---------- trial statistics ----------


def _result(falsified: bool, sims: int) -> FalsifyResult:
    return FalsifyResult([RoundLog(k, None, None, -1.0 if falsified and k == sims - 1 else 1.0)
                          for k in range(sims)])


def test_stats_aggregate_only_successful_trials() -> None:
    stats = falsification_stats(
        [_result(True, 3), _result(True, 6), _result(False, 300), _result(True, 4)])
    assert stats == FalsificationStats(fr=3, mean_sims=13 / 3, median_sims=4.0)


def test_stats_row_formatting_and_parsing() -> None:
    stats = falsification_stats([_result(True, 3), _result(True, 5)])
    row = format_stats_row("lti2: always[0,30] y0 <= 4.0", stats)
    assert row == "lti2: always[0,30] y0 <= 4.0,2,4,4"


def test_stats_row_uses_dashes_when_nothing_falsified() -> None:
    stats = falsification_stats([_result(False, 300)])
    assert stats.mean_sims is None and stats.median_sims is None
    row = format_stats_row("tank: always[0,50] y0 <= 17", stats)
    assert row.endswith(",0,-,-")
