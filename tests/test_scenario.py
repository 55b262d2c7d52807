"""Simulator checks: exact Euler kinematics in event-free regimes, an
independent sampling oracle for the occlusion geometry, crafted exact-hit
configurations, input validation, and the fitness-only evaluator against
the traced simulation as its oracle."""

import itertools
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sasbt.falsify import SignalParam
from sasbt.scenario import (DEFAULT_INPUT_BOUNDS, EXIT_MARGIN, EXIT_PROBE,
                            FitnessVector, ScenarioInput,
                            SimConfig, SimulationTrace, _segment_crosses_rect,
                            bumper_distances, evaluate_input, fitness,
                            make_evaluator, search_space, simulate,
                            trace_to_csv)

WAITING = ScenarioInput(v0c=5.0, v0p=1.0, t_wait=20.0)  # static all horizon


def wide_bounds(**kw) -> SimConfig:
    """Config with permissive input bounds for crafted cases."""
    return SimConfig(input_bounds=((0.1, 50.0), (0.1, 50.0), (0.0, 50.0)), **kw)


# ---------- trace basics ----------


def test_trace_shape_and_time_grid():
    trace = simulate(ScenarioInput(5.0, 1.0, 2.0))
    assert len(trace) == 1001
    np.testing.assert_allclose(trace.t, np.arange(1001) * 0.01, atol=1e-12)
    assert trace.detected.dtype == np.bool_
    assert (trace.ego_y == 0.0).all()
    assert (trace.ped_x == 23.0).all()


def test_input_bounds_rejected_with_field_name():
    with pytest.raises(ValueError, match="v0c"):
        simulate(ScenarioInput(0.5, 1.0, 2.0))
    with pytest.raises(ValueError, match="v0p"):
        simulate(ScenarioInput(5.0, 99.0, 2.0))
    with pytest.raises(ValueError, match="t_wait"):
        simulate(ScenarioInput(5.0, 1.0, -0.1))


def test_horizon_must_be_multiple_of_dt():
    cfg = replace(SimConfig(), horizon=0.005, dt=0.01)
    with pytest.raises(ValueError, match="horizon"):
        simulate(ScenarioInput(5.0, 1.0, 2.0), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        replace(SimConfig(), dt=-0.01).validate()
    with pytest.raises(ValueError):
        replace(SimConfig(), occluder=(5.0, 2.0, 5.0, 3.0)).validate()
    with pytest.raises(ValueError):
        replace(SimConfig(), sensor_half_angle=2.0).validate()
    for bounds in ((5.0, 1.0), (1.0, 1.0), (math.nan, 12.0), (1.0, math.inf),
                   (-math.inf, 12.0)):
        with pytest.raises(ValueError, match="bounds_v0c must be finite with low < high"):
            replace(SimConfig(), input_bounds=(bounds, *DEFAULT_INPUT_BOUNDS[1:])).validate()
    with pytest.raises(ValueError, match="bounds_t_wait"):
        replace(SimConfig(), input_bounds=(*DEFAULT_INPUT_BOUNDS[:2], (8.0, 0.0))).validate()
    # one (low, high) pair per input: with two, t_wait would go unchecked
    with pytest.raises(ValueError, match="input_bounds needs 3"):
        replace(SimConfig(), input_bounds=DEFAULT_INPUT_BOUNDS[:2]).validate()
    for name in ("ego_width", "comfort_decel", "max_decel", "sensor_range",
                 "corridor_half_width", "brake_margin", "spot_x", "theta1", "theta2"):
        with pytest.raises(ValueError, match=name):
            replace(SimConfig(), **{name: math.nan}).validate()
    for ped_start in ((23.0, math.nan), (math.inf, 4.6), (23.0, math.inf), (23.0, -math.inf)):
        with pytest.raises(ValueError, match="ped_start must not be NaN"):
            replace(SimConfig(), ped_start=ped_start).validate()


@pytest.mark.parametrize("horizon, step, valid", [
    (10, 0.01, True), (0.3, 0.1, True), (10.005, 0.01, False), (1e-10, 1.0, False),
    (math.inf, 1, False), (math.nan, 1, False), (10, 1e-9, False)])
def test_sim_and_signal_grids_follow_one_rule(horizon, step, valid):
    # `sim.dt` and `signal.period` accept and reject the same grids, in the same words
    errors = []
    for check in (SimConfig(horizon=horizon, dt=step).validate,
                  SignalParam(horizon=horizon, period=step).validate):
        try:
            check()
        except ValueError as exc:
            errors.append(str(exc))
    assert len(errors) == (0 if valid else 2)
    assert errors[:1] == [e.replace("period", "dt") for e in errors[1:]]


def test_every_config_field_is_read_by_the_simulator():
    # a field that only validation reads is a knob that changes nothing
    read = set()

    class Recording(SimConfig):
        def validate(self):
            pass

        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    cfg = Recording()
    inp = ScenarioInput(6.0, 1.0, 0.0)  # critical, so both thresholds are read
    fitness(simulate(inp, cfg), cfg)
    evaluate_input(inp, cfg)
    assert {f.name for f in fields(SimConfig)} - read == set()


# ---------- exact kinematics in event-free regimes ----------


def test_constant_speed_when_no_events():
    # spot far away, pedestrian waits out the horizon: v stays v0c exactly
    cfg = wide_bounds(spot_x=1000.0)
    trace = simulate(WAITING, cfg)
    assert (trace.ego_v == 5.0).all()
    np.testing.assert_allclose(trace.ego_x, 5.0 * trace.t, rtol=0, atol=1e-9)
    assert (trace.ped_y == cfg.ped_start[1]).all()


def test_comfort_braking_matches_arithmetic_series():
    # braking active from t=0: v_k = v0 - k*a*dt, x_k = dt * sum of v_0..v_{k-1}
    cfg = wide_bounds(spot_x=1.0, comfort_decel=3.0)
    v0, a, dt = 10.0, 3.0, cfg.dt
    trace = simulate(ScenarioInput(v0, 1.0, 50.0), cfg)
    k = np.arange(len(trace))
    k0 = math.ceil(v0 / (a * dt))  # steps until the speed reaches zero
    v_expect = np.where(k < k0, v0 - k * a * dt, 0.0)
    np.testing.assert_allclose(trace.ego_v, v_expect, atol=1e-9)
    kk = np.minimum(k, k0)
    x_expect = dt * (kk * v0 - a * dt * kk * (kk - 1) / 2.0)
    x_expect = x_expect + (k - kk) * 0.0  # frozen after the stop
    np.testing.assert_allclose(trace.ego_x, x_expect, atol=1e-8)


def test_pedestrian_piecewise_linear():
    trace = simulate(ScenarioInput(5.0, 2.0, 3.0))
    before = trace.t <= 3.0
    assert (trace.ped_y[before] == 4.6).all()
    after = ~before
    np.testing.assert_allclose(trace.ped_y[after],
                               4.6 - 2.0 * (trace.t[after] - 3.0), atol=1e-9)


# ---------- occlusion geometry against a sampling oracle ----------


def sampled_crossing(x1, y1, x2, y2, rect, n=4001) -> bool:
    rx0, ry0, rx1, ry1 = rect
    ts = np.linspace(0.0, 1.0, n)
    xs = x1 + ts * (x2 - x1)
    ys = y1 + ts * (y2 - y1)
    inside = (xs > rx0) & (xs < rx1) & (ys > ry0) & (ys < ry1)
    return bool(inside.any())


def test_segment_rect_crossing_matches_sampling_oracle():
    rng = np.random.default_rng(10)
    agree = 0
    for trial in range(300):
        rect = np.sort(rng.uniform(0, 10, size=(2, 2)), axis=0)
        rect = (rect[0, 0], rect[0, 1], rect[1, 0] + 0.5, rect[1, 1] + 0.5)
        x1, y1, x2, y2 = rng.uniform(-2, 12, size=4)
        got = _segment_crosses_rect(x1, y1, x2, y2, rect)
        want = sampled_crossing(x1, y1, x2, y2, rect)
        assert got == want, f"trial {trial}: {x1, y1, x2, y2} rect {rect}"
        agree += 1
    assert agree == 300


def test_grazing_edge_does_not_count_as_crossing():
    rect = (1.0, 1.0, 3.0, 2.0)
    assert not _segment_crosses_rect(0.0, 1.0, 4.0, 1.0, rect)  # along bottom
    assert not _segment_crosses_rect(3.0, 0.0, 3.0, 5.0, rect)  # along right
    assert not _segment_crosses_rect(0.0, 0.0, 1.0, 1.0, rect)  # corner touch
    assert _segment_crosses_rect(0.0, 1.5, 4.0, 1.5, rect)  # through middle


def test_detection_only_after_emergence_from_occluder():
    # while the pedestrian is above the parked row and the ego is before its
    # end, line of sight is blocked
    wall_top_y = SimConfig().occluder[3]
    wall_end_x = SimConfig().occluder[2]
    for inp in (ScenarioInput(10.0, 2.0, 0.6), ScenarioInput(6.0, 1.0, 1.0),
                ScenarioInput(12.0, 3.0, 0.0)):
        trace = simulate(inp)
        blocked = (trace.ped_y > wall_top_y) & (trace.ego_x < wall_end_x)
        assert not trace.detected[blocked].any()


# ---------- crafted exact outcomes ----------


def test_blind_ego_exact_overlap_gives_zero_f1():
    # dyadic dt and speed make ego_x hit the crossing line exactly while the
    # static pedestrian stands inside the bumper's lateral extent
    cfg = wide_bounds(dt=1 / 128, horizon=10.0, spot_x=1000.0,
                      sensor_range=1e-9, ped_start=(15.0, 0.5))
    trace = simulate(ScenarioInput(4.0, 0.1, 50.0), cfg)
    fv = fitness(trace, cfg)
    assert fv.f1 == 0.0
    assert fv.f2 == 4.0
    assert fv.critical


def test_emergency_brake_stops_short_of_static_pedestrian():
    # unobstructed view, pedestrian inside the corridor: the latch engages at
    # braking-distance + margin, so the ego stops about margin short
    cfg = wide_bounds(spot_x=1000.0, occluder=(900.0, 1.0, 901.0, 2.0),
                      ped_start=(15.0, 0.5), brake_margin=2.0)
    trace = simulate(ScenarioInput(5.0, 0.1, 50.0), cfg)
    fv = fitness(trace, cfg)
    assert trace.ego_v[-1] == 0.0
    assert trace.detected.any()
    assert 1.5 <= fv.f1 <= 2.5
    assert fv.f2 == 0.0
    assert not fv.critical


def test_ego_profile_independent_of_occluder_when_pedestrian_never_crosses():
    # the pedestrian never enters the corridor, so perception feeds nothing
    # back into the dynamics: moving the occluder must not change motion
    cfg_a = wide_bounds()
    cfg_b = wide_bounds(occluder=(2.0, 0.5, 3.0, 0.6))
    ta = simulate(WAITING, cfg_a)
    tb = simulate(WAITING, cfg_b)
    np.testing.assert_array_equal(ta.ego_x, tb.ego_x)
    np.testing.assert_array_equal(ta.ego_v, tb.ego_v)


def test_late_slow_pedestrian_stays_far():
    # waits 8 s then walks at 0.5 m/s: cannot get near the lane in 10 s
    fv = evaluate_input(ScenarioInput(5.0, 0.5, 8.0))
    assert fv.f1 >= 2.0
    assert not fv.critical


# ---------- fitness computation ----------


def _trace_from(ego_x, ego_v, ped_x, ped_y):
    n = len(ego_x)
    return SimulationTrace(
        t=np.arange(n, dtype=float), ego_x=np.asarray(ego_x, dtype=float),
        ego_y=np.zeros(n), ego_v=np.asarray(ego_v, dtype=float),
        ped_x=np.asarray(ped_x, dtype=float), ped_y=np.asarray(ped_y, dtype=float),
        detected=np.zeros(n, dtype=bool))


def test_fitness_lateral_distance_formula():
    # pedestrian abreast of the bumper: lateral slack is |dy| - width/2
    trace = _trace_from([10.0], [3.0], [10.0], [5.0])
    fv = fitness(trace, SimConfig())
    assert fv.f1 == pytest.approx(5.0 - 0.9)
    trace = _trace_from([10.0], [3.0], [14.0], [3.9])
    fv = fitness(trace, SimConfig())
    assert fv.f1 == pytest.approx(math.hypot(4.0, 3.0))


def test_fitness_uses_earliest_minimum():
    # two samples achieve the same minimal distance at different speeds
    trace = _trace_from([10.0, 11.0, 12.0], [7.0, 5.0, 3.0],
                        [11.0, 11.0, 11.0], [0.0, 2.0, 0.9 + 1.0])
    fv = fitness(trace, SimConfig())
    assert fv.f1 == pytest.approx(1.0)
    assert fv.f2 == 7.0  # the k=0 sample, not the equally close k=2 one


def test_bumper_distances_vectorized_matches_scalar():
    rng = np.random.default_rng(11)
    cfg = SimConfig()
    trace = _trace_from(rng.uniform(0, 30, 50), rng.uniform(0, 10, 50),
                        rng.uniform(0, 30, 50), rng.uniform(-2, 6, 50))
    d = bumper_distances(trace, cfg)
    for i in range(50):
        dy = max(abs(trace.ped_y[i]) - 0.9, 0.0)
        assert d[i] == pytest.approx(math.hypot(trace.ped_x[i] - trace.ego_x[i], dy))


# ---------- evaluator plumbing ----------


def test_make_evaluator_negates_speed_objective():
    ev = make_evaluator()
    genome = np.array([10.0, 2.0, 0.6])
    objs, critical = ev(genome)
    fv = evaluate_input(ScenarioInput.from_array(genome))
    assert objs[0] == fv.f1
    assert objs[1] == -fv.f2
    assert critical == fv.critical


def test_search_space_matches_bounds():
    space = search_space()
    np.testing.assert_array_equal(space.lower, [b[0] for b in DEFAULT_INPUT_BOUNDS])
    np.testing.assert_array_equal(space.upper, [b[1] for b in DEFAULT_INPUT_BOUNDS])


def test_simulation_deterministic():
    a = evaluate_input(ScenarioInput(9.5, 2.5, 1.5))
    b = evaluate_input(ScenarioInput(9.5, 2.5, 1.5))
    assert a == b == FitnessVector(f1=a.f1, f2=a.f2, critical=a.critical)


def test_trace_csv(tmp_path):
    trace = simulate(ScenarioInput(5.0, 1.0, 2.0))
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,ego_x,ego_y,ego_v,ped_x,ped_y,detected"
    assert len(lines) == 1 + len(trace)


# ---------- fitness-only evaluator against the traced oracle ----------


def _bits(fv: FitnessVector) -> tuple:
    """f1 and f2 as their IEEE bytes (so 0.0 and -0.0 differ), and the flag."""
    return struct.pack("<d", fv.f1), struct.pack("<d", fv.f2), fv.critical


def assert_matches_oracle(inp: ScenarioInput, cfg: SimConfig) -> SimulationTrace:
    trace = simulate(inp, cfg)
    assert _bits(evaluate_input(inp, cfg)) == _bits(fitness(trace, cfg))
    return trace


def _phases(trace: SimulationTrace, cfg: SimConfig) -> list[str]:
    """Deceleration regimes of a trace while moving, in order (the oracle's
    view of the segments the evaluator must reproduce)."""
    a = (trace.ego_v[:-1] - trace.ego_v[1:]) / cfg.dt
    a = a[trace.ego_v[1:] > 0.0]
    names = np.where(np.isclose(a, 0.0), "cruise",
                     np.where(np.isclose(a, cfg.comfort_decel), "comfort",
                              np.where(np.isclose(a, cfg.max_decel), "emergency", "?")))
    return [name for name, _ in itertools.groupby(names.tolist())]


@st.composite
def sim_configs(draw) -> SimConfig:
    dt = draw(st.sampled_from([0.01, 0.02, 0.05, 0.1, 1 / 128]))
    return SimConfig(
        dt=dt,
        horizon=dt * draw(st.integers(1, 1200)),
        comfort_decel=draw(st.floats(0.5, 8.0)),
        max_decel=draw(st.floats(0.5, 10.0)),
        spot_x=draw(st.floats(0.0, 80.0)),
        brake_margin=draw(st.floats(0.0, 5.0)),
        corridor_half_width=draw(st.floats(0.1, 3.0)),
        sensor_range=draw(st.floats(1.0, 40.0)),
        sensor_half_angle=draw(st.floats(0.05, 1.5)),
        # a pedestrian behind x = 0 puts `evaluate_input`'s exit test at step 1
        ped_start=(draw(st.floats(-10.0, 40.0)), draw(st.floats(-6.0, 6.0))),
        input_bounds=((0.0, 15.0), (0.0, 4.0), (0.0, 10.0)))


def _inputs(cfg: SimConfig):
    return st.builds(ScenarioInput, *(st.floats(lo, hi) for lo, hi in cfg.input_bounds))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_evaluate_input_matches_simulate_on_random_configs(data):
    cfg = data.draw(sim_configs())
    inp = data.draw(_inputs(cfg))
    trace = assert_matches_oracle(inp, cfg)
    _exit_case(inp, cfg, trace)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_inputs(SimConfig()))
def test_evaluate_input_matches_simulate_on_default_config(inp):
    assert_matches_oracle(inp, SimConfig())


def _exit_case(inp: ScenarioInput, cfg: SimConfig, trace: SimulationTrace) -> str:
    """Which way `evaluate_input` ends, read from the oracle's trace: its
    exit test never runs, returns at the provisional horizon, or fails there
    and the run extends to the horizon."""
    n = len(trace) - 1
    px0 = cfg.ped_start[0]
    probe = (px0 + EXIT_PROBE) / inp.v0c / cfg.dt if inp.v0c > 0.0 else math.inf
    if not probe < n:
        return "never"
    k = 1 if probe < 1 else math.ceil(probe)
    d = bumper_distances(trace, cfg)
    closer_later = d[k + 1:].min() < d[:k + 1].min() if k < n else False
    if abs(px0 - trace.ego_x[k]) > d[:k + 1].min() * (1.0 + EXIT_MARGIN):
        assert not closer_later  # the exit is exact: no later sample is closer
        return "exit"
    return "extend"


# (case, input box on the default config): the provisional horizon lies
# within the default 10 s for v0c above (23 + 4) m / 10 s = 2.7 m/s, and a
# pedestrian who crossed long before the ego arrives is farther from it
# than 4 m when the ego passes, so that exit test fails
EXIT_CASES = [
    ("exit", ((4.0, 12.0), (0.5, 3.0), (0.0, 8.0))),
    ("extend", ((3.0, 5.0), (2.5, 3.0), (0.0, 1.0))),
    ("never", ((1.0, 2.6), (0.5, 3.0), (0.0, 8.0))),
]


@pytest.mark.parametrize("case, box", EXIT_CASES, ids=[c for c, _ in EXIT_CASES])
def test_evaluate_input_exit_cases_match_simulate(case, box):
    cfg = SimConfig()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.builds(ScenarioInput, *(st.floats(lo, hi) for lo, hi in box)))
    def check(inp):
        trace = simulate(inp, cfg)
        assume(_exit_case(inp, cfg, trace) == case)
        assert _bits(evaluate_input(inp, cfg)) == _bits(fitness(trace, cfg))

    check()


def test_evaluate_input_runs_on_past_a_stop_short_of_the_pedestrian():
    # the ego has stopped 7.9 m short of the pedestrian by the provisional
    # horizon (step 450), who reaches the bumper's band only at step 870:
    # the minimum lies beyond the first exit test, which must fail
    cfg = wide_bounds(spot_x=15.0)
    inp = ScenarioInput(6.0, 1.0, 5.0)
    trace = assert_matches_oracle(inp, cfg)
    assert _exit_case(inp, cfg, trace) == "extend"
    assert trace.ego_v[450] == 0.0 and trace.ego_x[450] < cfg.ped_start[0]
    assert int(bumper_distances(trace, cfg).argmin()) == 870


def test_evaluate_input_exit_probe_before_step_one():
    # a pedestrian more than EXIT_PROBE m behind x = 0 and a subnormal v0c
    # put the provisional horizon at -inf steps: the test runs at step 1
    cfg = SimConfig(ped_start=(-10.0, 0.0), input_bounds=((0.0, 15.0), (0.0, 4.0), (0.0, 10.0)))
    for v0c in (1e-310, 5e-324, 1e-3, 15.0):
        trace = assert_matches_oracle(ScenarioInput(v0c, 1.0, 0.0), cfg)
        assert _exit_case(ScenarioInput(v0c, 1.0, 0.0), cfg, trace) in ("exit", "extend")


def test_evaluate_input_matches_simulate_at_bound_corners():
    cfg = SimConfig()
    for corner in itertools.product(*cfg.input_bounds):
        assert_matches_oracle(ScenarioInput(*corner), cfg)


def test_evaluate_input_emergency_latch():
    cfg = wide_bounds(spot_x=1000.0, occluder=(900.0, 1.0, 901.0, 2.0),
                      ped_start=(15.0, 0.5), brake_margin=2.0)
    trace = assert_matches_oracle(ScenarioInput(5.0, 0.1, 50.0), cfg)
    assert _phases(trace, cfg) == ["cruise", "emergency"]
    assert trace.ego_v[-1] == 0.0


def test_evaluate_input_comfort_stop_short_of_crossing():
    # Euler steps overshoot the continuous stopping distance (a left sum of
    # a falling speed), so a comfort stop ends just past spot_x; a spot
    # before the crossing line makes the ego stop short of the pedestrian
    cfg = wide_bounds(spot_x=15.0)
    trace = assert_matches_oracle(ScenarioInput(6.0, 1.0, 0.0), cfg)
    assert _phases(trace, cfg) == ["cruise", "comfort"]
    assert trace.ego_v[-1] == 0.0
    assert cfg.spot_x < trace.ego_x[-1] < cfg.ped_start[0]


def test_evaluate_input_horizon_ends_mid_braking_short_of_spot():
    cfg = wide_bounds(spot_x=45.0, horizon=4.0)
    trace = assert_matches_oracle(ScenarioInput(10.0, 1.0, 50.0), cfg)
    assert _phases(trace, cfg) == ["cruise", "comfort"]
    assert trace.ego_v[-1] > 0.0
    assert trace.ego_x[-1] < cfg.spot_x
    # v^2 / (2 a) is ~1.25e11 m, and the margin a braking step gains on it,
    # a dt^2 / 2 = 5e-13 m, is below rounding: the comfort test flips back to
    # a cruise for one step (81) inside a braking segment
    cfg = SimConfig(dt=0.1, comfort_decel=1e-10, spot_x=125000000002.5, ped_start=(45.0, 6.0))
    trace = assert_matches_oracle(ScenarioInput(5.0, 0.5, 8.0), cfg)
    assert np.flatnonzero(np.diff(trace.ego_v) == 0.0).tolist() == [0, 1, 2, 3, 4, 81]
    assert trace.ego_v[-1] > 0.0
    assert trace.ego_x[-1] < cfg.spot_x


def test_evaluate_input_pedestrian_never_in_corridor():
    trace = assert_matches_oracle(WAITING, wide_bounds())
    assert (np.abs(trace.ped_y) > SimConfig().corridor_half_width).all()


def test_evaluate_input_cruise_comfort_emergency():
    cfg = SimConfig()
    trace = assert_matches_oracle(ScenarioInput(12.0, 2.0, 0.0), cfg)
    assert _phases(trace, cfg) == ["cruise", "comfort", "emergency"]


def test_evaluate_input_undetected_pedestrian_inside_envelope():
    # inside the corridor and the braking envelope from k = 0 but out of
    # sensor range: no latch until the ego closes to sensor range
    cfg = wide_bounds(spot_x=1000.0, sensor_range=5.0, brake_margin=20.0,
                      ped_start=(15.0, 0.5))
    trace = assert_matches_oracle(ScenarioInput(5.0, 0.1, 50.0), cfg)
    assert not trace.detected[0]
    assert _phases(trace, cfg) == ["cruise", "emergency"]


def test_evaluate_input_latches_on_exact_coincidence():
    # a blind ego sees only a pedestrian it exactly reaches (gap == 0): the
    # dyadic step lands on x = 15 and latches the emergency brake there; f1
    # is 0 at that sample, so the latch cannot change the fitness
    cfg = wide_bounds(dt=1 / 128, spot_x=1000.0, sensor_range=1e-9,
                      ped_start=(15.0, 0.0))
    trace = assert_matches_oracle(ScenarioInput(4.0, 0.1, 50.0), cfg)
    assert np.flatnonzero(trace.detected).tolist() == [480]
    assert _phases(trace, cfg) == ["cruise", "emergency"]


def test_evaluate_input_keeps_signed_zero_speed():
    # simulate records v0c = -0.0 at k = 0 and clamps later samples to +0.0
    cfg = SimConfig(spot_x=1000.0, input_bounds=((0.0, 1.0), (0.1, 1.0), (0.0, 50.0)))
    for inp in (ScenarioInput(-0.0, 0.5, 0.0), ScenarioInput(0.0, 0.5, 0.0)):
        assert_matches_oracle(inp, cfg)


# A pedestrian the ego sees from the start (the occluder is out of the way),
# who walks into the corridor (|y| <= 1) 1.2 s after t_wait; comfort braking
# (3 m/s^2) is steeper than emergency braking (1 m/s^2), so a latch while
# moving changes the speeds.
SEEN = wide_bounds(spot_x=20.0, occluder=(900.0, 1.0, 901.0, 2.0), ped_start=(23.0, 2.2),
                   comfort_decel=3.0, max_decel=1.0, brake_margin=5.0)
SEEN_STILL = simulate(ScenarioInput(6.0, 1.0, 50.0), SEEN)  # never in the corridor
SEEN_CUT = int(np.flatnonzero(np.diff(SEEN_STILL.ego_v) < 0.0)[0])  # cruise -> comfort
SEEN_STOP = int(np.flatnonzero(SEEN_STILL.ego_v == 0.0)[0])  # the first speed of 0.0


def _entering_at(step: int) -> SimulationTrace:
    inp = ScenarioInput(6.0, 1.0, (step - 0.5) * SEEN.dt - 1.2)  # |y| = 0.995 at the step
    trace = assert_matches_oracle(inp, SEEN)
    corridor = np.flatnonzero(np.abs(trace.ped_y) <= SEEN.corridor_half_width)
    assert corridor[0] == step and trace.detected[step]
    return trace


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, 50])
def test_evaluate_input_comfort_stop_and_a_later_crossing(offset):
    # the stopped ego runs to the horizon: a latch from the stop on changes
    # nothing, one on a moving step before it does
    assert 0 < SEEN_CUT < SEEN_STOP < 900
    trace = _entering_at(SEEN_STOP + offset)
    moved = trace.ego_x[-1] != SEEN_STILL.ego_x[-1]
    assert moved == (offset < 0)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_evaluate_input_pedestrian_enters_the_corridor_at_a_cut(offset):
    # the cruise segment scores the envelope up to the step before its cut;
    # the cut step itself is the next segment's first decision
    trace = _entering_at(SEEN_CUT + offset)
    expected = ["cruise", "emergency"] if offset < 1 else ["cruise", "comfort", "emergency"]
    assert _phases(trace, SEEN) == expected


@pytest.mark.parametrize("flip", [1, 999])
def test_evaluate_input_cruise_flip_on_the_first_and_last_step(flip):
    # the comfort test first holds at step 1 or at step n - 1, the first and
    # the last decision after k = 0: the speed drops only after that step
    cfg = wide_bounds(spot_x=1000.0, ped_start=(60.0, 4.6))
    free = simulate(WAITING, cfg)
    reach = WAITING.v0c ** 2 / (2.0 * cfg.comfort_decel)
    spot = float(free.ego_x[flip]) + reach
    while spot - free.ego_x[flip] > reach:
        spot = float(np.nextafter(spot, -np.inf))
    assert spot - free.ego_x[flip - 1] > reach and len(free) == 1001
    trace = assert_matches_oracle(WAITING, replace(cfg, spot_x=spot))
    assert (trace.ego_v[:flip + 1] == WAITING.v0c).all()
    assert trace.ego_v[flip + 1] < WAITING.v0c


def test_evaluate_input_segment_with_an_empty_corridor_window():
    # the pedestrian crosses while the ego is far away; the comfort segment
    # starts after the pedestrian has left the corridor
    cfg = SimConfig()
    inp = ScenarioInput(5.0, 3.0, 0.0)
    trace = assert_matches_oracle(inp, cfg)
    corridor = np.flatnonzero(np.abs(trace.ped_y) <= cfg.corridor_half_width)
    comfort_from = int(np.flatnonzero(np.diff(trace.ego_v) < 0.0)[0])
    assert corridor.size and corridor[-1] < comfort_from
    assert _phases(trace, cfg) == ["cruise", "comfort"]


def test_from_array_keeps_every_bit():
    cfg = SimConfig(input_bounds=((0.0, 15.0), (0.1, 3.0), (0.0, 10.0)))
    for genome in ([6, 1.0, 0.0], np.array([6.0, 1.0, 0.0]), np.array([-0.0, 1.0, -0.0]),
                   [np.float64(6.0), 1.0, -0.0], np.array([6.0, 1.0, 0.5], dtype=np.float32)):
        inp = ScenarioInput.from_array(genome)
        assert all(type(v) is float for v in (inp.v0c, inp.v0p, inp.t_wait))
        assert struct.pack("<3d", inp.v0c, inp.v0p, inp.t_wait) == \
            struct.pack("<3d", *(float(v) for v in genome))
        assert_matches_oracle(inp, cfg)
    with pytest.raises(ValueError):
        ScenarioInput.from_array([1.0, 2.0])


@pytest.mark.parametrize("inp, cfg, phases", [
    # v0c = 0: a == 0 and v == 0, the general path keeps the ego standing
    (ScenarioInput(0.0, 1.0, 0.0),
     SimConfig(input_bounds=((0.0, 15.0), (0.1, 3.0), (0.0, 10.0))), []),
    # cruise to the horizon: one constant-speed segment
    (WAITING, wide_bounds(spot_x=1000.0), ["cruise"]),
    # cruise, then emergency braking
    (ScenarioInput(5.0, 0.1, 50.0),
     wide_bounds(spot_x=1000.0, occluder=(900.0, 1.0, 901.0, 2.0),
                 ped_start=(15.0, 0.5)), ["cruise", "emergency"]),
    # comfort braking from k = 0: no constant-speed segment while moving
    (ScenarioInput(10.0, 1.0, 50.0), wide_bounds(spot_x=1.0), ["comfort"]),
], ids=["standing", "cruise", "cruise-emergency", "comfort-from-start"])
def test_evaluate_input_constant_speed_segments(inp, cfg, phases):
    trace = assert_matches_oracle(inp, cfg)
    assert _phases(trace, cfg) == phases
    if phases == ["cruise"]:
        assert (trace.ego_v == inp.v0c).all()
    if not phases:
        assert (trace.ego_x == 0.0).all()


def test_evaluate_input_validates_config_once_and_invalid_ones_always(monkeypatch):
    validated = []
    check = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate",
                        lambda self: validated.append(self) or check(self))
    cfg = SimConfig()
    fits = [evaluate_input(ScenarioInput(5.0, 1.0, 2.0), cfg) for _ in range(3)]
    assert len(validated) == 1 and fits[0] == fits[1] == fits[2]
    with pytest.raises(ValueError, match="v0c"):  # per-input checks still run
        evaluate_input(ScenarioInput(0.5, 1.0, 2.0), cfg)
    with pytest.raises(ValueError, match="v0c"):
        simulate(ScenarioInput(0.5, 1.0, 2.0), cfg)
    assert len(validated) == 1
    with pytest.raises(ValueError):
        cfg._grid[1][0] = 1.0  # the shared time grid is read-only
    for bad in (replace(cfg, horizon=0.005), replace(cfg, max_decel=0.0)):
        for _ in range(3):
            with pytest.raises(ValueError):
                evaluate_input(ScenarioInput(5.0, 1.0, 2.0), bad)
            with pytest.raises(ValueError):
                simulate(ScenarioInput(5.0, 1.0, 2.0), bad)


def test_config_less_calls_share_one_validated_default(monkeypatch):
    validated = []
    check = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate",
                        lambda self: validated.append(self) or check(self))
    inp = ScenarioInput(5.0, 1.0, 2.0)
    fits = [evaluate_input(inp) for _ in range(5)]
    assert len(validated) <= 1  # the default instance caches its validated grid
    assert fits == [evaluate_input(inp, SimConfig())] * 5


def test_evaluate_input_validates_like_simulate():
    with pytest.raises(ValueError, match="v0c"):
        evaluate_input(ScenarioInput(0.5, 1.0, 2.0))
    with pytest.raises(ValueError, match="horizon"):
        evaluate_input(ScenarioInput(5.0, 1.0, 2.0), replace(SimConfig(), horizon=0.005))
