"""Deterministic parking-lot scenario simulator.

The ego car drives along the +x lane (y = 0) toward a parking spot,
comfort-braking as it nears the spot.  A pedestrian waits behind a parked
car (an occluding rectangle between the lane and the sidewalk), then crosses
the lane straight down -y.  The ego perceives the pedestrian only when the
line of sight from its front-bumper center is not blocked by the occluder
and the pedestrian is within sensor range and half-angle; once a detected
pedestrian is inside the threat corridor and closer than the emergency
braking envelope, the ego brakes at full deceleration until stopped.

Everything is plain Euler integration at a fixed step, with no randomness,
so a given input always produces the identical trace.  Two fitnesses grade a
trace: f1 = minimum distance from the pedestrian to the ego front-bumper
segment over the run, f2 = ego speed at the (earliest) sample achieving that
minimum.  A scenario is critical when f1 <= theta1 and f2 >= theta2.

Two paths compute that fitness.  `evaluate_input` is the exact
fitness-only path the searches call: it integrates the run in segments of
constant deceleration, in place in two horizon-long arrays, and ends each
segment at the first later step where `simulate`'s deceleration choice
changes (a sorted search for a cruise's comfort flip, the pedestrian's
corridor steps for the emergency latch); it records no trace.  It first
integrates only to where an ego still cruising at v0c would be 4 m past
the pedestrian, and returns there when the ego's x distance to the
pedestrian beats the minimum so far: x never decreases, so no later
sample can be closer.  `simulate`
steps the Euler loop sample by sample and returns the full trace for
export; with `fitness` it is the reference oracle that `evaluate_input`
matches bit for bit.  Both
validate a `SimConfig` and build its time grid once per config object (a
call without one uses the default instance of the signature); each input
is still checked against the bounds on every call.  `search.grid_steps`
checks the grid, as it does a `falsify.SignalParam`'s sample period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .search import SearchSpace, grid_steps

DEFAULT_INPUT_BOUNDS = ((1.0, 12.0), (0.5, 3.0), (0.0, 8.0))
INPUT_NAMES = ("v0c", "v0p", "t_wait")
EXIT_PROBE = 4.0  # m past the pedestrian of `evaluate_input`'s exit test
EXIT_MARGIN = 1e-12  # relative; covers a hypot rounded below its first argument


@dataclass(frozen=True)
class ScenarioInput:
    """Search-controlled scenario parameters."""

    v0c: float  # ego initial speed, m/s
    v0p: float  # pedestrian walking speed, m/s
    t_wait: float  # pedestrian wait before crossing, s

    @classmethod
    def from_array(cls, genome) -> "ScenarioInput":
        v0c, v0p, t_wait = np.asarray(genome, dtype=float).tolist()
        return cls(v0c, v0p, t_wait)


@dataclass(frozen=True)
class SimConfig:
    """Fixed world geometry, dynamics and criticality thresholds."""

    dt: float = 0.01  # integration step, s
    horizon: float = 10.0  # simulated time, s
    ego_width: float = 1.8  # m
    spot_x: float = 45.0  # parking-spot position of the front bumper, m
    comfort_decel: float = 3.0  # parking approach deceleration, m/s^2
    max_decel: float = 6.0  # emergency braking deceleration, m/s^2
    occluder: tuple[float, float, float, float] = (15.0, 1.2, 22.8, 4.2)
    ped_start: tuple[float, float] = (23.0, 4.6)
    sensor_range: float = 25.0  # m
    sensor_half_angle: float = math.pi / 4  # rad, about the +x heading
    corridor_half_width: float = 1.0  # threat corridor around the lane, m
    brake_margin: float = 2.0  # added to the braking distance, m
    theta1: float = 0.2  # criticality threshold on f1, m
    theta2: float = 1.0  # criticality threshold on f2, m/s
    input_bounds: tuple[tuple[float, float], ...] = DEFAULT_INPUT_BOUNDS

    def validate(self) -> None:
        for name in ("ego_width", "comfort_decel", "max_decel", "sensor_range",
                     "corridor_half_width"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("spot_x", "theta1", "theta2"):
            if np.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        if not np.isfinite(self.ped_start).all():
            raise ValueError(f"ped_start must not be NaN or infinite, got {self.ped_start}")
        if len(self.input_bounds) != len(INPUT_NAMES):
            raise ValueError(f"input_bounds needs {len(INPUT_NAMES)} (low, high) pairs, "
                             f"got {len(self.input_bounds)}")
        for name, (lo, hi) in zip(INPUT_NAMES, self.input_bounds):
            if not -math.inf < lo < hi < math.inf:
                raise ValueError(f"bounds_{name} must be finite with low < high, "
                                 f"got [{lo}, {hi}]")
        x0, y0, x1, y1 = self.occluder
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate occluder rectangle: {self.occluder}")
        if not 0.0 < self.sensor_half_angle < math.pi / 2:
            raise ValueError("sensor_half_angle must lie in (0, pi/2)")
        if not self.brake_margin >= 0:  # NaN fails too
            raise ValueError(f"brake_margin must be >= 0, got {self.brake_margin}")
        grid_steps(self.horizon, self.dt, "dt")

    @cached_property
    def _grid(self) -> tuple[int, np.ndarray, float]:
        """Validate once; the step count, the read-only sample times and the
        tangent of the sensor half-angle.  A failed validation is not cached,
        so an invalid config raises on every use."""
        self.validate()
        n_steps = grid_steps(self.horizon, self.dt, "dt")
        t = np.arange(n_steps + 1) * self.dt
        t.flags.writeable = False
        return n_steps, t, math.tan(self.sensor_half_angle)


@dataclass
class SimulationTrace:
    """Sampled run: arrays share one length = horizon/dt + 1."""

    t: np.ndarray
    ego_x: np.ndarray
    ego_y: np.ndarray
    ego_v: np.ndarray
    ped_x: np.ndarray
    ped_y: np.ndarray
    detected: np.ndarray  # bool, instantaneous perception flag

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True)
class FitnessVector:
    f1: float  # min pedestrian-to-bumper distance, m
    f2: float  # ego speed at that minimum, m/s
    critical: bool


# ---------- perception geometry ----------


def _segment_crosses_rect(x1: float, y1: float, x2: float, y2: float,
                          rect: tuple[float, float, float, float]) -> bool:
    """True iff the segment passes through the OPEN rectangle interior.

    Grazing along an edge or touching a corner does not count.  Uses
    Liang-Barsky clipping with strict inequalities.
    """
    rx0, ry0, rx1, ry1 = rect
    dx = x2 - x1
    dy = y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - rx0), (dx, rx1 - x1), (-dy, y1 - ry0), (dy, ry1 - y1)):
        if p == 0.0:
            if q <= 0.0:  # parallel and on or outside this boundary
                return False
        else:
            r = q / p
            if p < 0.0:
                if r > t0:
                    t0 = r
            else:
                if r < t1:
                    t1 = r
    return t0 < t1


def _detects(ego_x: float, ego_y: float, ped_x: float, ped_y: float,
             cfg: SimConfig, tan_half: float) -> bool:
    dx = ped_x - ego_x
    dy = ped_y - ego_y
    if dx * dx + dy * dy > cfg.sensor_range * cfg.sensor_range:
        return False
    if dx < 0.0 or abs(dy) > dx * tan_half:
        if not (dx == 0.0 and dy == 0.0):  # coincident point: trivially seen
            return False
    return not _segment_crosses_rect(ego_x, ego_y, ped_x, ped_y, cfg.occluder)


# ---------- simulation ----------


def _checked_grid(inp: ScenarioInput, cfg: SimConfig) -> tuple[int, np.ndarray, float]:
    """Validate the configuration, then the input; `SimConfig._grid`."""
    grid = cfg._grid
    values = (inp.v0c, inp.v0p, inp.t_wait)
    for name, value, (lo, hi) in zip(INPUT_NAMES, values, cfg.input_bounds):
        if not lo <= value <= hi:
            raise ValueError(f"{name}={float(value)} outside bounds [{lo}, {hi}]")
    return grid


def simulate(inp: ScenarioInput, cfg: SimConfig = SimConfig()) -> SimulationTrace:
    """Run the scenario for the full horizon (never truncated early).

    Args:
        inp: scenario parameters; validated against cfg.input_bounds.
        cfg: world configuration (defaults used when omitted).

    Returns:
        SimulationTrace with horizon/dt + 1 samples at step dt.

    Raises:
        ValueError: out-of-bounds input (message names the offending field)
            or invalid configuration.
    """
    n_steps, _, tan_half = _checked_grid(inp, cfg)
    half_corridor = cfg.corridor_half_width
    px0, py0 = cfg.ped_start

    t_arr = np.empty(n_steps + 1)
    ex_arr = np.empty(n_steps + 1)
    ev_arr = np.empty(n_steps + 1)
    py_arr = np.empty(n_steps + 1)
    det_arr = np.empty(n_steps + 1, dtype=bool)

    x = 0.0  # front-bumper x; lane keeps ego_y = 0
    v = inp.v0c
    emergency = False
    dt = cfg.dt
    for k in range(n_steps + 1):
        t = k * dt
        py = py0 - inp.v0p * (t - inp.t_wait) if t > inp.t_wait else py0
        detected = _detects(x, 0.0, px0, py, cfg, tan_half)
        t_arr[k] = t
        ex_arr[k] = x
        ev_arr[k] = v
        py_arr[k] = py
        det_arr[k] = detected
        if k == n_steps:
            break
        # choose deceleration for [t, t + dt)
        if not emergency and detected and abs(py) <= half_corridor:
            gap = px0 - x
            if 0.0 <= gap <= v * v / (2.0 * cfg.max_decel) + cfg.brake_margin:
                emergency = True
        if emergency:
            a = cfg.max_decel
        elif cfg.spot_x - x <= v * v / (2.0 * cfg.comfort_decel):
            a = cfg.comfort_decel
        else:
            a = 0.0
        x += v * dt
        v = max(0.0, v - a * dt)

    return SimulationTrace(
        t=t_arr,
        ego_x=ex_arr,
        ego_y=np.zeros(n_steps + 1),
        ego_v=ev_arr,
        ped_x=np.full(n_steps + 1, px0),
        ped_y=py_arr,
        detected=det_arr,
    )


# ---------- fitness ----------


def bumper_distances(trace: SimulationTrace, cfg: SimConfig) -> np.ndarray:
    """Per-sample distance from the pedestrian point to the ego
    front-bumper segment (the lateral segment of length ego_width)."""
    dx = trace.ped_x - trace.ego_x
    dy = np.maximum(np.abs(trace.ped_y - trace.ego_y) - cfg.ego_width / 2.0, 0.0)
    return np.hypot(dx, dy)


def fitness(trace: SimulationTrace, cfg: SimConfig = SimConfig()) -> FitnessVector:
    """Grade a trace: (f1, f2) and the criticality flag.

    The minimum is resolved to the earliest sample achieving it, so f2 is
    well defined even for flat minima.
    """
    return _grade(bumper_distances(trace, cfg), trace.ego_v, cfg)


def _grade(d: np.ndarray, ego_v: np.ndarray, cfg: SimConfig) -> FitnessVector:
    i = int(d.argmin())  # argmin returns the first occurrence
    f1 = float(d[i])
    f2 = float(ego_v[i])
    return FitnessVector(f1=f1, f2=f2, critical=f1 <= cfg.theta1 and f2 >= cfg.theta2)


def evaluate_input(inp: ScenarioInput, cfg: SimConfig = SimConfig()) -> FitnessVector:
    """Fitness of one run, bit-identical to fitness(simulate(inp, cfg), cfg).

    Only the ego x, ego speed and pedestrian y samples are computed.  The
    run splits into segments of constant deceleration (cruise, comfort or
    emergency).  Each is integrated in place into `ego_x[k:]` / `ego_v[k:]`
    with `np.subtract.accumulate` / `np.add.accumulate`, which add strictly
    in sequence and so reproduce the Euler loop of `simulate` bit for bit;
    the next segment overwrites from the cut.  A segment ends at the first
    later step whose deceleration choice differs: the comfort test flips,
    or a pedestrian inside the corridor and the braking envelope is
    detected.

    - A cruise segment (no deceleration at a positive speed) keeps v
      exactly.  Its x never decreases, so fl(x - spot_x) never decreases
      and its comfort test flips at most once; `searchsorted` finds that
      step, as fl(spot_x - x) = -fl(x - spot_x) under round-to-nearest.
    - A braking segment tests the comfort rule on every step up to its
      cut, as `simulate` does.  Once its speed is 0.0 no decision changes
      a sample, so the comfort test flips at most once more and the latch
      fires at most once: a stopped ego adds at most two segments.
    - The corridor is the sorted array of steps with |ped_y| inside it; a
      segment scores the envelope only on its window of those steps.
      `_detects` runs only on envelope steps, in order, and never after
      the emergency latch.
    - The run first stops at a provisional horizon K, the step where an
      ego still cruising at v0c would be EXIT_PROBE m past the pedestrian.
      If |px0 - x_K| exceeds the minimum distance of samples 0..K by the
      relative EXIT_MARGIN, that minimum is the run's: with v0c > 0 every
      speed is >= 0, so x never decreases.  Then x_K is past the pedestrian
      (before it, every earlier sample is at least as far in x), and every
      later sample is at least |px0 - x_j| >= |px0 - x_K| away, so it is
      neither closer nor the first sample at the minimum.  Otherwise the
      run goes on from K to the horizon; a segment restarted at K chooses
      the deceleration `simulate` chooses there, so the samples are the
      same.  A v0c <= 0, or a K beyond the horizon, skips the test.

    Raises:
        ValueError: as `simulate`.
    """
    n, t, tan_half = _checked_grid(inp, cfg)
    dt = cfg.dt
    spot_x, comfort_decel = cfg.spot_x, cfg.comfort_decel
    px0, py0 = cfg.ped_start
    ped_y = np.empty(n + 1)
    ped_y.fill(py0)
    walk = int(t.searchsorted(inp.t_wait, "right"))  # the first sample with t > t_wait
    np.subtract(py0, inp.v0p * (t[walk:] - inp.t_wait), out=ped_y[walk:])
    abs_py = np.abs(ped_y)
    corridor = (abs_py <= cfg.corridor_half_width).nonzero()[0]
    ego_x = np.empty(n + 1)
    ego_v = np.empty(n + 1)

    # the first exit test: where an ego still cruising at v0c is EXIT_PROBE m
    # past the pedestrian (never, for a v0c <= 0 that can move x backwards);
    # a pedestrian far behind x = 0 and a tiny v0c give -inf: step 1
    probe = (px0 + EXIT_PROBE) / inp.v0c / dt if inp.v0c > 0.0 else math.inf
    stop = n if not probe < n else 1 if probe < 1 else math.ceil(probe)
    k, x, v, emergency = 0, 0.0, inp.v0c, False
    while True:
        # the deceleration for [t_k, t_k + dt), chosen exactly as in simulate
        if (not emergency and abs_py[k] <= cfg.corridor_half_width
                and 0.0 <= px0 - x <= v * v / (2.0 * cfg.max_decel) + cfg.brake_margin
                and _detects(x, 0.0, px0, float(ped_y[k]), cfg, tan_half)):
            emergency = True
        if emergency:
            a = cfg.max_decel
        else:
            comfort = spot_x - x <= v * v / (2.0 * comfort_decel)
            a = comfort_decel if comfort else 0.0
        # hold it to the horizon: v_{j+1} = max(0, v_j - a dt), x_{j+1} = x_j + v_j dt
        xs, vs = ego_x[k:stop + 1], ego_v[k:stop + 1]
        cruise = a == 0.0 and v > 0.0  # v - 0.0 == v: the speed stays v
        if cruise:
            vs.fill(v)
            xs.fill(v * dt)
        else:
            vs.fill(a * dt)
            vs[0] = v
            np.subtract.accumulate(vs, out=vs)
            np.copyto(vs, 0.0, where=vs <= 0.0)  # max(0.0, .) maps -0.0 to 0.0 too
            vs[0] = v  # the segment's first sample is recorded unclamped
            np.multiply(vs[:-1], dt, out=xs[1:])
        xs[0] = x
        np.add.accumulate(xs, out=xs)
        cut = stop - k  # segment length in steps; to `stop` by default
        if not emergency:
            if cruise:  # the first later step with x - spot_x >= -v^2 / (2 a_c)
                cut = 1 + int((xs[1:cut] - spot_x).searchsorted(-v * v / (2.0 * comfort_decel)))
            else:
                vj = vs[1:cut]
                flips = ((spot_x - xs[1:cut] <= vj * vj / (2.0 * comfort_decel))
                         != comfort).nonzero()[0]
                if flips.size:
                    cut = int(flips[0]) + 1
            lo, hi = corridor.searchsorted((k + 1, k + cut))  # the steps k+1 .. k+cut-1
            if lo < hi:
                steps = corridor[lo:hi]
                gap = px0 - ego_x[steps]
                v_sq = v * v if cruise else np.square(ego_v[steps])
                envelope = (gap >= 0.0) & (gap <= v_sq / (2.0 * cfg.max_decel)
                                           + cfg.brake_margin)
                for j in steps[envelope].tolist():
                    if _detects(float(ego_x[j]), 0.0, px0, float(ped_y[j]), cfg, tan_half):
                        cut = j - k
                        break
        k += cut
        if k == stop:
            d = np.hypot(px0 - ego_x[:k + 1], np.maximum(abs_py[:k + 1] - cfg.ego_width / 2.0, 0.0))
            if k == n or abs(px0 - float(ego_x[k])) > d.min() * (1.0 + EXIT_MARGIN):
                return _grade(d, ego_v[:k + 1], cfg)
            stop = n  # a later sample may be closer: run on to the horizon
        x, v = float(ego_x[k]), float(ego_v[k])


def search_space(cfg: SimConfig = SimConfig()) -> SearchSpace:
    """Decision-variable box matching the configured input bounds."""
    bounds = np.asarray(cfg.input_bounds, dtype=float)
    return SearchSpace(lower=bounds[:, 0], upper=bounds[:, 1])


def make_evaluator(cfg: SimConfig = SimConfig()):
    """Evaluator for the search core: genome -> ((f1, -f2), critical), as
    plain floats and a bool, which the archive writes as they are.

    f2 is negated because the search minimizes every objective while the
    scenario hunt wants minimum miss distance at maximum speed.
    `evaluate_input` is looked up at call time, so a wrapper installed on
    the module later still sees every simulation.
    """

    def _evaluate(genome: np.ndarray) -> tuple[tuple[float, float], bool]:
        fv = evaluate_input(ScenarioInput.from_array(genome), cfg)
        return (fv.f1, -fv.f2), fv.critical

    return _evaluate


# ---------- export ----------


def trace_to_csv(trace: SimulationTrace, path) -> None:
    """Write the trace as t,ego_x,ego_y,ego_v,ped_x,ped_y,detected rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,ego_x,ego_y,ego_v,ped_x,ped_y,detected\n")
        for k in range(len(trace)):
            fh.write(",".join([
                repr(float(trace.t[k])),
                repr(float(trace.ego_x[k])),
                repr(float(trace.ego_y[k])),
                repr(float(trace.ego_v[k])),
                repr(float(trace.ped_x[k])),
                repr(float(trace.ped_y[k])),
                "1" if trace.detected[k] else "0",
            ]) + "\n")
