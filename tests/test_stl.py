"""Tests for the discrete-time requirement semantics.

The core check is an independent Boolean evaluator: for random formula/trace
pairs the sign of the quantitative robustness must agree with plain Boolean
satisfaction.  The generator keeps window bounds on exact sample multiples and
atom bounds strictly between trace values, so robustness is never zero and the
comparison is unambiguous.

The compiled evaluator is also checked bit for bit, errors included, against
the reference below, which builds every node's full robustness signal:
through `robustness`, which calls it once on the transposed trace, and on
stacks of (n_signals, n_samples) traces, row by row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt.stl import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Not,
    Or,
    _window_samples,
    compile_requirement,
    format_requirement,
    horizon_samples,
    parse_requirement,
    robustness,
)

PERIOD = 0.5


# ---------- independent Boolean oracle ----------


def oracle_sat(f: Formula, trace: np.ndarray, period: float, k: int = 0) -> bool:
    """Boolean satisfaction at sample index k, by direct recursion."""
    if isinstance(f, Atom):
        v = trace[k, f.signal]
        return bool(v <= f.bound) if f.op == "le" else bool(v >= f.bound)
    if isinstance(f, Not):
        return not oracle_sat(f.child, trace, period, k)
    if isinstance(f, And):
        return all(oracle_sat(c, trace, period, k) for c in f.children)
    if isinstance(f, Or):
        return any(oracle_sat(c, trace, period, k) for c in f.children)
    if isinstance(f, (Always, Eventually)):
        ia = round(f.lo / period)
        ib = round(f.hi / period)
        indices = range(k + ia, k + ib + 1)
        if isinstance(f, Always):
            return all(oracle_sat(f.child, trace, period, j) for j in indices)
        return any(oracle_sat(f.child, trace, period, j) for j in indices)
    raise TypeError(f"not a formula node: {f!r}")


def random_formula(rng: np.random.Generator, n_signals: int, depth: int) -> Formula:
    """Random tree with half-integer atom bounds and on-grid windows."""
    if depth == 0 or rng.random() < 0.25:
        return Atom(
            signal=int(rng.integers(n_signals)),
            op="le" if rng.integers(2) else "ge",
            bound=float(rng.integers(-4, 5)) + 0.5,
        )
    kind = int(rng.integers(5))
    if kind == 0:
        return Not(random_formula(rng, n_signals, depth - 1))
    if kind in (1, 2):
        width = int(rng.integers(2, 4))
        children = tuple(random_formula(rng, n_signals, depth - 1) for _ in range(width))
        return And(children) if kind == 1 else Or(children)
    ia = int(rng.integers(0, 4))
    ib = ia + int(rng.integers(0, 4))
    child = random_formula(rng, n_signals, depth - 1)
    cls = Always if kind == 3 else Eventually
    return cls(ia * PERIOD, ib * PERIOD, child)


def random_trace(rng: np.random.Generator, n: int, n_signals: int) -> np.ndarray:
    return rng.integers(-4, 5, size=(n, n_signals)).astype(float)


# ---------- reference evaluator: full robustness signal at every node ----------


def _rho(formula: Formula, trace: np.ndarray, period: float) -> np.ndarray:
    """Robustness signal: value at every sample where the horizon fits."""
    if isinstance(formula, Atom):
        if not 0 <= formula.signal < trace.shape[1]:
            raise ValueError(f"signal index {formula.signal} outside trace "
                             f"with {trace.shape[1]} signals")
        y = trace[:, formula.signal]
        return formula.bound - y if formula.op == "le" else y - formula.bound
    if isinstance(formula, Not):
        return -_rho(formula.child, trace, period)
    if isinstance(formula, (And, Or)):
        parts = [_rho(c, trace, period) for c in formula.children]
        n = min(p.size for p in parts)
        stacked = np.stack([p[:n] for p in parts])
        return (np.min if isinstance(formula, And) else np.max)(stacked, axis=0)
    if isinstance(formula, (Always, Eventually)):
        ia, ib = _window_samples(formula.lo, formula.hi, period)
        inner = _rho(formula.child, trace, period)
        if inner.size <= ib:
            raise ValueError("trace shorter than the formula horizon")
        windows = np.lib.stride_tricks.sliding_window_view(inner[ia:], ib - ia + 1)
        return (np.min if isinstance(formula, Always) else np.max)(windows, axis=1)
    raise TypeError(f"not a formula node: {formula!r}")


def reference_robustness(formula: Formula, trace: np.ndarray, period: float) -> float:
    if period <= 0:
        raise ValueError("period must be positive")
    arr = np.asarray(trace, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("trace must be a non-empty 1-D or 2-D array")
    if arr.shape[0] <= horizon_samples(formula, period):
        raise ValueError("trace shorter than the formula horizon")
    return float(_rho(formula, arr, period)[0])


def outcome(fn, *args):
    """IEEE bytes of the result (any NaN as one value), or the error raised."""
    try:
        value = fn(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("nan",) if math.isnan(value) else ("value", np.float64(value).tobytes())


def ieee_bytes(values) -> bytes:
    """Bytes of a float array with every NaN as one value: numpy's min and
    max keep a NaN's sign on some loops and not on others."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def rewindow(f: Formula, lo: float, hi: float) -> Formula:
    """`f` with its first temporal node's window replaced by [lo, hi]."""
    if isinstance(f, (Always, Eventually)):
        return type(f)(lo, hi, f.child)
    if isinstance(f, Not):
        return Not(rewindow(f.child, lo, hi))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(rewindow(c, lo, hi) for c in f.children))
    return f


def bounds(f: Formula) -> set[float]:
    if isinstance(f, Atom):
        return {f.bound}
    children = f.children if isinstance(f, (And, Or)) else (f.child,)
    return set().union(*(bounds(c) for c in children))


# a sample equal to an atom's bound scores +0.0, and -0.0 under `not`, so
# min/max ties between signed zeros are common; NaN and infinities propagate
SPECIAL_VALUES = [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.data())
def test_compiled_requirement_matches_reference_bit_for_bit(data) -> None:
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    k = data.draw(st.integers(1, 3))
    f = random_formula(rng, k, data.draw(st.integers(0, 4)))
    window = data.draw(st.sampled_from([None] * 6 + [(-0.5, 1.0), (1.5, 1.0)]))
    if window is not None:
        f = rewindow(f, *window)
    g = parse_requirement(format_requirement(f))
    assert g == f
    # periods off the 0.5 grid give windows a sample short, or empty ones
    period = data.draw(st.sampled_from([0.5] * 6 + [1.0, 0.3, 0.7, 0.25, 2.0, 0.0, -0.5]))
    try:
        h = horizon_samples(g, period) if period > 0 else 0
    except ValueError:
        h = 0
    n = data.draw(st.integers(max(1, h - 1), h + 6))  # short traces included
    n_signals = data.draw(st.sampled_from([k] * 6 + [max(1, k - 1)]))  # bad indices too
    pool = sorted(bounds(g)) * 6 + SPECIAL_VALUES
    values = data.draw(st.lists(st.sampled_from(pool),
                                min_size=n * n_signals, max_size=n * n_signals))
    trace = np.array(values).reshape(n, n_signals)
    if n_signals == 1 and data.draw(st.booleans()):
        trace = trace[:, 0]
    expected = outcome(reference_robustness, g, trace, period)
    assert outcome(robustness, g, trace, period) == expected


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_compiled_requirement_scores_a_stack_as_its_rows_bit_for_bit(data) -> None:
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    s = data.draw(st.integers(1, 3))
    f = random_formula(rng, s, data.draw(st.integers(0, 4)))
    for _ in range(data.draw(st.integers(0, 2))):  # nest the tree in more windows
        ia = data.draw(st.integers(0, 3))
        cls = data.draw(st.sampled_from([Always, Eventually]))
        f = cls(ia * PERIOD, (ia + data.draw(st.integers(0, 3))) * PERIOD, f)
    n = horizon_samples(f, PERIOD) + data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 6))
    pool = sorted(bounds(f)) * 4 + SPECIAL_VALUES + [-np.nan]  # NaN of both signs
    stack = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=k * s * n,
                                        max_size=k * s * n))).reshape(k, s, n)
    got = compile_requirement(f, PERIOD, n, s)(stack)
    assert got.shape == (k,)
    # each row is an (s, n) trace; robustness takes it time first
    assert ieee_bytes(got) == ieee_bytes([robustness(f, row.T, PERIOD) for row in stack])


def test_compiled_requirement_breaks_signed_zero_ties_as_reference() -> None:
    # z is -0.0 where y0 == 0.5 and y1 == 1.5, +0.0 where both are 0.5: min
    # and max of mixed zeros depend on evaluation order, which must not move
    z = And((Not(Atom(0, "le", 0.5)), Atom(1, "ge", 0.5)))
    formulas = [
        z, Or((Atom(1, "ge", 0.5), Not(Atom(0, "le", 0.5)))),
        And((z, Not(z), z)), Or((Not(z), z)),
        # numpy reduces 17- and 33-sample windows in a non-sequential order
        Always(0.0, 16.0, z), Eventually(0.0, 32.0, Not(z)),
        Always(3.0, 35.0, Or((z, Not(z)))),
        Eventually(0.0, 5.0, Always(1.0, 17.0, z)),
        And((Always(0.0, 16.0, z), Not(Eventually(0.0, 32.0, z)))),
    ]
    rng = np.random.default_rng(0)
    for f in formulas:
        for _ in range(40):
            trace = np.column_stack([np.full(60, 0.5), rng.choice([0.5, 1.5], 60)])
            expected = outcome(reference_robustness, f, trace, 1.0)
            assert expected[0] == "value"
            assert outcome(robustness, f, trace, 1.0) == expected


def test_compiled_requirement_errors_match_reference() -> None:
    a = Atom(0, "le", 1.0)
    cases = [
        (Always(0.0, 5.0, a), np.zeros(5), 1.0),  # short trace
        (Always(0.5, 1.5, a), np.zeros(10), 2.0),  # empty window
        (Eventually(-1.0, 2.0, a), np.zeros(10), 1.0),  # bad window
        (Eventually(3.0, 2.0, a), np.zeros(10), 1.0),  # bad window
        (Always(0.0, 1.0, Atom(2, "ge", 0.0)), np.zeros((4, 2)), 1.0),  # signal index
        (a, np.zeros(4), 0.0),  # bad period
        # window errors come before signal errors, whatever the tree order
        (And((Atom(3, "le", 0.0), Always(0.5, 1.5, a))), np.zeros(10), 2.0),
    ]
    for f, trace, period in cases:
        expected = outcome(reference_robustness, f, trace, period)
        assert expected[0] == "error"
        assert outcome(robustness, f, trace, period) == expected


def test_sign_agrees_with_boolean_oracle() -> None:
    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(300):
        n_signals = int(rng.integers(1, 4))
        f = random_formula(rng, n_signals, depth=int(rng.integers(1, 4)))
        n = horizon_samples(f, PERIOD) + 1 + int(rng.integers(0, 5))
        trace = random_trace(rng, n, n_signals)
        rho = robustness(f, trace, PERIOD)
        assert rho != 0.0  # half-integer bounds vs integer samples
        if (rho > 0) != oracle_sat(f, trace, PERIOD):
            disagreements += 1
    assert disagreements == 0


# ---------- hand-computed robustness values ----------


def test_atom_robustness_values() -> None:
    trace = np.array([3.0])
    assert robustness(Atom(0, "le", 5.0), trace, 1.0) == 2.0
    assert robustness(Atom(0, "ge", 5.0), trace, 1.0) == -2.0
    assert robustness(Atom(0, "le", 3.0), trace, 1.0) == 0.0


def test_always_is_min_over_window() -> None:
    trace = np.array([8.0, 9.0, 7.0])
    f = Always(0.0, 2.0, Atom(0, "le", 10.0))
    assert robustness(f, trace, 1.0) == 1.0  # min(2, 1, 3)


def test_eventually_is_max_over_window() -> None:
    trace = np.array([9.0, 1.0, 4.0])
    f = Eventually(1.0, 2.0, Atom(0, "ge", 5.0))
    assert robustness(f, trace, 1.0) == -1.0  # max(-4, -1); sample 0 excluded


def test_nested_temporal_operators() -> None:
    trace = np.array([1.0, 5.0, 2.0, 4.0])
    f = Always(0.0, 1.0, Eventually(0.0, 1.0, Atom(0, "ge", 3.0)))
    # inner rho = [-2, 2, -1, 1]; eventually width 2 -> [2, 2, 1]; min of first two
    assert robustness(f, trace, 1.0) == 2.0


def test_boolean_connectives_min_max() -> None:
    trace = np.array([[3.0, 10.0]])
    a = Atom(0, "le", 5.0)  # rho  2
    b = Atom(1, "le", 4.0)  # rho -6
    assert robustness(And((a, b)), trace, 1.0) == -6.0
    assert robustness(Or((a, b)), trace, 1.0) == 2.0
    assert robustness(Not(a), trace, 1.0) == -2.0
    assert robustness(Not(Not(a)), trace, 1.0) == 2.0


def test_window_not_aligned_to_samples() -> None:
    # [0.5, 2.5] at period 1 covers samples 1 and 2 only.
    trace = np.array([0.0, 5.0, 7.0, -9.0])
    f = Always(0.5, 2.5, Atom(0, "le", 10.0))
    assert horizon_samples(f, 1.0) == 2
    assert robustness(f, trace, 1.0) == 3.0  # min(5, 3)


def test_window_index_math_is_tolerant_to_rounding() -> None:
    # 0.3 / 0.1 = 2.9999999999999996 in floats; must still map to sample 3.
    f = Always(0.3, 0.7, Atom(0, "le", 1.0))
    assert horizon_samples(f, 0.1) == 7


def test_multi_signal_traces() -> None:
    trace = np.array([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]])
    f = Always(0.0, 2.0, And((Atom(0, "le", 4.0), Atom(1, "ge", 5.0))))
    assert robustness(f, trace, 1.0) == 1.0  # min over k of min(4-y0, y1-5)


# ---------- errors ----------


def test_trace_shorter_than_horizon_rejected() -> None:
    f = Always(0.0, 5.0, Atom(0, "le", 1.0))
    with pytest.raises(ValueError, match="horizon"):
        robustness(f, np.zeros(5), 1.0)
    # exactly horizon + 1 samples is the shortest accepted trace
    assert robustness(f, np.zeros(6), 1.0) == 1.0


def test_empty_window_rejected() -> None:
    f = Always(0.5, 1.5, Atom(0, "le", 1.0))
    with pytest.raises(ValueError, match="no sample"):
        robustness(f, np.zeros(10), 2.0)


def test_invalid_window_bounds_rejected() -> None:
    with pytest.raises(ValueError, match="invalid window"):
        robustness(Always(-1.0, 2.0, Atom(0, "le", 1.0)), np.zeros(10), 1.0)
    with pytest.raises(ValueError, match="invalid window"):
        robustness(Eventually(3.0, 2.0, Atom(0, "le", 1.0)), np.zeros(10), 1.0)


def test_signal_index_out_of_range_rejected() -> None:
    with pytest.raises(ValueError, match="signal index"):
        robustness(Atom(1, "le", 0.0), np.zeros(4), 1.0)


def test_bad_period_and_trace_rejected() -> None:
    with pytest.raises(ValueError, match="period"):
        robustness(Atom(0, "le", 0.0), np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        robustness(Atom(0, "le", 0.0), np.zeros((0,)), 1.0)
    with pytest.raises(ValueError):
        robustness(Atom(0, "le", 0.0), np.zeros((2, 2, 2)), 1.0)


# ---------- text form ----------


def test_parse_simple_requirement() -> None:
    f = parse_requirement("always[0,30] y0 <= 3.5")
    assert f == Always(0.0, 30.0, Atom(0, "le", 3.5))


def test_parse_nested_requirement() -> None:
    f = parse_requirement("eventually[2,10] (y0 >= 1 and not y1 <= 0.2)")
    assert f == Eventually(
        2.0, 10.0, And((Atom(0, "ge", 1.0), Not(Atom(1, "le", 0.2))))
    )


def test_precedence_not_over_and_over_or() -> None:
    f = parse_requirement("not y0 <= 1 and y0 >= 2 or y1 <= 3")
    assert f == Or(
        (And((Not(Atom(0, "le", 1.0)), Atom(0, "ge", 2.0))), Atom(1, "le", 3.0))
    )


def test_temporal_operator_binds_tighter_than_and() -> None:
    f = parse_requirement("always[0,2] y0 <= 1 and y0 >= 0")
    assert f == And((Always(0.0, 2.0, Atom(0, "le", 1.0)), Atom(0, "ge", 0.0)))


def test_parentheses_override_precedence() -> None:
    f = parse_requirement("always[0,2] (y0 <= 1 and y0 >= 0)")
    assert f == Always(0.0, 2.0, And((Atom(0, "le", 1.0), Atom(0, "ge", 0.0))))


def test_scientific_and_signed_numbers() -> None:
    f = parse_requirement("y2 <= -1.5e-2")
    assert f == Atom(2, "le", -0.015)


def test_parse_errors() -> None:
    for text in (
        "y0 <",  # broken operator
        "always[0,2]",  # missing child
        "y0 <= 1 y1 <= 2",  # trailing tokens
        "(y0 <= 1",  # unbalanced parenthesis
        "foo <= 1",  # unknown word
    ):
        with pytest.raises(ValueError):
            parse_requirement(text)


def test_format_parse_round_trip_on_random_formulas() -> None:
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = random_formula(rng, n_signals=3, depth=int(rng.integers(1, 4)))
        assert parse_requirement(format_requirement(f)) == f


def test_format_parse_preserves_robustness() -> None:
    rng = np.random.default_rng(13)
    for _ in range(50):
        f = random_formula(rng, n_signals=2, depth=2)
        g = parse_requirement(format_requirement(f))
        n = horizon_samples(f, PERIOD) + 3
        trace = random_trace(rng, n, 2)
        assert robustness(g, trace, PERIOD) == robustness(f, trace, PERIOD)


def test_horizon_samples_of_connectives() -> None:
    a = Always(0.0, 2.0, Atom(0, "le", 1.0))
    e = Eventually(1.0, 3.0, Atom(0, "ge", 0.0))
    assert horizon_samples(a, 1.0) == 2
    assert horizon_samples(e, 1.0) == 3
    assert horizon_samples(And((a, e)), 1.0) == 3
    assert horizon_samples(Not(a), 1.0) == 2
    assert horizon_samples(Always(0.0, 2.0, e), 1.0) == 5
    assert horizon_samples(Atom(0, "le", 1.0), 1.0) == 0
