"""Tests for ARX identification and free-run simulation.

The oracle is a direct difference-equation recursion written here: data
generated from known coefficients must be recovered by the least-squares fit
to tight tolerance, and the library's simulation must match the recursion.
The `lfilter` helper is checked byte for byte against public
`scipy.signal.lfilter`, and must name where it looked when scipy's compiled
filter kernel is missing.
"""

import importlib.machinery
import os
import re

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from sasbt import arx
from sasbt.arx import ArxConfig, ArxModel, fit_arx, lfilter, simulate_arx


def recursion_oracle(u: np.ndarray, a, b, nk: int) -> np.ndarray:
    """y[k] = sum_l a[l] y[k-1-l] + sum_l b[l] u[k-nk-l], zero initial lags."""
    n = len(u)
    y = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for lag, coeff in enumerate(a, start=1):
            if k - lag >= 0:
                acc += coeff * y[k - lag]
        for lag, coeff in enumerate(b):
            if k - nk - lag >= 0:
                acc += coeff * u[k - nk - lag]
        y[k] = acc
    return y


A_TRUE = np.array([0.5, 0.2])
B_TRUE = np.array([1.0, 0.3])


def make_siso_data(seed: int = 0, n: int = 200) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    return u, recursion_oracle(u, A_TRUE, B_TRUE, nk=1)


# ---------- coefficient recovery ----------


def test_noise_free_round_trip_recovers_coefficients() -> None:
    u, y = make_siso_data()
    model = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
    a, b = model.siso_coefficients()
    assert np.allclose(a, A_TRUE, atol=1e-6)
    assert np.allclose(b, B_TRUE, atol=1e-6)
    assert not model.rank_deficient
    assert model.residual_rms < 1e-8


def test_recovered_model_reproduces_fresh_trace() -> None:
    u, y = make_siso_data(seed=0)
    model = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
    u2 = np.random.default_rng(99).normal(size=150)
    y2 = recursion_oracle(u2, A_TRUE, B_TRUE, nk=1)
    assert np.allclose(simulate_arx(model, u2), y2, atol=1e-6)


def test_residual_orthogonality_certificate() -> None:
    rng = np.random.default_rng(3)
    u, y_clean = make_siso_data(seed=3)
    y_noisy = y_clean + 0.1 * rng.normal(size=y_clean.size)
    for y in (y_clean, y_noisy):
        model = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
        assert model.residual_orthogonality <= 1e-8


def test_duplicated_trace_gives_same_solution() -> None:
    u, y = make_siso_data(seed=5)
    single = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
    double = fit_arx([u, u], [y, y], ArxConfig(na=2, nb=2, nk=1))
    assert np.allclose(single.theta, double.theta, atol=1e-10)


def test_rank_deficient_data_is_flagged() -> None:
    n = 50
    model = fit_arx(np.zeros(n), np.zeros(n), ArxConfig(na=1, nb=1, nk=1))
    assert model.rank_deficient
    assert np.allclose(model.theta, 0.0)  # minimum-norm solution


def test_input_delay_is_respected() -> None:
    rng = np.random.default_rng(7)
    u = rng.normal(size=100)
    y = recursion_oracle(u, a=[], b=[1.0], nk=3)  # y[k] = u[k-3]
    model = fit_arx(u, y, ArxConfig(na=0, nb=1, nk=3))
    a, b = model.siso_coefficients()
    assert a.size == 0
    assert np.allclose(b, [1.0], atol=1e-10)
    assert np.allclose(simulate_arx(model, u), y, atol=1e-10)


def test_pure_fir_model_round_trip() -> None:
    # na = 0: the fit is an input-only regression and the free run a convolution
    rng = np.random.default_rng(13)
    u = rng.normal(size=120)
    y = recursion_oracle(u, a=[], b=[2.0, -0.5, 0.25], nk=1)
    model = fit_arx(u, y, ArxConfig(na=0, nb=3, nk=1))
    a, b = model.siso_coefficients()
    assert a.size == 0
    assert np.allclose(b, [2.0, -0.5, 0.25], atol=1e-10)
    assert model.siso_filter()[1].tolist() == [1.0]
    assert np.allclose(simulate_arx(model, u), y, atol=1e-10)


def test_traces_of_different_lengths_are_pooled() -> None:
    # every full regressor row of a piece is an exact equation of the system,
    # and a piece too short for one full row contributes nothing
    u, y = make_siso_data(seed=11, n=60)
    cuts = [(0, 25), (25, 27), (27, 60)]
    us, ys = [u[i:j] for i, j in cuts], [y[i:j] for i, j in cuts]
    config = ArxConfig(na=2, nb=2, nk=1)
    model = fit_arx(us, ys, config)
    a, b = model.siso_coefficients()
    assert np.allclose(a, A_TRUE, atol=1e-8)
    assert np.allclose(b, B_TRUE, atol=1e-8)
    without_short = fit_arx([us[0], us[2]], [ys[0], ys[2]], config)
    np.testing.assert_array_equal(model.theta, without_short.theta)


def test_siso_rows_counts_the_fit_rows() -> None:
    # the harness sizes a falsify run's initial dataset with siso_rows
    rng = np.random.default_rng(31)
    for na, nb, nk in [(2, 2, 1), (0, 1, 3), (2, 0, 0), (0, 3, 0), (1, 2, 2)]:
        config = ArxConfig(na=na, nb=nb, nk=nk)
        k0 = max([na] + ([nk + nb - 1] if nb else []))
        for n in range(8):
            rows = arx.siso_rows(config, n)
            assert rows == max(0, n - k0)
            u, y = rng.normal(size=n), rng.normal(size=n)
            if rows < na + nb:
                with pytest.raises(ValueError, match=f"^{rows} regression rows"):
                    fit_arx(u, y, config)
            else:
                assert fit_arx(u, y, config).theta.shape == (na + nb,)


# ---------- simulation ----------


def test_simulation_matches_recursion_oracle() -> None:
    rng = np.random.default_rng(17)
    for _ in range(20):
        na = int(rng.integers(0, 4))
        nb = int(rng.integers(0 if na else 1, 4))
        nk = int(rng.integers(0, 3))
        a = rng.uniform(-0.4, 0.4, size=na)  # keep the recursion stable
        b = rng.uniform(-2.0, 2.0, size=nb)
        model = ArxModel(na=na, nb=nb, nk=nk, theta=np.concatenate([a, b]),
                         rank_deficient=False, residual_orthogonality=0.0,
                         residual_rms=0.0)
        u = rng.normal(size=80)
        assert np.allclose(simulate_arx(model, u), recursion_oracle(u, a, b, nk),
                           atol=1e-12)


def test_simulation_output_layout() -> None:
    u, y = make_siso_data(seed=19, n=50)
    model = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
    flat = simulate_arx(model, u)
    assert flat.shape == (50,) and flat.dtype == np.float64
    assert np.array_equal(flat, simulate_arx(model, u.tolist()))
    assert np.array_equal(simulate_arx(model, u[:1]), flat[:1])


def test_simulation_channel_mismatch_rejected() -> None:
    # a single-input model takes exactly one input channel
    u, y = make_siso_data(seed=21, n=50)
    model = fit_arx(u, y, ArxConfig(na=1, nb=1, nk=1))
    for bad in (np.zeros((10, 2)), np.zeros((10, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match="1-D"):
            simulate_arx(model, bad)


def test_siso_filter_holds_delay_zeros_and_negated_feedback() -> None:
    def model(na: int, nb: int, nk: int, theta) -> ArxModel:
        return ArxModel(na=na, nb=nb, nk=nk, theta=np.array(theta, dtype=float),
                        rank_deficient=False, residual_orthogonality=0.0,
                        residual_rms=0.0)

    m = model(2, 2, 3, [0.5, 0.2, 1.0, 0.3])
    a, b = m.siso_coefficients()
    assert a.tolist() == [0.5, 0.2] and b.tolist() == [1.0, 0.3]
    num, den = m.siso_filter()
    assert num.tolist() == [0.0, 0.0, 0.0, 1.0, 0.3]
    assert den.tolist() == [1.0, -0.5, -0.2]
    # no input terms and no delay: one zero numerator tap, an all-zero free run
    num, den = model(1, 0, 0, [0.5]).siso_filter()
    assert num.tolist() == [0.0] and den.tolist() == [1.0, -0.5]
    assert not simulate_arx(model(1, 0, 0, [0.5]), np.ones(6)).any()


# ---------- the lfilter helper ----------


COEFFICIENTS = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
SAMPLES = st.one_of(st.floats(-1e3, 1e3),
                    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))


def filter_outcome(fn, num, den, x) -> tuple:
    """("ok", dtype, shape, bytes) of the trace, or ("raises", type, message)."""
    try:
        y = fn(num, den, x)
    except ValueError as exc:
        return "raises", type(exc), str(exc)
    return "ok", y.dtype, y.shape, y.tobytes()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_lfilter_matches_public_scipy_bit_for_bit(data) -> None:
    # den of length 1 is a pure FIR filter, which scipy convolves; with three
    # or more taps a direct-form filter would round some sums differently
    n_den = data.draw(st.integers(1, 4))
    lead = data.draw(st.one_of(st.floats(0.25, 2.0), st.floats(-2.0, -0.25)))
    den = np.array([lead] + data.draw(st.lists(COEFFICIENTS, min_size=n_den - 1,
                                               max_size=n_den - 1)))
    zeros = [0.0] * data.draw(st.integers(0, 3))  # the input delay nk
    num = np.array(zeros + data.draw(st.lists(COEFFICIENTS, min_size=3 if n_den == 1 else 1,
                                              max_size=6)))
    n = data.draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    x = np.array(data.draw(st.lists(SAMPLES, min_size=n, max_size=n)), dtype=float)
    expected = filter_outcome(scipy.signal.lfilter, num, den, x)
    assert filter_outcome(lfilter, num, den, x) == expected
    assert expected[0] == "ok" or (n_den == 1 and n == 0)  # scipy's FIR path rejects empty x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_lfilter_filters_a_stack_as_its_rows_bit_for_bit(data) -> None:
    # den of length 1 convolves each row; longer ones run the kernel once
    n_den = data.draw(st.integers(1, 4))
    lead = data.draw(st.one_of(st.floats(0.25, 2.0), st.floats(-2.0, -0.25)))
    den = np.array([lead] + data.draw(st.lists(COEFFICIENTS, min_size=n_den - 1,
                                               max_size=n_den - 1)))
    num = np.array([0.0] * data.draw(st.integers(0, 3))
                   + data.draw(st.lists(COEFFICIENTS, min_size=1, max_size=6)))
    k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 60))
    stack = np.array(data.draw(st.lists(SAMPLES, min_size=k * n, max_size=k * n)),
                     dtype=float).reshape(k, n)
    got = lfilter(num, den, stack)
    assert got.shape == (k, n)
    assert got.tobytes() == b"".join(lfilter(num, den, row.copy()).tobytes() for row in stack)


def test_lfilter_names_the_searched_directory_when_the_kernel_is_missing(monkeypatch) -> None:
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    arx._linear_filter.cache_clear()
    where = os.path.join(os.path.dirname(scipy.__file__), "signal")
    try:
        with pytest.raises(ImportError, match=re.escape(where)):
            lfilter(np.array([1.0]), np.array([1.0, -0.5]), np.ones(5))
        # a pure FIR filter needs no kernel
        assert lfilter(np.array([1.0]), np.array([2.0]), np.ones(2)).tolist() == [0.5, 0.5]
    finally:
        arx._linear_filter.cache_clear()


# ---------- validation ----------


def test_fit_rejects_bad_shapes_and_orders() -> None:
    u = np.zeros(10)
    y = np.zeros(12)
    with pytest.raises(ValueError, match="lengths differ"):
        fit_arx(u, y)
    with pytest.raises(ValueError, match="both"):
        fit_arx([u], np.zeros(10))
    with pytest.raises(ValueError, match="na"):
        fit_arx(np.zeros(10), np.zeros(10), ArxConfig(na=-1, nb=1, nk=1))
    with pytest.raises(ValueError, match=r"falsify\.arx_na and falsify\.arx_nb are both 0"):
        fit_arx(np.zeros(10), np.zeros(10), ArxConfig(na=0, nb=0, nk=0))


def test_fit_rejects_too_short_traces() -> None:
    with pytest.raises(ValueError, match="regression rows"):
        fit_arx(np.zeros(4), np.zeros(4), ArxConfig(na=2, nb=2, nk=1))


def row_by_row_theta(us, ys, na: int, nb: int, nk: int) -> np.ndarray:
    """Reference least-squares fit: one regressor row per sample, built
    entry by entry, over every trace long enough to give a full row."""
    k0 = max([na] + ([nk + nb - 1] if nb else []))
    rows, targets = [], []
    for u, y in zip(us, ys):
        for k in range(k0, u.size):
            rows.append([y[k - lag] for lag in range(1, na + 1)]
                        + [u[k - nk - lag] for lag in range(nb)])
            targets.append(y[k])
    return np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)[0]


def test_fit_matches_row_by_row_reference() -> None:
    rng = np.random.default_rng(29)
    for trial in range(40):
        na, nb, nk = (int(v) for v in
                      (rng.integers(0, 3), rng.integers(1, 3), rng.integers(0, 3)))
        # trace lengths include ones shorter than the first full row
        us = [rng.normal(size=int(n)) for n in rng.integers(0, 25, size=3)]
        us.append(rng.normal(size=30))
        ys = [rng.normal(size=u.size) for u in us]
        model = fit_arx(us, ys, ArxConfig(na=na, nb=nb, nk=nk))
        np.testing.assert_array_equal(model.theta, row_by_row_theta(us, ys, na, nb, nk),
                                      err_msg=f"trial {trial}")
