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
    for th1, th2 in zip(single.theta, double.theta):
        assert np.allclose(th1, th2, atol=1e-10)


def test_rank_deficient_data_is_flagged() -> None:
    n = 50
    model = fit_arx(np.zeros(n), np.zeros(n), ArxConfig(na=1, nb=1, nk=1))
    assert model.rank_deficient
    assert np.allclose(model.theta[0], 0.0)  # minimum-norm solution


def test_input_delay_is_respected() -> None:
    rng = np.random.default_rng(7)
    u = rng.normal(size=100)
    y = recursion_oracle(u, a=[], b=[1.0], nk=3)  # y[k] = u[k-3]
    model = fit_arx(u, y, ArxConfig(na=0, nb=1, nk=3))
    a, b = model.siso_coefficients()
    assert a.size == 0
    assert np.allclose(b, [1.0], atol=1e-10)
    assert np.allclose(simulate_arx(model, u), y, atol=1e-10)


def test_multi_input_single_output() -> None:
    rng = np.random.default_rng(9)
    u = rng.normal(size=(150, 2))
    y = np.zeros(150)
    for k in range(150):
        acc = 0.5 * y[k - 1] if k >= 1 else 0.0
        if k >= 1:
            acc += 0.3 * u[k - 1, 0] + 0.7 * u[k - 1, 1]
        y[k] = acc
    model = fit_arx(u, y, ArxConfig(na=1, nb=1, nk=1))
    a, b = model.split_coefficients(0)
    assert np.allclose(a[0], [0.5], atol=1e-8)
    assert np.allclose(b[0], [0.3], atol=1e-8)
    assert np.allclose(b[1], [0.7], atol=1e-8)


def test_multi_output_with_cross_coupling() -> None:
    rng = np.random.default_rng(11)
    u = rng.normal(size=150)
    y = np.zeros((150, 2))
    for k in range(1, 150):
        y[k, 0] = 0.4 * y[k - 1, 0] + 0.2 * y[k - 1, 1] + 1.0 * u[k - 1]
        y[k, 1] = 0.3 * y[k - 1, 1] + 0.5 * u[k - 1]
    model = fit_arx(u, y, ArxConfig(na=1, nb=1, nk=1))
    a0, b0 = model.split_coefficients(0)
    a1, b1 = model.split_coefficients(1)
    assert np.allclose([a0[0][0], a0[1][0], b0[0][0]], [0.4, 0.2, 1.0], atol=1e-7)
    assert abs(a1[0][0]) < 1e-7  # no y0 influence on y1
    assert np.allclose([a1[1][0], b1[0][0]], [0.3, 0.5], atol=1e-7)
    sim = simulate_arx(model, u)
    assert sim.shape == (150, 2)
    assert np.allclose(sim, y, atol=1e-6)


def test_per_channel_order_matrices() -> None:
    rng = np.random.default_rng(13)
    u = rng.normal(size=(120, 2))
    y = recursion_oracle(u[:, 0], a=[0.5], b=[2.0], nk=1)  # second input unused
    nb = np.array([[1, 0]])
    model = fit_arx(u, y, ArxConfig(na=1, nb=nb, nk=1))
    a, b = model.split_coefficients(0)
    assert np.allclose(a[0], [0.5], atol=1e-8)
    assert np.allclose(b[0], [2.0], atol=1e-8)
    assert b[1].size == 0
    sim = simulate_arx(model, u)
    assert sim.shape == (120, 1)  # multi-input models keep the column layout
    assert np.allclose(sim[:, 0], y, atol=1e-8)


# ---------- simulation ----------


def test_simulation_matches_recursion_oracle() -> None:
    rng = np.random.default_rng(17)
    for _ in range(20):
        na = int(rng.integers(0, 4))
        nb = int(rng.integers(0 if na else 1, 4))
        nk = int(rng.integers(0, 3))
        a = rng.uniform(-0.4, 0.4, size=na)  # keep the recursion stable
        b = rng.uniform(-2.0, 2.0, size=nb)
        model = ArxModel(
            na=np.array([[na]]), nb=np.array([[nb]]), nk=np.array([[nk]]),
            theta=[np.concatenate([a, b])], rank_deficient=False,
            residual_orthogonality=0.0, residual_rms=0.0,
        )
        u = rng.normal(size=80)
        assert np.allclose(simulate_arx(model, u), recursion_oracle(u, a, b, nk),
                           atol=1e-12)


def test_simulation_output_layout() -> None:
    u, y = make_siso_data(seed=19, n=50)
    model = fit_arx(u, y, ArxConfig(na=2, nb=2, nk=1))
    flat = simulate_arx(model, u)
    column = simulate_arx(model, u[:, None])
    assert flat.shape == (50,)
    assert column.shape == (50, 1)
    assert np.array_equal(flat, column[:, 0])


def test_simulation_channel_mismatch_rejected() -> None:
    u, y = make_siso_data(seed=21, n=50)
    model = fit_arx(u, y, ArxConfig(na=1, nb=1, nk=1))
    with pytest.raises(ValueError, match="channels"):
        simulate_arx(model, np.zeros((10, 2)))


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
    with pytest.raises(ValueError, match="nb must be scalar or shape"):
        fit_arx(np.zeros(10), np.zeros(10), ArxConfig(na=1, nb=np.ones((2, 2), int), nk=1))
    with pytest.raises(ValueError, match="no regressors"):
        fit_arx(np.zeros(10), np.zeros(10), ArxConfig(na=0, nb=0, nk=0))


def test_fit_rejects_too_short_traces() -> None:
    with pytest.raises(ValueError, match="regression rows"):
        fit_arx(np.zeros(4), np.zeros(4), ArxConfig(na=2, nb=2, nk=1))


def test_siso_accessor_rejects_multi_channel_models() -> None:
    rng = np.random.default_rng(23)
    u = rng.normal(size=(60, 2))
    y = u @ np.array([0.5, 0.25])
    model = fit_arx(u, y, ArxConfig(na=1, nb=1, nk=0))
    with pytest.raises(ValueError, match="single-input"):
        model.siso_coefficients()


def row_by_row_theta(us, ys, na, nb, nk) -> list[np.ndarray]:
    """Reference least-squares fit: one regressor row per sample, built
    entry by entry, over every trace long enough to give a full row."""
    thetas = []
    for i in range(na.shape[0]):
        k0 = max([int(v) for v in na[i]]
                 + [int(nk[i, j] + nb[i, j] - 1) for j in range(nb.shape[1]) if nb[i, j]])
        rows, targets = [], []
        for u, y in zip(us, ys):
            for k in range(k0, u.shape[0]):
                rows.append([y[k - lag, j] for j in range(y.shape[1])
                             for lag in range(1, na[i, j] + 1)]
                            + [u[k - nk[i, j] - lag, j] for j in range(u.shape[1])
                               for lag in range(nb[i, j])])
                targets.append(y[k, i])
        thetas.append(np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)[0])
    return thetas


def test_fit_matches_row_by_row_reference() -> None:
    rng = np.random.default_rng(29)
    for trial in range(40):
        ny, nu = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        na = rng.integers(0, 3, size=(ny, ny))
        nb = rng.integers(1, 3, size=(ny, nu))
        nk = rng.integers(0, 3, size=(ny, nu))
        # trace lengths include ones shorter than the first full row
        us = [rng.normal(size=(int(n), nu)) for n in rng.integers(0, 25, size=3)]
        us.append(rng.normal(size=(30, nu)))
        ys = [rng.normal(size=(u.shape[0], ny)) for u in us]
        model = fit_arx(us, ys, ArxConfig(na=na, nb=nb, nk=nk))
        for got, want in zip(model.theta, row_by_row_theta(us, ys, na, nb, nk)):
            np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")
