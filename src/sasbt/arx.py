"""ARX surrogate models: least-squares identification and free-run simulation.

The single-input single-output model predicts the output from its own lags
and from delayed lags of the input:

    y[k] = sum_{l=1..na} a[l] * y[k-l] + sum_{l=0..nb-1} b[l] * u[k-nk-l]

Fitting solves one least-squares problem over every supplied trace; free-run
simulation feeds predictions back recursively from zero initial lags, which
is the IIR filter `siso_filter` returns.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArxConfig:
    """Model orders."""

    na: int = 2  # output lags
    nb: int = 2  # input lags
    nk: int = 2  # input delay

    def validate(self) -> None:
        for name in ("na", "nb", "nk"):
            if getattr(self, name) < 0:
                raise ValueError(f"falsify.arx_{name} must be >= 0, got {getattr(self, name)}")
        if self.na + self.nb == 0:
            raise ValueError("falsify.arx_na and falsify.arx_nb are both 0: "
                             "the surrogate would have no coefficients")


def _as_traces(u, y) -> list[tuple[np.ndarray, np.ndarray]]:
    if isinstance(u, (list, tuple)) != isinstance(y, (list, tuple)):
        raise ValueError("u and y must both be arrays or both be lists of arrays")
    pairs = zip(u, y) if isinstance(u, (list, tuple)) else [(u, y)]
    out = [(np.asarray(uu, dtype=float), np.asarray(yy, dtype=float)) for uu, yy in pairs]
    for uu, yy in out:
        if uu.ndim != 1 or yy.ndim != 1:
            raise ValueError("u and y traces must be 1-D (single-input single-output)")
        if uu.size != yy.size:
            raise ValueError("u and y trace lengths differ")
    return out


@dataclass
class ArxModel:
    na: int
    nb: int
    nk: int
    theta: np.ndarray  # the na a coefficients, then the nb b coefficients
    rank_deficient: bool
    residual_orthogonality: float  # ||Phi^T r|| / max(1, ||Phi^T y||)
    residual_rms: float  # one-step prediction residual over the fit data

    ny = 1  # outputs; a class constant that perfbench/spans.py `fit_rows` reads

    def siso_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """The (a, b) coefficient arrays."""
        return self.theta[:self.na], self.theta[self.na:]

    def siso_filter(self) -> tuple[np.ndarray, np.ndarray]:
        """(num, den) of `lfilter` that free-runs this model:
        den = [1, -a], num = nk zeros then b (one zero when empty)."""
        a, b = self.siso_coefficients()
        num = np.concatenate((np.zeros(self.nk), b))
        return (num if num.size else np.zeros(1)), np.concatenate(([1.0], -a))


@functools.cache
def _linear_filter():
    """scipy's compiled direct-form filter kernel, `_sigtools._linear_filter`.

    The extension is loaded on its own from scipy's `signal` directory, once
    per process, so a falsify run imports neither `scipy` nor `scipy.signal`
    (which would also load `scipy.stats` and `scipy.linalg`).  It is not
    registered under scipy's dotted name, so a later `import scipy.signal`
    loads its own copy.

    Raises:
        ImportError: the directory holds no `_sigtools` extension.
    """
    import importlib.machinery
    import importlib.util

    scipy = importlib.util.find_spec("scipy")  # runs no scipy code
    if scipy is None:
        raise ImportError("scipy, which holds the compiled filter kernel, is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], "signal")
    spec = importlib.machinery.PathFinder.find_spec("_sigtools", [where])
    if spec is None:
        raise ImportError(f"scipy's compiled filter kernel _sigtools not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


def lfilter(num: np.ndarray, den: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`scipy.signal.lfilter(num, den, x)`, bit for bit, along the last axis
    of a float array: one trace (n,), or a stack of them with leading axes,
    each row filtered as alone, without importing `scipy.signal`.

    With feedback (`den.size > 1`) this calls the compiled direct-form kernel
    that the public function wraps in array-API dispatch (`_linear_filter`),
    once for the whole stack.  A pure FIR filter is what scipy's public path
    computes per trace: `np.convolve(num / den[0], row)` cut to the trace's
    n samples, which raises `ValueError` on an empty trace as scipy does.
    The kernel's sums can differ from the convolution's in the last bit, so
    the two paths stay apart.
    """
    if den.size == 1:
        taps, n = num / den[0], x.shape[-1]
        rows = x.reshape(math.prod(x.shape[:-1]), n)  # not -1: an empty trace reaches np.convolve
        return np.array([np.convolve(taps, row)[:n] for row in rows]).reshape(x.shape)
    return _linear_filter()(num, den, x, -1)


def _row_start(na: int, nb: int, nk: int, i: int = 0) -> int:
    """First sample with a full regressor row; `i` is ignored (perfbench/ passes it)."""
    return max(na, nk + nb - 1) if nb else na


def siso_rows(config: ArxConfig, n_samples: int) -> int:
    """Regression rows `fit_arx` takes from one trace of `n_samples`
    samples under `config`'s (non-negative) orders."""
    return max(0, n_samples - _row_start(config.na, config.nb, config.nk))


def fit_arx(u, y, config: ArxConfig = ArxConfig()) -> ArxModel:
    """Least-squares ARX fit over one or more traces.

    The regressor row of sample k holds y[k-1..k-na] then u[k-nk..k-nk-nb+1];
    a trace too short for one full row contributes none.

    Args:
        u: 1-D input trace, or a list of them.
        y: matching 1-D output trace(s).
        config: model orders (defaults na=nb=nk=2).

    Returns:
        ArxModel; `rank_deficient` flags a rank-deficient regressor (the
        minimum-norm solution is returned), and `residual_orthogonality`
        certifies the normal equations were solved.

    Raises:
        ValueError: fewer usable regression rows than coefficients, traces
            that are not 1-D or differ in length, or invalid orders.
    """
    traces = _as_traces(u, y)
    config.validate()
    na, nb, nk = config.na, config.nb, config.nk
    n_params = na + nb
    k0 = _row_start(na, nb, nk)
    # a trace without a full regressor row gives none (a slice would wrap around)
    traces = [(uu, yy) for uu, yy in traces if uu.size > k0]
    counts = np.array([uu.size - k0 for uu, _ in traces], dtype=np.intp)
    n_rows = int(counts.sum())
    if n_rows < n_params:
        raise ValueError(f"{n_rows} regression rows for {n_params} coefficients")
    # rows stay trace-major: row r, from trace i, is sample r + k0 * (i + 1)
    # of the concatenated traces (each trace skips its first k0 samples), and
    # each column is one gather at its lag
    us_all = np.concatenate([uu for uu, _ in traces])
    ys_all = np.concatenate([yy for _, yy in traces])
    rows = np.arange(n_rows) + np.repeat(k0 * np.arange(1, counts.size + 1), counts)
    phi = np.empty((n_rows, n_params))
    for lag in range(1, na + 1):
        phi[:, lag - 1] = ys_all[rows - lag]
    for lag in range(nb):
        phi[:, na + lag] = us_all[rows - nk - lag]
    tgt = ys_all[rows]
    theta, _, rank, _ = np.linalg.lstsq(phi, tgt, rcond=None)
    resid = tgt - phi @ theta
    scale = max(1.0, float(np.linalg.norm(phi.T @ tgt)))
    return ArxModel(na=na, nb=nb, nk=nk, theta=theta,
                    rank_deficient=rank < n_params,
                    residual_orthogonality=float(np.linalg.norm(phi.T @ resid)) / scale,
                    residual_rms=float(np.sqrt(float(resid @ resid) / resid.size)))


def simulate_arx(model: ArxModel, u) -> np.ndarray:
    """Free-run simulation of a 1-D input: predictions are fed back
    recursively and all lags before the trace start are zero."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("input must be 1-D (single-input single-output)")
    return lfilter(*model.siso_filter(), u)
