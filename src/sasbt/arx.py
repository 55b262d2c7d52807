"""ARX surrogate models: least-squares identification and free-run simulation.

The model predicts each output from lagged outputs and delayed lagged
inputs:

    y_i[k] = sum_j sum_{l=1..na[i,j]} a[i,j,l] * y_j[k-l]
           + sum_j sum_{l=0..nb[i,j]-1} b[i,j,l] * u_j[k-nk[i,j]-l]

Orders may be scalars (broadcast) or per-channel matrices.  Fitting stacks
one least-squares problem per output over every supplied trace; free-run
simulation feeds predictions back recursively from zero initial lags.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy  # only to locate the filter kernel; no scipy submodule is imported


@dataclass(frozen=True)
class ArxConfig:
    """Model orders; scalars broadcast over all channel pairs."""

    na: int | np.ndarray = 2  # output lags
    nb: int | np.ndarray = 2  # input lags
    nk: int | np.ndarray = 2  # input delay


def _order_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=int)
    if arr.ndim == 0:
        arr = np.full((rows, cols), int(arr))
    if arr.shape != (rows, cols):
        raise ValueError(f"{name} must be scalar or shape ({rows}, {cols})")
    if np.any(arr < 0):
        raise ValueError(f"{name} entries must be >= 0")
    return arr


def _as_traces(u, y) -> list[tuple[np.ndarray, np.ndarray]]:
    if isinstance(u, (list, tuple)) != isinstance(y, (list, tuple)):
        raise ValueError("u and y must both be arrays or both be lists of arrays")
    pairs = list(zip(u, y)) if isinstance(u, (list, tuple)) else [(u, y)]
    out = []
    for uu, yy in pairs:
        uu = np.asarray(uu, dtype=float)
        yy = np.asarray(yy, dtype=float)
        if uu.ndim == 1:
            uu = uu[:, None]
        if yy.ndim == 1:
            yy = yy[:, None]
        if uu.shape[0] != yy.shape[0]:
            raise ValueError("u and y trace lengths differ")
        out.append((uu, yy))
    return out


@dataclass
class ArxModel:
    na: np.ndarray  # (ny, ny)
    nb: np.ndarray  # (ny, nu)
    nk: np.ndarray  # (ny, nu)
    theta: list[np.ndarray]  # per output: concatenated a then b coefficients
    rank_deficient: bool
    residual_orthogonality: float  # max_i ||Phi^T r|| / max(1, ||Phi^T y||)
    residual_rms: float  # one-step prediction residual over the fit data

    @property
    def ny(self) -> int:
        return self.na.shape[0]

    @property
    def nu(self) -> int:
        return self.nb.shape[1]

    def split_coefficients(self, output: int = 0) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-channel (a, b) coefficient arrays for one output row."""
        th = self.theta[output]
        a, b = [], []
        pos = 0
        for j in range(self.ny):
            n = self.na[output, j]
            a.append(th[pos:pos + n])
            pos += n
        for j in range(self.nu):
            n = self.nb[output, j]
            b.append(th[pos:pos + n])
            pos += n
        return a, b

    def siso_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        if self.ny != 1 or self.nu != 1:
            raise ValueError("model is not single-input single-output")
        a, b = self.split_coefficients(0)
        return a[0], b[0]

    def siso_filter(self) -> tuple[np.ndarray, np.ndarray]:
        """(num, den) of `lfilter` that free-runs this SISO model:
        den = [1, -a], num = nk zeros then b (one zero when empty)."""
        a, b = self.siso_coefficients()
        num = np.concatenate((np.zeros(int(self.nk[0, 0])), b))
        return (num if num.size else np.zeros(1)), np.concatenate(([1.0], -a))


@functools.cache
def _linear_filter():
    """scipy's compiled direct-form filter kernel, `_sigtools._linear_filter`.

    The extension is loaded on its own from scipy's `signal` directory, once
    per process, so a falsify run never imports `scipy.signal` (which would
    also load `scipy.stats` and `scipy.linalg`).  It is not registered under
    scipy's dotted name, so a later `import scipy.signal` loads its own copy.

    Raises:
        ImportError: the directory holds no `_sigtools` extension.
    """
    import importlib.machinery
    import importlib.util

    where = os.path.join(os.path.dirname(scipy.__file__), "signal")
    spec = importlib.machinery.PathFinder.find_spec("_sigtools", [where])
    if spec is None:
        raise ImportError(f"scipy's compiled filter kernel _sigtools not found in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


def lfilter(num: np.ndarray, den: np.ndarray, x: np.ndarray) -> np.ndarray:
    """`scipy.signal.lfilter(num, den, x)`, bit for bit, on 1-D float arrays,
    without importing `scipy.signal`.

    With feedback (`den.size > 1`) this calls the compiled direct-form kernel
    that the public function wraps in array-API dispatch (`_linear_filter`).
    A pure FIR filter is what scipy's public path computes for a 1-D signal:
    `np.convolve(num / den[0], x)` cut to `x.size` samples, which raises
    `ValueError` on an empty `x` as scipy does.  The kernel's sums can differ
    from the convolution's in the last bit, so the two paths stay apart.
    """
    if den.size == 1:
        return np.convolve(num / den[0], x)[:x.size]
    return _linear_filter()(num, den, x, -1)


def _row_start(na: np.ndarray, nb: np.ndarray, nk: np.ndarray, i: int) -> int:
    lags = [int(v) for v in na[i]]
    lags += [int(nk[i, j] + nb[i, j] - 1) for j in range(nb.shape[1]) if nb[i, j] > 0]
    return max(lags) if lags else 0


def siso_rows(config: ArxConfig, n_samples: int) -> int:
    """Regression rows `fit_arx` takes from one SISO trace of `n_samples`
    samples under `config`'s (non-negative) orders."""
    na, nb, nk = (_order_matrix(v, 1, 1, name) for name, v in
                  (("na", config.na), ("nb", config.nb), ("nk", config.nk)))
    return max(0, n_samples - _row_start(na, nb, nk, 0))


def fit_arx(u, y, config: ArxConfig | None = None) -> ArxModel:
    """Least-squares ARX fit over one or more traces.

    Args:
        u: input trace (N,) / (N, nu), or a list of such traces.
        y: matching output trace(s) (N,) / (N, ny).
        config: model orders (defaults na=nb=nk=2).

    Returns:
        ArxModel; `rank_deficient` flags a rank-deficient regressor (the
        minimum-norm solution is returned), and `residual_orthogonality`
        certifies the normal equations were solved.

    Raises:
        ValueError: fewer usable regression rows than coefficients, shape
            mismatches, or invalid orders.
    """
    config = config or ArxConfig()
    traces = _as_traces(u, y)
    nu = traces[0][0].shape[1]
    ny = traces[0][1].shape[1]
    na = _order_matrix(config.na, ny, ny, "na")
    nb = _order_matrix(config.nb, ny, nu, "nb")
    nk = _order_matrix(config.nk, ny, nu, "nk")
    theta: list[np.ndarray] = []
    rank_deficient = False
    worst_orth = 0.0
    sq_sum = 0.0
    n_res = 0
    for i in range(ny):
        n_params = int(na[i].sum() + nb[i].sum())
        if n_params == 0:
            raise ValueError(f"output {i} has no regressors (na and nb all zero)")
        k0 = _row_start(na, nb, nk, i)
        blocks: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for uu, yy in traces:
            n = uu.shape[0]
            if n <= k0:  # no full regressor row (and a slice would wrap around)
                continue
            cols = [yy[k0 - lag:n - lag, j]
                    for j in range(ny) for lag in range(1, na[i, j] + 1)]
            cols += [uu[k0 - nk[i, j] - lag:n - nk[i, j] - lag, j]
                     for j in range(nu) for lag in range(nb[i, j])]
            blocks.append(np.column_stack(cols))
            targets.append(yy[k0:n, i])
        n_rows = sum(block.shape[0] for block in blocks)
        if n_rows < n_params:
            raise ValueError(
                f"output {i}: {n_rows} regression rows for {n_params} coefficients")
        phi = np.vstack(blocks)
        tgt = np.concatenate(targets)
        th, _, rank, _ = np.linalg.lstsq(phi, tgt, rcond=None)
        rank_deficient = rank_deficient or rank < n_params
        resid = tgt - phi @ th
        scale = max(1.0, float(np.linalg.norm(phi.T @ tgt)))
        worst_orth = max(worst_orth, float(np.linalg.norm(phi.T @ resid)) / scale)
        sq_sum += float(resid @ resid)
        n_res += resid.size
        theta.append(th)
    rms = float(np.sqrt(sq_sum / n_res)) if n_res else 0.0
    return ArxModel(na=na, nb=nb, nk=nk, theta=theta,
                    rank_deficient=rank_deficient,
                    residual_orthogonality=worst_orth, residual_rms=rms)


def simulate_arx(model: ArxModel, u) -> np.ndarray:
    """Free-run simulation: predictions are fed back recursively and all
    lags before the trace start are zero.

    Returns an array matching the input layout: (N,) for single-output
    models driven by 1-D input, else (N, ny).
    """
    arr = np.asarray(u, dtype=float)
    squeeze = arr.ndim == 1 and model.ny == 1
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[1] != model.nu:
        raise ValueError(f"input has {arr.shape[1]} channels, model expects {model.nu}")
    n = arr.shape[0]
    if model.ny == 1 and model.nu == 1:
        y = lfilter(*model.siso_filter(), arr[:, 0])
        return y if squeeze else y[:, None]
    y = np.zeros((n, model.ny))
    for k in range(n):
        for i in range(model.ny):
            acc = 0.0
            pos = 0
            th = model.theta[i]
            for j in range(model.ny):
                for lag in range(1, model.na[i, j] + 1):
                    if k - lag >= 0:
                        acc += th[pos] * y[k - lag, j]
                    pos += 1
            for j in range(model.nu):
                for lag in range(model.nb[i, j]):
                    idx = k - model.nk[i, j] - lag
                    if idx >= 0:
                        acc += th[pos] * arr[idx, j]
                    pos += 1
            y[k, i] = acc
    return y[:, 0] if squeeze else y
