"""Discrete-time quantitative requirement semantics.

A requirement is a tree of atoms (bounds on one output signal), Boolean
connectives and bounded temporal operators.  Robustness follows the usual
min/max quantitative semantics evaluated directly on trace samples (no
interpolation): positive means satisfied with margin, negative violated.
There is one evaluator and one trace layout: `compile_requirement` checks a
formula against a trace shape once and returns trace -> robustness at time
zero, a trace being (n_signals, n_samples) and a stack adding leading axes;
`robustness` calls it once on the transpose of a time-first trace.

A compact text form is supported for config files:

    always[0,30] y0 <= 3.5
    eventually[2,10] (y0 >= 1 and not y1 <= 0.2)

with `not` > `and` > `or` precedence and parentheses as usual.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class Atom:
    signal: int
    op: str  # "le" or "ge"
    bound: float


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Always:
    lo: float
    hi: float
    child: "Formula"


@dataclass(frozen=True)
class Eventually:
    lo: float
    hi: float
    child: "Formula"


Formula = Union[Atom, Not, And, Or, Always, Eventually]


# ---------- robustness ----------


def _window_samples(lo: float, hi: float, period: float) -> tuple[int, int]:
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid window [{lo}, {hi}]")
    ia = int(math.ceil(lo / period - 1e-9))
    ib = int(math.floor(hi / period + 1e-9))
    if ib < ia:
        raise ValueError(f"window [{lo}, {hi}] contains no sample at period {period}")
    return ia, ib


def horizon_samples(formula: Formula, period: float) -> int:
    """Number of samples beyond the evaluation instant the formula needs."""
    if isinstance(formula, Atom):
        return 0
    if isinstance(formula, Not):
        return horizon_samples(formula.child, period)
    if isinstance(formula, (And, Or)):
        return max(horizon_samples(c, period) for c in formula.children)
    if isinstance(formula, (Always, Eventually)):
        _, ib = _window_samples(formula.lo, formula.hi, period)
        return ib + horizon_samples(formula.child, period)
    raise TypeError(f"not a formula node: {formula!r}")


def _signal(formula: Formula, period: float, n_signals: int,
            m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Compile one node: (..., n_signals, n) traces -> their robustness at
    samples 0..m-1, with time on the last axis."""
    if isinstance(formula, Atom):
        sig, bound = formula.signal, formula.bound
        if not 0 <= sig < n_signals:
            raise ValueError(f"signal index {sig} outside trace "
                             f"with {n_signals} signals")
        if formula.op == "le":
            return lambda tr: bound - tr[..., sig, :m]
        return lambda tr: tr[..., sig, :m] - bound
    if isinstance(formula, Not):
        child = _signal(formula.child, period, n_signals, m)
        return lambda tr: -child(tr)
    if isinstance(formula, (And, Or)):
        parts = [_signal(c, period, n_signals, m) for c in formula.children]
        ufunc = np.minimum if isinstance(formula, And) else np.maximum
        return lambda tr: ufunc.reduce(np.stack([p(tr) for p in parts]), axis=0)
    if isinstance(formula, (Always, Eventually)):
        ia, ib = _window_samples(formula.lo, formula.hi, period)
        inner = _signal(formula.child, period, n_signals, m + ib)
        ufunc = np.minimum if isinstance(formula, Always) else np.maximum
        if m == 1:  # one window: reduce its slice, bit-identical to the view
            return lambda tr: ufunc.reduce(inner(tr)[..., ia:], axis=-1, keepdims=True)
        width = ib - ia + 1
        return lambda tr: ufunc.reduce(np.lib.stride_tricks.sliding_window_view(
            inner(tr)[..., ia:], width, axis=-1), axis=-1)
    raise TypeError(f"not a formula node: {formula!r}")


def compile_requirement(formula: Formula, period: float, n_samples: int,
                        n_signals: int = 1) -> Callable[[np.ndarray], np.ndarray]:
    """Robustness at time zero as a function of the trace, checked once.

    Every check `robustness` makes of a formula (period, windows, horizon,
    signal indices) runs here, and each temporal node's window becomes a
    fixed slice.  Inner nodes build their robustness signal only over the
    samples their parent reads; the top node is evaluated at t = 0 alone.
    min and max reduce in the same order as a full evaluation, so results
    are bit-identical to it, signed zeros and NaN included.

    The returned callable checks nothing about its argument, an
    (n_signals, n_samples) trace with time on the last axis, or a stack of
    them with leading axes, e.g. (k, n_signals, n_samples).  It returns the
    robustness with the trace axes dropped: a 0-d array for one trace, (k,)
    for that stack, each entry bit-identical to scoring its trace alone (a
    NaN's sign aside, which numpy's min and max loops do not all keep).

    Raises:
        ValueError: non-positive period, invalid or empty windows, a
            horizon of `n_samples` samples or more, or a signal index
            outside `n_signals`.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    if n_samples <= horizon_samples(formula, period):
        raise ValueError("trace shorter than the formula horizon")
    top = _signal(formula, period, n_signals, 1)
    return lambda traces: top(traces)[..., 0]


def robustness(formula: Formula, trace: np.ndarray, period: float) -> float:
    """Quantitative robustness of the trace at time zero.

    Args:
        formula: requirement tree.
        trace: (N,) single-signal or (N, s) multi-signal sample matrix.
        period: sample period (seconds per sample), > 0.

    Returns:
        Robustness value; sign matches Boolean satisfaction.

    Raises:
        ValueError: as `compile_requirement`, or a trace that is empty or
            not 1-D or 2-D.
    """
    arr = np.asarray(trace, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("trace must be a non-empty 1-D or 2-D array")
    return float(compile_requirement(formula, period, *arr.shape)(arr.T))


# ---------- text form ----------

_TOKEN = re.compile(r"""\s*(?:
    (?P<name>always|eventually|and|or|not)\b
  | (?P<signal>y\d+)
  | (?P<op><=|>=)
  | (?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
  | (?P<punct>[()\[\],])
)""", re.VERBOSE)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot tokenize requirement at: {text[pos:]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, kind: str | None = None, value: str | None = None) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of requirement text")
        if (kind and tok[0] != kind) or (value and tok[1] != value):
            raise ValueError(f"unexpected token {tok[1]!r}")
        self.i += 1
        return tok

    def parse(self) -> Formula:
        f = self.or_expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens after requirement: {self.peek()[1]!r}")
        return f

    def or_expr(self) -> Formula:
        parts = [self.and_expr()]
        while self.peek() == ("name", "or"):
            self.take()
            parts.append(self.and_expr())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def and_expr(self) -> Formula:
        parts = [self.unary()]
        while self.peek() == ("name", "and"):
            self.take()
            parts.append(self.unary())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of requirement text")
        if tok == ("name", "not"):
            self.take()
            return Not(self.unary())
        if tok[0] == "name" and tok[1] in ("always", "eventually"):
            self.take()
            self.take("punct", "[")
            lo = float(self.take("num")[1])
            self.take("punct", ",")
            hi = float(self.take("num")[1])
            self.take("punct", "]")
            child = self.unary()
            return Always(lo, hi, child) if tok[1] == "always" else Eventually(lo, hi, child)
        if tok == ("punct", "("):
            self.take()
            f = self.or_expr()
            self.take("punct", ")")
            return f
        if tok[0] == "signal":
            sig = int(self.take()[1][1:])
            op = "le" if self.take("op")[1] == "<=" else "ge"
            bound = float(self.take("num")[1])
            return Atom(sig, op, bound)
        raise ValueError(f"unexpected token {tok[1]!r}")


def parse_requirement(text: str) -> Formula:
    """Parse the compact text form into a formula tree."""
    return _Parser(_tokenize(text)).parse()


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _wrap(f: Formula) -> str:
    s = format_requirement(f)
    return f"({s})" if isinstance(f, (And, Or)) else s


def format_requirement(f: Formula) -> str:
    """Inverse of parse_requirement (structural round trip)."""
    if isinstance(f, Atom):
        op = "<=" if f.op == "le" else ">="
        return f"y{f.signal} {op} {_fmt_num(f.bound)}"
    if isinstance(f, Not):
        return f"not {_wrap(f.child)}"
    if isinstance(f, Always):
        return f"always[{_fmt_num(f.lo)},{_fmt_num(f.hi)}] {_wrap(f.child)}"
    if isinstance(f, Eventually):
        return f"eventually[{_fmt_num(f.lo)},{_fmt_num(f.hi)}] {_wrap(f.child)}"
    if isinstance(f, (And, Or)):
        return (" and " if isinstance(f, And) else " or ").join(map(_wrap, f.children))
    raise TypeError(f"not a formula node: {f!r}")
