"""In-memory span tracing around the public functions of each sasbt layer.

A span is recorded at every call of a wrapped function as
``(name, start, end, parent index, run id)``.  Wrapping rebinds *every*
reference to the function object that the sasbt modules hold, not only the
defining module's attribute, because several layers bind names at import
time:

* ``guidance`` and ``harness`` hold their own ``from .search import evolve``
  and ``nsga2_dt`` bindings;
* ``falsify`` holds ``fit_arx``, ``simulate_arx`` and ``robustness``, and
  reaches the annealer through the module-level ``OPTIMIZERS`` dict;
* the package attribute ``sasbt.falsify`` is the *function*, so the module
  is reached through ``sys.modules["sasbt.falsify"]``.

Calls made through a closure (``make_evaluator``) or a ``partial`` built at
run time look the name up when called, so they see the wrapper too.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, defining module, attribute); an attribute "Cls.meth" names a
# method.  Two functions may share one span name.
TARGETS = [
    ("scenario.evaluate_input", "sasbt.scenario", "evaluate_input"),
    ("search.evolve", "sasbt.search", "evolve"),
    ("search.non_dominated_sort", "sasbt.search", "non_dominated_sort"),
    ("guidance.fit_tree", "sasbt.guidance", "fit_tree"),
    ("guidance.nsga2_dt", "sasbt.guidance", "nsga2_dt"),
    ("guidance.self_referenced_snapshots", "sasbt.guidance",
     "self_referenced_snapshots"),
    ("indicators.non_dominated_filter", "sasbt.indicators", "non_dominated_filter"),
    ("indicators.hypervolume", "sasbt.indicators", "hypervolume"),
    ("indicators.generational_distance", "sasbt.indicators", "generational_distance"),
    ("indicators.spread", "sasbt.indicators", "spread"),
    ("indicators.distinct_critical", "sasbt.indicators", "distinct_critical"),
    ("harness.run", "sasbt.harness", "run_compare"),
    ("harness.run", "sasbt.harness", "run_falsify"),
    ("harness.to_csv", "sasbt.search", "EvaluationArchive.to_csv"),
    ("stl.robustness", "sasbt.stl", "robustness"),
    ("arx.fit_arx", "sasbt.arx", "fit_arx"),
    ("arx.simulate_arx", "sasbt.arx", "simulate_arx"),
    ("falsify.falsify", "sasbt.falsify", "falsify"),
    ("falsify.build_signal", "sasbt.falsify", "build_signal"),
    ("falsify.optimizer", "sasbt.falsify", "anneal_minimize"),
    ("falsify.optimizer", "sasbt.falsify", "random_minimize"),
    ("falsify.sut", "sasbt.falsify", "benchmark_sut"),
]

SPAN_NAMES = sorted({name for name, _, _ in TARGETS})


def fit_rows(u, model) -> int:
    """Regression rows of one ARX fit as sasbt.arx builds them: for each
    output, every sample of every trace from that output's row start on."""
    from sasbt.arx import _row_start

    traces = u if isinstance(u, (list, tuple)) else [u]
    return sum(max(len(t) - _row_start(model.na, model.nb, model.nk, i), 0)
               for i in range(model.ny) for t in traces)


class Tracer:
    """Records spans of wrapped calls; `run_id` tags the spans of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.fit_rows: dict[str, int] = {}  # run id -> arx.fit_rows
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts_rows = name == "arx.fit_arx"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserved so children index after the parent
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id)
            if counts_rows:
                rows = fit_rows(args[0] if args else kwargs["u"], result)
                self.fit_rows[self.run_id] = self.fit_rows.get(self.run_id, 0) + rows
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every sasbt reference to each target for the duration."""
        undo: list[tuple[object, str, object, str]] = []
        try:
            for name, module, attr in TARGETS:
                mod = sys.modules[module]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original, "attr"))
                    setattr(cls, meth, self.wrap(name, original))
                    continue
                original = getattr(mod, attr)
                wrapper = self.wrap(name, original)
                for holder in [m for k, m in sys.modules.items()
                               if k == "sasbt" or k.startswith("sasbt.")]:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, original, "attr"))
                            setattr(holder, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dval in list(value.items()):
                                if dval is original:
                                    undo.append((value, dkey, original, "item"))
                                    value[dkey] = wrapper
            yield self
        finally:
            for holder, key, original, kind in reversed(undo):
                if kind == "item":
                    holder[key] = original
                else:
                    setattr(holder, key, original)

    def layer_totals(self, run_id: str) -> tuple[dict[str, list], float]:
        """Per span name [calls, self seconds] of one run, and the summed
        duration of its root spans.  Self time is a span's duration minus
        the durations of its direct children."""
        child = {}
        for _, start, end, parent, rid in self.spans:
            if rid == run_id and parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        totals = {name: [0, 0.0] for name in SPAN_NAMES}
        roots = 0.0
        for idx, (name, start, end, parent, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child.get(idx, 0.0)
            if parent < 0:
                roots += end - start
        return totals, roots

    def write(self, path) -> None:
        """Write every span as tab-separated name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trun_id\n")
            fh.writelines(f"{n}\t{s!r}\t{e!r}\t{p}\t{r}\n"
                          for n, s, e, p, r in self.spans)
