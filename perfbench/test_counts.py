"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


def _traced(name: str, run_id: str) -> dict:
    spec = workloads.WORKLOADS[name]
    cfg = workloads.load_config(name, 3, spec.warmup)
    tracer = spans.Tracer()
    with tracer.installed():
        result = run.run_experiment(cfg, tracer, run_id)
    assert result.problems == []
    return run.layer_metrics(result, tracer, run_id, cfg.kind)


BENCHMARKED = [w["name"] for w in run.BENCH["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_counters_repeat_between_traced_runs(name):
    first, second = _traced(name, "a"), _traced(name, "b")
    counters = [k for k in first if k.endswith(".calls")] + list(run.EXACT)
    assert {k: first[k] for k in counters} == {k: second[k] for k in counters}
    for layer in workloads.WORKLOADS[name].bypasses:
        assert all(v == 0 for k, v in first.items()
                   if k.startswith(layer + ".") and k.endswith(".calls"))
    for layer in workloads.WORKLOADS[name].exercises:
        assert any(v > 0 for k, v in first.items()
                   if k.startswith(layer + ".") and k.endswith(".calls"))
    # one harness.run span covers the timed region, so the layer self times
    # account for the traced wall time and other.self_s is timer jitter
    assert first["harness.run.calls"] == 1


def _bindings() -> dict:
    import sasbt.falsify  # noqa: F401  (sys.modules entry used below)
    from sasbt.search import EvaluationArchive

    found = {(mod, key): value for mod, m in sys.modules.items()
             if mod == "sasbt" or mod.startswith("sasbt.")
             for key, value in vars(m).items() if callable(value)}
    optimizers = sys.modules["sasbt.falsify"].OPTIMIZERS
    found.update({("OPTIMIZERS", k): v for k, v in optimizers.items()})
    found[("EvaluationArchive", "to_csv")] = EvaluationArchive.__dict__["to_csv"]
    return found


def test_tracing_rebinds_every_reference_and_restores_them():
    import sasbt  # noqa: F401

    before = _bindings()
    originals = {getattr(sys.modules[mod], attr)
                 for _, mod, attr in spans.TARGETS if "." not in attr}
    with spans.Tracer().installed():
        during = _bindings()
        leftover = [key for key, value in during.items() if value in originals]
        assert leftover == []
        assert during[("sasbt.harness", "evolve")] is not before[("sasbt.harness", "evolve")]
        assert during[("OPTIMIZERS", "anneal")] is not before[("OPTIMIZERS", "anneal")]
    assert _bindings() == before


def test_every_per_layer_metric_has_a_prediction_per_workload():
    predicted = {m for p in workloads.PREDICTIONS for m in p["metrics"]}
    assert predicted == set(run.units("per_layer"))
    for p in workloads.PREDICTIONS:
        assert set(BENCHMARKED) <= set(p)
