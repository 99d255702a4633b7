"""Self-test of the benchmark; run with ``python3 -m pytest benchmarks -q``.

Telemetry must never change numerical outputs, tracing must undo every name it
rebinds, and the output checks must reject what they are meant to reject.
"""

import os

import pytest

import run
import tracer
import workloads

LAYERS = run.load_layers()
CLI = LAYERS["cli"]
SEED = 7

# Top self-time layer predicted for each workload.
TOP_LAYER = {"mse_grid": "estimators", "coverage_grid": "resample", "tune": "estimators", "reference": "models"}


def _namespaces():
    return {layer: dict(vars(module)) for layer, module in LAYERS.items()}


def _assert_restored(before):
    for layer, names in before.items():
        now = vars(LAYERS[layer])
        for name, value in names.items():
            assert now[name] is value, f"{layer}.{name} was not restored"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_matches_untraced_and_restores_names(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    before = _namespaces()
    plain = run.run_round(CLI, workload, 0, SEED, str(tmp_path / "plain"))
    trace = tracer.Tracer()
    with trace.installed(LAYERS):
        assert LAYERS["harness"].simulate_batch is not before["harness"]["simulate_batch"]
        traced = run.run_round(CLI, workload, 0, SEED, str(tmp_path / "traced"), trace=trace)
    _assert_restored(before)
    assert plain.problems == [] and traced.problems == []
    assert run.differing_outputs(str(tmp_path / "plain"), str(tmp_path / "traced")) == []
    self_s = {layer: traced.layers[f"{layer}.self_s"] for layer in tracer.LAYERS}
    assert max(self_s, key=self_s.get) == TOP_LAYER[name]
    assert len(trace.spans) == sum(traced.layers.get(f"{layer}.calls", 1) for layer in tracer.LAYERS)


def test_names_are_restored_when_the_traced_call_raises():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed(LAYERS):
            raise RuntimeError("boom")
    _assert_restored(before)


def test_reused_output_directory_counts_as_failed(tmp_path):
    workload = workloads.WORKLOADS["reference"]
    out = str(tmp_path / "out")
    assert run.run_round(CLI, workload, 0, SEED, out).problems == []
    again = run.run_round(CLI, workload, 1, SEED, out)
    assert any("reference_cache.json existed" in problem for problem in again.problems)


def test_grid_check_rejects_missing_and_non_finite_rows(tmp_path):
    workload = workloads.WORKLOADS["mse_grid"]
    out = str(tmp_path / "out")
    assert run.run_round(CLI, workload, 0, SEED, out).problems == []
    path = os.path.join(out, "mse_grid.csv")
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    b, ell, metric, _, stderr = lines[1].split(",")
    lines[1] = ",".join((b, ell, metric, "nan", stderr))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:-1]) + "\n")
    problems = workload.check(out, workload.config(SEED))
    assert any("285 rows" in problem for problem in problems)
    assert any("value=nan" in problem for problem in problems)
