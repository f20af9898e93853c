"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Run from the root of the checkout.  Checks the tracer's self-time arithmetic
on a synthetic nested call, the install/remove round trip on the library,
that every workload at toy size emits every metric BENCHMARK.json names, and
that the benchmark fails without the library.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracing.time, "perf_counter", clock)
    tracer = tracing.Tracer()

    def inner():
        clock.now += 2.0

    inner = tracer._span_wrapper("inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0
        inner()

    outer = tracer._span_wrapper("outer", outer)
    with tracer.span("pass"):
        clock.now += 0.5
        outer()
    selfs = tracer.layer_self_times(0, len(tracer.names))
    assert selfs == {"pass": 0.5, "outer": 4.0, "inner": 4.0}
    assert list(tracer.parents) == [-1, 0, 1, 1]
    assert tracing.self_times(["a", "b", "c"], [0.0, 1.0, 2.0], [10.0, 5.0, 3.0],
                              [-1, 0, 1]) == [6.0, 3.0, 1.0]


def test_install_patches_every_lookup_and_remove_restores():
    from nprox import polynomials, projectors

    original = polynomials.tensor_product
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert projectors.tensor_product is not original
        assert projectors.tensor_product is polynomials.tensor_product
        assert projectors.NewtonStructuredProjector.__call__ is \
            projectors.NewtonStructuredProjector.apply
    finally:
        tracer.remove()
    assert projectors.tensor_product is original
    assert polynomials.tensor_product is original


def test_missing_target_is_named(monkeypatch):
    monkeypatch.setattr(tracing, "SPAN_TARGETS",
                        tracing.SPAN_TARGETS + [("x", "nprox.zoo", ["no_such_family"])])
    with pytest.raises(tracing.MissingTarget, match="nprox.zoo.no_such_family"):
        tracing.Tracer().install()


def _bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", ["cylinder", "rate_biv", "zoo_laws"])
@pytest.mark.parametrize("trace", [0, 1])
def test_toy_workload_emits_every_metric(workload, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert workload in [w["name"] for w in spec["workloads"]]
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "zoo_laws", 0)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        assert not line.startswith("{")
