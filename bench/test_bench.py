"""Tests of the benchmark harness itself (about a minute):

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import draws  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hamosc import criteria  # noqa: E402


def _namespaces():
    """Every callable attribute of the traced modules, by (module, name)."""
    return {
        (ns.__name__, attr): value
        for ns in tracing.NAMESPACES
        for attr, value in vars(ns).items()
        if callable(value)
    }


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def test_same_seed_same_draws():
    first, again, other = (draws.campaign_draws(seed, 16) for seed in (7, 7, 8))
    assert [c for c, _ in first] == [k % 8 for k in range(16)]
    for (_, s), (_, t) in zip(first, again):
        assert s.name == t.name
        for x in (0.0, 1.7, 5.0):
            assert _same(s.eval(x), t.eval(x))
            assert _same(s.analytic_derivatives(x), t.analytic_derivatives(x))
    assert not all(_same(s.eval(1.0), t.eval(1.0)) for (_, s), (_, t) in zip(first, other))


def test_default_seed_gives_recorded_verdicts():
    refs = workloads.load_references()
    seed = workloads.CAMPAIGN_SEED
    expected = refs[workloads.reference_key("campaign", seed)]
    ops = workloads.build("campaign", seed, refs)
    assert len(ops) == len(expected) == workloads.CAMPAIGN_DRAWS
    assert [op.run(lambda s: s) for op in ops] == [expected[op.name] for op in ops]


def test_wrong_reference_is_counted_as_failure():
    refs = workloads.load_references()
    good = refs["packaged_analyze"]
    (euler,) = [op for op in workloads.build("packaged_analyze", 0, refs) if "euler" in op.name]
    wrong = {euler.name: dict(good[euler.name], kind=criteria.OSCILLATORY)}
    assert run.run_pass([euler], lambda s: s, good).failures == {}
    failed = run.run_pass([euler], lambda s: s, wrong).failures
    assert list(failed) == [euler.name] and "differs from reference" in failed[euler.name]

    # a single wrong zero count fails a simulate op just the same
    sim_ref = refs["packaged_simulate"]["simulate.example_3_2_zero_drift"]
    off_by_one = dict(sim_ref, zeros=[n + (i == 1) for i, n in enumerate(sim_ref["zeros"])])
    assert workloads.check(sim_ref, None, 0, sim_ref) is None
    assert workloads.check(sim_ref, None, 0, off_by_one) is not None
    assert workloads.check(None, "RuntimeError: x", 0, None) is not None
    assert workloads.check(sim_ref, None, 1, None) is not None


def test_tracer_restores_every_name_on_error():
    before = _namespaces()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="inside the traced block"):
        with tracer.installed():
            assert criteria.analyze is not before[("hamosc.criteria", "analyze")]
            raise RuntimeError("inside the traced block")
    assert len(tracer.patched) > 40
    for ns, attr, original in tracer.patched:
        assert getattr(ns, attr) is original
    assert _namespaces() == before


def test_traced_run_matches_untraced_and_restores():
    refs = workloads.load_references()
    ops = [op for op in workloads.build("packaged_analyze", 0, refs) if "euler" in op.name]
    ops += [op for op in workloads.build("packaged_simulate", 0, refs) if "zero_drift" in op.name]
    op_refs = {**refs["packaged_analyze"], **refs["packaged_simulate"]}
    before = _namespaces()
    (plain, wrapped), metrics, tracer = run.traced(ops, op_refs)
    assert _namespaces() == before
    assert plain.failures == {} and wrapped.failures == {}
    assert wrapped.outputs == plain.outputs
    zeros = sum(plain.outputs["simulate.example_3_2_zero_drift"]["zeros"])
    assert metrics["odeint.frame.solves"] == 5
    assert metrics["odeint.detect.calls"] == 5
    assert metrics["odeint.detect.zeros"] == zeros
    assert metrics["criteria.psd_reduce.calls"] == 2
    assert metrics["odeint.frame.fev_per_step"] >= 7.0
    assert set(run.per_layer_units()) <= set(metrics)
    assert {span[4] for span in tracer.spans} == {op.name for op in ops}


def test_benchmark_json_matches_the_runner():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_runner_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, "bench/run.py", "--workload", "packaged_analyze", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
