"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest qbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _ops(name, tmp_path, seed=5):
    return workloads.WORKLOADS[name](seed, tmp_path, size="tiny")


def _traced_passes(name, tmp_path, passes=2):
    ops = _ops(name, tmp_path)
    tracer = tracing.Tracer()
    out = []
    for _ in range(passes):
        base = len(tracer.spans)
        tracer.counts.clear()
        with tracer.installed():
            seconds, _, results = run.run_pass(ops, tracer)
        tally = run.Tally()
        tally.record(ops, results)
        assert tally.failed == 0, tally.problems
        out.append((sum(seconds), tracing.span_metrics(tracer.spans, base, tracer.counts)))
    return out


def _bindings():
    """Every attribute of every qgrass module and class, by identity."""
    seen = {}
    for mod in tracing._qgrass_modules():
        for key, value in vars(mod).items():
            seen[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    seen[(mod.__name__, key, attr)] = member
    return seen


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_passes_its_checks_at_tiny_size(name, tmp_path):
    ops = _ops(name, tmp_path)
    tally = run.Tally()
    tally.record(ops, run.run_pass(ops)[2])
    assert (tally.attempted, tally.failed) == (len(ops), 0), tally.problems


def test_failed_op_is_counted_and_the_run_goes_on(tmp_path):
    ops = _ops("solve", tmp_path)
    broken = workloads.Op("broken", lambda: 1 / 0, lambda r: None, lambda r: {})
    wrong = workloads.Op("wrong", lambda: 1, lambda r: "wrong answer", lambda r: {})
    tally = run.Tally()
    tally.record([broken, wrong, *ops], run.run_pass([broken, wrong, *ops])[2])
    assert (tally.attempted, tally.failed) == (len(ops) + 2, 2)
    assert [p.split(":")[0] for p in tally.problems] == ["broken", "wrong"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_runs_with_one_seed_give_identical_counts(name, tmp_path):
    def counts(metrics):
        return {k: v for k, v in metrics.items() if not k.endswith("_s")}

    first = [counts(m) for _w, m in _traced_passes(name, tmp_path)]
    second = [counts(m) for _w, m in _traced_passes(name, tmp_path)]
    assert first[0] == first[1] == second[0] == second[1]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_sum_to_no_more_than_the_pass(name, tmp_path):
    for wall, metrics in _traced_passes(name, tmp_path):
        # the pass time sums the op times; the "workload" span also covers the loop
        selfs = [v for k, v in metrics.items()
                 if k.endswith(".self_s") and k != "workload.self_s"]
        assert min(selfs) >= -1e-9
        assert sum(selfs) <= wall + 1e-9


def test_traced_run_rebinds_by_value_imports_and_restores_them(tmp_path):
    import qgrass
    from qgrass import algebra, catalog, cli, entangle, qstate, suites

    before = _bindings()
    imported_by_value = [
        (catalog, "solve_weight", entangle.solve_weight),
        (catalog, "tensor", qstate.tensor),
        (cli, "catalog_construct", catalog.catalog_construct),
        (cli, "run_suites", suites.run_suites),
        (qstate, "normal_order", algebra.normal_order),
        (qgrass, "solve_weight", entangle.solve_weight),
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        for mod, attr, orig in imported_by_value:
            assert getattr(mod, attr) is not orig
            assert getattr(mod, attr).__wrapped__ is orig
        run.run_pass(_ops("construct_large", tmp_path), tracer)
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def test_workloads_separate_the_layers(tmp_path):
    metrics = {name: _traced_passes(name, tmp_path, passes=1)[0][1]
               for name in run.WORKLOAD_NAMES}
    assert metrics["solve"].get("entangle.entanglement_report.calls", 0) == 0
    assert metrics["construct_large"].get("entangle.solve_weight.calls", 0) == 0
    assert metrics["verify_all"]["algebra.mul.calls"] >= 1000
    # every per-layer metric is measured somewhere, so none is misnamed
    never_zero = {name for name, _u, _b in tracing.PER_LAYER} - {
        "trace.overhead_s", "host.probe_s", "catalog.match.global_phase",
        "catalog.match.mismatch", "qstate.tensor.setup_s", "catalog.build_recipe.setup_s",
    } - {f"{layer}.raised" for layer in tracing.LAYERS}
    seen = {k for m in metrics.values() for k, v in m.items() if v > 0}
    assert never_zero - seen == set()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]


def test_command_prints_one_json_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify_all", "--seed", "2",
         "--seconds", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == run.END_TO_END


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
