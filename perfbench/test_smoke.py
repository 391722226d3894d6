"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(workload, trace, seed=3):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return proc.stdout, result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted_with_units(workload):
    stdout, result, record = _result(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, float) and math.isfinite(value) and value > 0
    for name in ("identify_s", "check_s", "error_rate"):
        assert f"  {name} " in stdout
    env = record["environment"]
    assert {"nproc", "blas_threads", "python", "numpy", "scipy", "highs"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_self_times(workload):
    _, result, record = _result(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for layers in record["layers_per_pass"]:
        self_total = sum(layers[f"{lay}.self_s"] for lay in
                         ("cli", "measures", "surplus", "ot", "conjugate", "identify",
                          "equilibrium"))
        assert 0 < self_total <= layers["trace.wall_s"]
    trace = json.loads((HERE / "out" / f"trace-{workload}-seed3.json").read_text())
    spans = {s[1]: dict(zip(trace["fields"], s)) for s in trace["spans"]}
    for span in spans.values():
        if span["parent"] is None:
            assert span["layer"] == "cli"
        else:
            assert spans[span["parent"]]["op"] == span["op"]


def test_counts_repeat_between_traced_runs():
    workload = "identify-poly-cells"
    counts = []
    for _ in range(2):
        _, result, _ = _result(workload, 1, seed=5)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["surplus.twist_calls"] > 0 and counts[0]["ot.lp_calls"] > 0


def test_wrappers_reach_every_import_site():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import hedonic.cli  # noqa: F401  (loads every hedonic module)
    import tracing
    from hedonic import equilibrium, identify, ot, surplus

    original = ot.solve_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ot.solve_exact is not original
        assert identify.solve_exact is ot.solve_exact
        assert equilibrium.solve_exact is ot.solve_exact
        assert hedonic.solve_exact is ot.solve_exact
        assert identify.check_twist is surplus.check_twist
        assert ot.linprog.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert ot.solve_exact is original and identify.solve_exact is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
