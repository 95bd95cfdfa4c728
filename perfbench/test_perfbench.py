"""Self-test of the benchmark; run with ``python3 -m pytest perfbench``.

Each workload runs as the benchmark command, in its own process, for one
short untraced run; two traced runs (which cover every workload) use the
same seed.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SEED = 3


def bench(workload: str, trace: int) -> dict:
    """One run of the benchmark command, a single pass when untraced."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def traced():
    return bench("graph", 1), bench("surd-query", 1)


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w, workloads.WHY[w]) for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(workload):
    result = bench(workload, 0)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] > len(workloads.make_pass(workload, SEED, 0))
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {n: u for n, u, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat(traced):
    first, second = traced
    assert first["correct"] and second["correct"]
    counts = {n for n, unit, _ in run.PER_LAYER if unit == "count"} | {"heights.applicable_frac"}
    assert {n: first["metrics"][n]["value"] for n in counts} == {n: second["metrics"][n]["value"] for n in counts}


def test_every_layer_metric_is_reached(traced):
    metrics = traced[0]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {n: u for n, u, _ in run.PER_LAYER}
    assert [n for n, m in metrics.items() if not m["value"] > 0] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_inputs_stay_in_domain(workload):
    for seed in range(30):
        for call in workloads.make_pass(workload, seed, 0):  # make_pass checks every domain
            assert call.units >= 1


def test_domain_check_rejects_unnormalised_surds():
    bad = workloads.Call("cutseq", ("cutseq", "(-3+sqrt(1000003))/1000", "--mod", "5", "--depth", "9"))
    with pytest.raises(workloads.InputError):
        workloads.check_domain(bad)


def test_gate_rejects_a_witness_the_modulus_does_not_divide():
    call = workloads.Call("loopcheck", ("loopcheck", "sqrt(2)", "--mod", "5"), mod=5)
    assert gate.check(call, 0, "NOTLOOP k=1 m=2 q=5\n") == ("loopcheck", "NOTLOOP", "5")
    with pytest.raises(gate.GateError):
        gate.check(call, 0, "NOTLOOP k=1 m=2 q=6\n")
    with pytest.raises(gate.GateError):
        gate.check(call, 2, "LOOP\n")


@pytest.mark.xfail(strict=True, reason="program defect: the dual-pushforward pool misses the "
                   "penultimate convergent when n*x is an integer (x=3/5, n=10)")
def test_known_dual_pushforward_violation():
    cli = run.load_program()
    call = workloads.Call("verify dual-pushforward", ("verify", "dual-pushforward", "--count", "20", "--seed", "2248"), 20)
    _, _, results = run.run_pass(cli, [call])
    code, out, _ = results[0]
    gate.check(call, code, out)
