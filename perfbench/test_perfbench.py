"""The benchmark's own tests: every workload at a tiny size emits every
metric named in ``BENCHMARK.json`` with its unit, the tracer's self times
add up, and each output check fires on a tampered result."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.trace import Tracer
from perfbench.workloads import (
    WORKLOADS,
    ExactWorkload,
    ServeRepeatWorkload,
    SolveWorkload,
    check_exact_value,
    check_sampled_expectation,
    check_trace,
)

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--scale", "tiny"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], "\n".join(lines)
    return result


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(capsys, workload):
    result = _result(capsys, workload, trace=0)
    assert result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_emitted_with_units(capsys, workload):
    result = _result(capsys, workload, trace=1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want


def test_traced_layers_match_the_workload(tmp_path):
    """Each workload loads the layers its description names."""
    def traced(cls):
        workload = cls(5, "tiny", str(tmp_path))
        tracer = Tracer()
        tracer.install()
        try:
            workload.round(0, tracer)
        finally:
            tracer.uninstall()
        return tracer

    solve = traced(SolveWorkload)
    totals = solve.layer_totals()
    assert totals["mbqc.backend.select"][0] == totals["core.solver.evaluate"][0]
    assert totals["analysis.resources.estimate"][0] >= totals["mbqc.backend.select"][0]
    assert "engine.density.integrate" not in totals

    exact = traced(ExactWorkload)
    totals = exact.layer_totals()
    assert "mbqc.backend.select" not in totals
    assert exact.counters["engine.density.branches"] > 0

    serve = traced(ServeRepeatWorkload)
    totals = serve.layer_totals()
    assert totals["serve.server.submit"][0] == 4
    assert serve.counters["engine.statevector.shots"] == 4 * 8


def test_uninstall_restores_the_program():
    import repro.mbqc.backend as backend
    import repro.serve.server as server

    before = (backend.select_backend, server.select_backend, server._execute_batch,
              server.JobServer._finish_batch, backend.StatevectorBackend.sample_batch)
    tracer = Tracer()
    tracer.install()
    assert backend.select_backend is not before[0]
    assert server.select_backend is not before[1]
    tracer.uninstall()
    after = (backend.select_backend, server.select_backend, server._execute_batch,
             server.JobServer._finish_batch, backend.StatevectorBackend.sample_batch)
    assert after == before


def test_self_time_is_span_minus_children():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    def parent():
        tracer.call("leaf", leaf)
        tracer.call("leaf", leaf)
        return sum(range(20000))

    tracer.call("parent", parent)
    totals = tracer.layer_totals()
    calls, total, self_ms = totals["parent"]
    assert calls == 1 and totals["leaf"][0] == 2
    assert self_ms == pytest.approx(total - totals["leaf"][1], abs=1e-9)
    assert 0 < self_ms < total


# -- output checks fire on tampered results ----------------------------------


def test_solve_check_fires_on_perturbed_expectation(tmp_path):
    workload = SolveWorkload(4, "tiny", str(tmp_path))
    rounds = [workload.round(0)]
    assert all(c.ok for c in workload.checks(rounds))
    inst, result = next((i, r) for i, r in rounds[-1].extra["solved"] if i.noise is None)
    solver = workload._solver(inst, 2048, 9)
    costs = solver.sample(result.gammas, result.betas).costs
    from repro.qaoa.simulator import qaoa_expectation

    reference = qaoa_expectation(inst.maxcut.to_qubo().cost_vector(), result.gammas, result.betas)
    assert check_sampled_expectation(costs, reference).ok
    assert not check_sampled_expectation(costs + 0.5, reference).ok


def test_exact_checks_fire_on_tampered_values(tmp_path):
    assert check_exact_value(-1.25, -1.25 + 1e-12).ok
    assert not check_exact_value(-1.25 + 1e-6, -1.25).ok
    assert check_trace(1.0 - 1e-12, 0.0).ok
    assert not check_trace(1.0 - 1e-6, 0.0).ok
    workload = ExactWorkload(4, "tiny", str(tmp_path))
    assert all(c.ok for c in workload.checks([workload.round(0)]))


def test_serve_receipt_check_fires_on_flipped_byte(tmp_path):
    workload = ServeRepeatWorkload(4, "tiny", str(tmp_path))
    rounds = [workload.round(0), workload.round(1)]
    checks = workload.checks(rounds)
    assert len(checks) == 3 and all(c.ok for c in checks)

    receipts = rounds[-1].extra["receipts"]
    for job, digest in receipts.items():
        receipts[job] = ("0" if digest[0] != "0" else "1") + digest[1:]
    checks = workload.checks(rounds)
    assert not any(c.ok for c in checks)


def test_sampled_check_tolerates_only_its_sigma_band():
    costs = np.array([0.0, 1.0] * 50)
    sem = costs.std(ddof=1) / np.sqrt(costs.size)
    assert check_sampled_expectation(costs, 0.5 + 3.9 * sem).ok
    assert not check_sampled_expectation(costs, 0.5 + 4.1 * sem).ok
