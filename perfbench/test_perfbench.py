"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

Cells here are shrunk (fewer jobs, fewer nodes) so the suite stays
quick; the full-size cells are checked by the benchmark's own runs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import cells  # noqa: E402
import noise  # noqa: E402
import spans  # noqa: E402
from repro.cluster.simulation import run_mcc, run_mcck  # noqa: E402
from repro.experiments.common import PAPER_CLUSTER, make_workload  # noqa: E402
from repro.faults import derive_fault_seed  # noqa: E402
from repro.net import derive_net_seed  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def reduced(name: str) -> cells.Workload:
    workload = cells.WORKLOADS[name]
    return dataclasses.replace(workload, jobs=60, nodes=min(workload.nodes, 32))


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_every_workload_spec_builds(name):
    workload = cells.WORKLOADS[name]
    cell = cells.setup(workload, 42)
    assert cell.pool.schedd.total_jobs == workload.jobs
    assert len(cell.nodes) == workload.nodes
    assert (cell.pool.fabric is not None) == workload.chaos
    assert cell.generate_s > 0 and cell.build_s > 0


def test_workloads_match_benchmark_json():
    listed = {entry["name"]: entry["why"] for entry in BENCHMARK["workloads"]}
    assert listed == {name: w.why for name, w in cells.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_cell_reproduces_the_library_run(name):
    workload = reduced(name)
    outcome = cells.run(cells.setup(workload, 3))
    jobs = make_workload(("table1", workload.jobs, 3))
    config = PAPER_CLUSTER.resized(workload.nodes)
    if workload.configuration == "MCCK":
        result = run_mcck(jobs, config)
    else:
        result = run_mcc(
            jobs, config,
            faults=cells.CHAOS_FAULTS if workload.chaos else None,
            fault_seed=derive_fault_seed(cells.CHAOS_SEED),
            net=cells.CHAOS_NET if workload.chaos else None,
            net_seed=derive_net_seed(cells.CHAOS_SEED),
        )
    assert outcome.makespan_s == result.makespan
    assert outcome.completed == result.completed_jobs
    assert outcome.negotiation_cycles == result.negotiation_cycles
    assert outcome.core_util == result.mean_core_utilization


@pytest.mark.parametrize("name", sorted(cells.WORKLOADS))
def test_traced_and_untraced_digests_agree(name):
    workload = reduced(name)
    untraced = cells.run(cells.setup(workload, 5))
    with spans.Tracer() as tracer:
        traced = tracer.cell(cells.run, cells.setup(workload, 5))
    assert traced.digest == untraced.digest
    assert traced.counters == untraced.counters
    times = tracer.layer_times()
    assert sum(times.values()) == pytest.approx(tracer.cell_seconds(), rel=1e-9)
    assert all(seconds >= -1e-9 for seconds in times.values())
    assert tracer.calls()["sim"] == 1


def test_tracer_restores_every_wrapped_function():
    wrapped = [(owner, name) for owner, name, _ in spans._targets()]
    wrapped += [(spans.DevicePacker, "pack"), (spans._negotiator, "symmetric_match")]
    before = [(owner, name, vars(owner)[name]) for owner, name in wrapped]
    with spans.Tracer():
        assert any(vars(owner)[name] is not fn for owner, name, fn in before)
    assert all(vars(owner)[name] is fn for owner, name, fn in before)


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(trace):
    workload = reduced("chaos-mcc")
    result, report = run.measure(workload, 11, 0.01, trace, {})
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workload.jobs * sum(report["cells"].values())
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in listed
    }
    assert all(
        isinstance(m["value"], (int, float)) for m in result["metrics"].values()
    )
    assert report["reference"].startswith("none")
    assert {"cpu", "nproc", "python", "numpy", "git_commit"} <= set(report["host"])


def test_traced_layers_sum_to_traced_cell():
    result, _ = run.measure(reduced("paper-mcck"), 11, 0.01, True, {})
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layers = sum(metrics[name] for name in run.SELF_TIME_METRICS)
    assert layers == pytest.approx(metrics["traced_cell_s"], rel=1e-9)
    assert metrics["core.pack.calls"] > 0
    assert metrics["net.sends"] == 0


def test_corrupted_reference_fails_every_job():
    workload = reduced("paper-mcck")
    references = {workload.name: {"11": {"digest": "0" * 64}}}
    result, report = run.measure(workload, 11, 0.01, False, references)
    assert not result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert report["problems"]


def test_raising_cell_fails_every_job(monkeypatch):
    def broken(cell):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cells, "run", broken)
    workload = reduced("pool1024-mcc")
    result, report = run.measure(workload, 11, 0.01, False, {})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == workload.jobs
    assert "RuntimeError" in report["problems"][0]


def test_corrupted_reference_exits_nonzero(tmp_path, monkeypatch, capsys):
    workload = reduced("paper-mcck")
    path = tmp_path / "references.json"
    path.write_text(json.dumps({workload.name: {"11": {"digest": "f" * 64}}}))
    monkeypatch.setattr(run, "REFERENCES", path)
    monkeypatch.setitem(cells.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "11", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] == result["attempted"] > 0


def test_references_hold_development_and_held_out_seeds():
    references = json.loads(run.REFERENCES.read_text())
    for name in cells.WORKLOADS:
        assert {"42", "7"} <= set(references[name])
    at_42 = {name: references[name]["42"] for name in cells.WORKLOADS}
    assert round(at_42["paper-mcck"]["makespan_s"], 2) == 2363.50
    assert at_42["paper-mcck"]["completed"] == 1000
    assert round(at_42["pool1024-mcc"]["makespan_s"], 2) == 80.25
    assert at_42["pool1024-mcc"]["completed"] == 300
    assert round(at_42["chaos-mcc"]["makespan_s"], 2) == 2942.85
    assert at_42["chaos-mcc"]["completed"] == 910


def test_checkout_without_program_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "paper-mcck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "n, pct",
    [(17, 0.0), (20, 50.0), (34, 50.0), (40, 75.0), (907, 95.0), (1000, 99.0)],
)
def test_tail_reports_only_percentiles_with_ten_samples_beyond(n, pct):
    tail = noise.tail([float(i) for i in range(n)])
    assert tail["pct"] == pct
    assert tail["n"] == n
    if pct:
        beyond = sum(1 for i in range(n) if i > tail["value"])
        assert beyond >= noise.MIN_BEYOND
