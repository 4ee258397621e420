"""Tests for the observability layer: tracer, metrics, exporters.

The two load-bearing guarantees (ISSUE acceptance criteria):

* **Determinism** — two runs with the same seed export byte-identical
  Chrome trace JSON.
* **Structure** — every span has ``start <= end`` and nests within its
  parent; export is chronologically ordered per cell.

Plus the zero-overhead-off contract: a traced run must report the same
simulation results as an untraced run (tracing observes, never steers).
"""

import json

import pytest

from repro.cluster import MCCK, ClusterConfig, run
from repro.obs import chrome_trace, render_summary
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from repro.workloads import generate_table1_jobs

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)

#: One span/instant name per lifecycle stage the issue enumerates.
LIFECYCLE_SPANS = ("job", "queued", "dispatch", "run", "admission",
                   "gate-wait", "offload", "negotiation-cycle")
LIFECYCLE_INSTANTS = ("matched", "completed")


@pytest.fixture(autouse=True)
def clean_globals():
    """Never leak an activated tracer/registry into other tests."""
    yield
    obs_trace.deactivate()
    obs_metrics.deactivate()


def traced_run(seed=7, policy=MCCK(), jobs=30):
    job_set = generate_table1_jobs(jobs, seed=seed)
    tracer = obs_trace.activate()
    registry = obs_metrics.activate()
    try:
        result = run(job_set, SMALL, policy)
    finally:
        obs_trace.deactivate()
        obs_metrics.deactivate()
    return result, tracer, registry


class TestDeterminism:
    def test_same_seed_exports_identical_json(self):
        _, first, _ = traced_run(seed=11)
        _, second, _ = traced_run(seed=11)
        assert chrome_trace(first) == chrome_trace(second)

    def test_different_seed_exports_differ(self):
        _, first, _ = traced_run(seed=11)
        _, second, _ = traced_run(seed=12)
        assert chrome_trace(first) != chrome_trace(second)

    def test_tracing_does_not_change_results(self):
        job_set = generate_table1_jobs(30, seed=7)
        untraced = run(job_set, SMALL, MCCK())
        traced, _, _ = traced_run(seed=7)
        assert traced.makespan == untraced.makespan
        assert traced.mean_core_utilization == untraced.mean_core_utilization


class TestSpanStructure:
    def test_spans_are_well_formed_and_nest(self):
        _, tracer, _ = traced_run()
        cell_end = {cell.pid: cell.last_time for cell in tracer.cells}
        assert tracer.spans
        for span in tracer.spans:
            end = span.end if span.end is not None else cell_end[span.pid]
            assert span.start <= end, span
            parent = span.parent
            if parent is None:
                continue
            parent_end = (
                parent.end if parent.end is not None else cell_end[parent.pid]
            )
            assert parent.start <= span.start, (parent, span)
            assert end <= parent_end, (parent, span)
            assert parent.pid == span.pid

    def test_every_lifecycle_stage_appears(self):
        _, tracer, _ = traced_run()
        counts = tracer.span_counts()
        for name in LIFECYCLE_SPANS:
            assert counts.get(name, 0) >= 1, name
        instant_names = {inst.name for inst in tracer.instants}
        for name in LIFECYCLE_INSTANTS:
            assert name in instant_names

    def test_completed_jobs_close_their_spans(self):
        result, tracer, _ = traced_run()
        assert result.completed_jobs == result.job_count
        for span in tracer.spans:
            if span.name == "job":
                assert span.closed
                assert span.args.get("status") == "completed"


class TestChromeExport:
    def test_json_parses_and_is_chronological_per_cell(self):
        _, tracer, _ = traced_run()
        doc = json.loads(chrome_trace(tracer))
        assert doc["displayTimeUnit"] == "ms"
        timed = [
            e for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        ]
        assert timed
        by_pid: dict[int, list[float]] = {}
        for event in timed:
            assert event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
            by_pid.setdefault(event["pid"], []).append(event["ts"])
        for stamps in by_pid.values():
            assert stamps == sorted(stamps)

    def test_metadata_names_processes_and_tracks(self):
        _, tracer, _ = traced_run()
        doc = json.loads(chrome_trace(tracer))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = [
            e for e in meta if e["name"] == "process_name"
        ]
        thread_names = [e for e in meta if e["name"] == "thread_name"]
        assert len(process_names) == len(tracer.cells)
        assert any(e["args"]["name"] == "negotiator" for e in thread_names)
        assert any(
            e["args"]["name"].startswith("job ") for e in thread_names
        )

    def test_unfinished_spans_are_closed_at_cell_end(self):
        tracer = Tracer()
        tracer.begin("dangling", "test", 5.0)
        tracer.instant("later", "test", 20.0)
        doc = json.loads(chrome_trace(tracer))
        (event,) = [e for e in doc["traceEvents"] if e["name"] == "dangling"]
        assert event["dur"] == pytest.approx((20.0 - 5.0) * 1e6)
        assert event["args"]["unfinished"] is True


class TestMetricsRegistry:
    def test_counters_match_simulation_outcomes(self):
        result, _, registry = traced_run()
        (cell,) = registry.cells
        assert cell.counters["schedd.jobs_submitted"].value == result.job_count
        assert (
            cell.counters["schedd.jobs_completed"].value
            == result.completed_jobs
        )

    def test_adopted_device_series_present(self):
        _, _, registry = traced_run()
        (cell,) = registry.cells
        assert any(
            name.endswith(".busy_cores") for name in cell.adopted
        )

    def test_summary_renders(self):
        _, tracer, registry = traced_run()
        text = render_summary(tracer, registry)
        assert "observability summary" in text
        assert "negotiator.cycles" in text
        assert "job.run_s" in text


class TestTracerUnit:
    def test_end_before_start_rejected(self):
        tracer = Tracer()
        span = tracer.begin("s", "t", 10.0)
        with pytest.raises(ValueError):
            tracer.end(span, 5.0)

    def test_double_end_rejected(self):
        tracer = Tracer()
        span = tracer.begin("s", "t", 1.0)
        tracer.end(span, 2.0)
        with pytest.raises(ValueError):
            tracer.end(span, 3.0)

    def test_end_keyed_is_noop_when_absent(self):
        tracer = Tracer()
        assert tracer.end_keyed(("missing", 1), 2.0) is None

    def test_enter_cell_renames_unused_first_cell(self):
        tracer = Tracer()
        tracer.enter_cell("fig8/uniform/MC")
        assert len(tracer.cells) == 1
        assert tracer.cell.label == "fig8/uniform/MC"

    def test_enter_cell_partitions_used_tracer(self):
        tracer = Tracer()
        tracer.enter_cell("a")
        tracer.begin("s", "t", 1.0)
        tracer.enter_cell("b")
        assert [cell.pid for cell in tracer.cells] == [1, 2]
        span = tracer.begin("s2", "t", 0.5)
        assert span.pid == 2
