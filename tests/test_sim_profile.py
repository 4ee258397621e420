"""Tests for the built-in simulation profiler."""

from repro.sim import Environment, profile


def _workload(env, n=50):
    def worker(env, delay):
        for _ in range(4):
            yield env.timeout(delay)

    for i in range(n):
        env.process(worker(env, 0.5 + i * 0.01))


class TestSimProfiler:
    def teardown_method(self):
        profile.deactivate()

    def test_inactive_by_default(self):
        env = Environment()
        assert env.profiler is None

    def test_environment_attaches_active_profiler(self):
        prof = profile.activate()
        env = Environment()
        assert env.profiler is prof
        _workload(env)
        env.run()
        assert prof.events_scheduled.get("Timeout", 0) == 200
        assert prof.events_fired.get("Timeout", 0) == 200
        assert prof.process_switches >= 200
        assert prof.heap_peak > 0
        assert prof.total_fired == prof.total_scheduled

    def test_wall_window_and_rate(self):
        prof = profile.activate()
        env = Environment()
        _workload(env)
        env.run()
        assert prof.wall_total > 0
        assert prof.events_per_second() > 0

    def test_telemetry_records_counted(self):
        from repro.phi.telemetry import StepSeries

        prof = profile.activate()
        series = StepSeries()
        series.record(0.0, 1.0)
        series.record(1.0, 2.0)
        assert prof.telemetry_records == 2

    def test_render_mentions_every_section(self):
        prof = profile.activate()
        env = Environment()
        _workload(env)
        env.run()
        text = prof.render()
        for needle in (
            "event kind",
            "Timeout",
            "total",
            "process switches",
            "heap peak",
            "telemetry records",
            "events/sec",
        ):
            assert needle in text

    def test_knapsack_class_counters_render(self):
        from collections import namedtuple

        from repro.core import DevicePacker

        Job = namedtuple("Job", "job_id declared_memory_mb declared_threads")
        prof = profile.activate()
        packer = DevicePacker(thread_capacity=240)
        # Eq. 1 values of 60 and 180 threads (15/16, 7/16) sum exactly.
        table1 = [Job(f"a{i}", 1000.0 + 500 * (i % 2), 60 + 120 * (i % 2))
                  for i in range(12)]
        packer.pack(table1, 8192.0)
        # 0.1 and 0.3 do not: the exactness guard falls back.
        packer.value_fn = lambda threads: 0.1 if threads == 4 else 0.3
        skewed = [Job(f"b{i}", 500.0 + 200 * (i % 2), 4 + 4 * (i % 2))
                  for i in range(20)]
        packer.pack(skewed, 4000.0)
        assert (prof.class_solves, prof.fallback_solves) == (1, 1)
        assert (prof.class_items, prof.classes) == (12, 2)
        text = prof.render()
        for needle in (
            "class-path solves",
            "fallback solves",
            "items → classes (mean)",
            "12.0 → 2.0",
        ):
            assert needle in text

    def test_candidate_index_counters_render(self):
        import random

        from repro.cluster import ComputeNode
        from repro.condor import (
            Collector,
            Negotiator,
            RandomPlacement,
            Schedd,
            Startd,
        )
        from repro.workloads import JobProfile, OffloadPhase

        prof = profile.activate()
        env = Environment()
        schedd = Schedd(env)
        collector = Collector()
        for i in range(4):
            node = ComputeNode(env, f"n{i}", mode="cosmic")
            collector.register(Startd(env, schedd, node, slots=4))
        for i in range(3):
            schedd.submit(JobProfile(
                job_id=f"j{i}", app="t",
                phases=(OffloadPhase(work=1, threads=60, memory_mb=500.0),),
                declared_memory_mb=500.0, declared_threads=60,
            ))
        negotiator = Negotiator(env, schedd, collector,
                                RandomPlacement(random.Random(0)))
        assert negotiator.negotiate_once() == 3
        assert (prof.indexed_draws, prof.index_settles) == (2, 2)
        text = prof.render()
        assert "indexed draws" in text
        assert "index settles" in text

    def test_deactivate_detaches_future_environments(self):
        prof = profile.activate()
        assert profile.deactivate() is prof
        assert profile.ACTIVE is None
        assert Environment().profiler is None

    def test_counters_span_multiple_environments(self):
        prof = profile.activate()
        for _ in range(2):
            env = Environment()
            _workload(env, n=10)
            env.run()
        assert prof.events_fired.get("Timeout", 0) == 2 * 40
