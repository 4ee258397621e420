"""Integration tests: fault injection against live cluster simulations.

These drive real MC/MCC/MCCK runs through chaotic fault schedules and
assert the recovery invariants the subsystem promises: the queue always
drains, retries stay bounded, every injected event is accounted for, and
identical (seed, profile) pairs reproduce identical outcomes.
"""

import json
from dataclasses import asdict

import pytest

from repro.cluster import MCC, MCCK, PAPER_POLICIES, ClusterConfig, run
from repro.condor import COMPLETED, FAILED, CondorPool, ExclusivePlacement
from repro.cluster import ComputeNode
from repro.faults import (
    DEVICE_FAIL,
    FaultInjector,
    FaultProfile,
    FaultSchedule,
    NODE_CRASH,
    derive_fault_seed,
)
from repro.sim import Environment
from repro.workloads import generate_table1_jobs

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)
#: Aggressive mix with short downtimes so faults land within the short
#: makespans of 40-job runs.
CHAOS = FaultProfile.chaos(
    20.0, reset_downtime_s=20.0, node_downtime_s=60.0
)
FAULT_SEED = derive_fault_seed(7)


@pytest.fixture(scope="module")
def jobs():
    return generate_table1_jobs(40, seed=7)


@pytest.fixture(scope="module")
def chaotic(jobs):
    return {
        policy.name: run(jobs, SMALL, policy, faults=CHAOS, fault_seed=FAULT_SEED)
        for policy in PAPER_POLICIES
    }


class TestRecoveryInvariants:
    def test_queue_drains_under_chaos(self, chaotic, jobs):
        # run_to_completion returned, so all_done fired; every job ended
        # as exactly one of completed / terminally failed.
        for result in chaotic.values():
            assert result.job_count == len(jobs)
            assert result.completed_jobs + result.infra_failed_jobs == len(jobs)

    def test_chaos_actually_happened(self, chaotic):
        assert any(r.faults_injected > 0 for r in chaotic.values())
        assert any(r.requeues > 0 for r in chaotic.values())

    def test_recoveries_are_counted(self, chaotic):
        for result in chaotic.values():
            # A job that completed after a failed run shows up in both
            # retried_completed and (through its earlier runs) requeues.
            assert result.retried_completed <= result.requeues

    def test_chaos_costs_makespan(self, chaotic, jobs):
        clean = run(jobs, SMALL, MCC())
        assert chaotic["MCC"].makespan >= clean.makespan

    def test_deterministic_replay(self, jobs, chaotic):
        again = run(jobs, SMALL, MCCK(), faults=CHAOS, fault_seed=FAULT_SEED)
        a = json.dumps(asdict(chaotic["MCCK"]), sort_keys=True)
        b = json.dumps(asdict(again), sort_keys=True)
        assert a == b

    def test_null_profile_matches_fault_free(self, jobs):
        base = json.dumps(asdict(run(jobs, SMALL, MCCK())), sort_keys=True)
        null = json.dumps(
            asdict(run(jobs, SMALL, MCCK(), faults=FaultProfile(), fault_seed=1)),
            sort_keys=True,
        )
        assert base == null


class _Harness:
    """A tiny pool + injector the tests can inspect after the run."""

    def __init__(self, jobs, profile, seed, nodes=2, devices=1):
        self.env = Environment()
        self.nodes = [
            ComputeNode(
                self.env, name=f"node{i}", num_devices=devices,
                mode="exclusive",
            )
            for i in range(nodes)
        ]
        self.pool = CondorPool(
            self.env, self.nodes, ExclusivePlacement(),
            cycle_interval=2.0,
            heartbeat_timeout=3.0 * profile.heartbeat_interval_s,
        )
        self.pool.submit(jobs)
        self.schedule = FaultSchedule.generate(profile, seed)
        self.injector = FaultInjector(
            self.env, self.schedule, self.pool, self.nodes
        )
        self.injector.start()

    def run(self):
        return self.pool.run_to_completion()


class TestInjectorAccounting:
    def test_every_event_logged(self, jobs):
        harness = _Harness(jobs, CHAOS, FAULT_SEED)
        harness.run()
        injector = harness.injector
        fired = [
            e for e in harness.schedule.events if e.time <= harness.env.now
        ]
        assert len(injector.log) >= len(fired)
        assert injector.applied + injector.skipped == len(injector.log)
        for record in injector.log:
            assert record.outcome in ("applied", "skipped-last-device", "no-target")
            if record.outcome == "applied":
                assert record.target is not None

    def test_retries_bounded(self, jobs):
        harness = _Harness(jobs, CHAOS, FAULT_SEED)
        harness.run()
        policy = harness.pool.schedd.retry_policy
        for record in harness.pool.schedd.all_records():
            assert record.attempts <= policy.max_retries + 1
            assert record.status in (COMPLETED, FAILED)

    def test_last_device_is_never_killed_permanently(self, jobs):
        # One node, one card, permanent failures only: every device-fail
        # must be skipped (else the queue deadlocks) and logged as such.
        profile = FaultProfile(device_fail_rate=30.0)
        harness = _Harness(
            jobs[:10], profile, FAULT_SEED, nodes=1, devices=1
        )
        harness.run()
        assert harness.injector.applied == 0
        outcomes = {r.outcome for r in harness.injector.log}
        assert outcomes <= {"skipped-last-device", "no-target"}
        assert harness.nodes[0].devices[0].state == "healthy"

    def test_node_crash_deregisters_and_reinstates(self, jobs):
        profile = FaultProfile(node_crash_rate=10.0, node_downtime_s=50.0)
        harness = _Harness(jobs, profile, FAULT_SEED)
        harness.run()
        crashes = [
            r for r in harness.injector.log
            if r.kind == NODE_CRASH and r.outcome == "applied"
        ]
        if not crashes:
            pytest.skip("schedule landed no node crash inside the makespan")
        # Recovery completed: every startd is back and registered.
        collector = harness.pool.collector
        for node in harness.nodes:
            assert collector.startd(node.name).alive
            assert collector.is_alive(node.name, harness.env.now)

    def test_device_failure_requeues_and_completes(self, jobs):
        # Aggressive resets on a 2-node cluster: jobs die mid-run and the
        # requeue path must still finish the whole set.
        profile = FaultProfile(device_reset_rate=40.0, reset_downtime_s=15.0)
        harness = _Harness(jobs, profile, FAULT_SEED)
        harness.run()
        schedd = harness.pool.schedd
        completed = [r for r in schedd.all_records() if r.status == COMPLETED]
        retried = [r for r in completed if r.attempts > 0]
        assert len(completed) + len(schedd.failed()) == len(jobs)
        if harness.injector.applied:
            assert schedd.requeues > 0
            assert retried, "some job should have recovered from a failed run"

    def test_injector_refuses_double_start(self, jobs):
        harness = _Harness(jobs[:2], CHAOS, FAULT_SEED)
        with pytest.raises(RuntimeError):
            harness.injector.start()

    def test_empty_schedule_adds_no_processes(self, jobs):
        env = Environment()
        nodes = [ComputeNode(env, name="node0", mode="exclusive")]
        pool = CondorPool(env, nodes, ExclusivePlacement(), cycle_interval=2.0)
        pool.submit(jobs[:2])
        schedule = FaultSchedule.generate(FaultProfile(), 1)
        injector = FaultInjector(env, schedule, pool, nodes)
        before = len(env._queue)
        injector.start()
        assert len(env._queue) == before
