"""End-to-end integration tests: MC / MCC / MCCK on small job sets.

These assert the paper's qualitative claims and the safety invariants on
full pipeline runs (Condor + COSMIC + MPSS + device).
"""

import pytest

from repro.cluster import MC, MCC, MCCK, ClusterConfig, ComputeNode, run
from repro.sim import Environment
from repro.workloads import generate_table1_jobs

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)


@pytest.fixture(scope="module")
def jobs():
    return generate_table1_jobs(40, seed=7)


@pytest.fixture(scope="module")
def results(jobs):
    return {
        "MC": run(jobs, SMALL, MC()),
        "MCC": run(jobs, SMALL, MCC()),
        "MCCK": run(jobs, SMALL, MCCK()),
    }


class TestEndToEnd:
    def test_all_jobs_complete_everywhere(self, results, jobs):
        for result in results.values():
            assert result.job_count == len(jobs)
            assert result.completed_jobs == len(jobs)
            assert result.failed_jobs == 0

    def test_sharing_reduces_makespan(self, results):
        assert results["MCC"].makespan < results["MC"].makespan
        assert results["MCCK"].makespan < results["MC"].makespan

    def test_sharing_raises_utilization(self, results):
        assert (
            results["MCC"].mean_core_utilization
            > results["MC"].mean_core_utilization
        )

    def test_mc_utilization_in_motivation_band(self, results):
        # SIII: exclusive allocation leaves cores mostly idle (~38-63%
        # in the paper; we accept a slightly wider band on 40 jobs).
        assert 0.25 <= results["MC"].mean_core_utilization <= 0.70

    def test_no_oversubscription_in_managed_modes(self, results):
        for name in ("MC", "MCC", "MCCK"):
            assert results[name].oom_kills == 0
            assert results[name].memory_limit_kills == 0

    def test_mcck_made_packing_decisions(self, results):
        assert results["MCCK"].packing_decisions > 0

    def test_negotiation_cycles_counted(self, results):
        for result in results.values():
            assert result.negotiation_cycles >= 1

    def test_unknown_policy_rejected(self, jobs):
        result = run(jobs, SMALL, MC())
        assert result.configuration == "MC"
        with pytest.raises(ValueError, match="unknown policy"):
            run(jobs, SMALL, "XYZ")


class TestDeterminism:
    def test_same_seed_same_makespan(self, jobs):
        a = run(jobs, SMALL, MCC())
        b = run(jobs, SMALL, MCC())
        assert a.makespan == b.makespan

    def test_mcck_deterministic(self, jobs):
        a = run(jobs, SMALL, MCCK())
        b = run(jobs, SMALL, MCCK())
        assert a.makespan == b.makespan

    def test_different_placement_seed_changes_mcc(self, jobs):
        from dataclasses import replace

        a = run(jobs, SMALL, MCC())
        b = run(jobs, replace(SMALL, seed=99), MCC())
        # Random placement differs; makespans almost surely differ.
        assert a.makespan != b.makespan


class TestSafetyInvariants:
    def test_thread_budget_never_exceeded_under_cosmic(self, jobs):
        config = ClusterConfig(nodes=2, cycle_interval=2.0)
        env_holder = {}

        # Run MCC and then inspect device telemetry directly.
        result = run(jobs, config, MCC())
        # busy_threads telemetry is clamped at hardware limit by
        # construction; the invariant is on demand under COSMIC:
        for r in result.job_results:
            assert r.status == "completed"

    def test_resident_memory_within_card(self, jobs):
        # Re-run MCC keeping handles on the devices.
        import random as _random

        from repro.condor import CondorPool, RandomPlacement

        env = Environment()
        nodes = [ComputeNode(env, f"n{i}", mode="cosmic") for i in range(2)]
        pool = CondorPool(env, nodes, RandomPlacement(_random.Random(1)),
                          cycle_interval=2.0)
        pool.submit(list(jobs))
        pool.run_to_completion()
        for node in nodes:
            for device in node.devices:
                peak = max(device.telemetry.resident_memory_mb.values, default=0)
                assert peak <= device.spec.usable_memory_mb

    def test_gated_thread_demand_within_budget(self, jobs):
        import random as _random

        from repro.condor import CondorPool, RandomPlacement

        env = Environment()
        nodes = [ComputeNode(env, f"n{i}", mode="cosmic") for i in range(2)]
        pool = CondorPool(env, nodes, RandomPlacement(_random.Random(1)),
                          cycle_interval=2.0)
        pool.submit(list(jobs))

        violations = []

        def monitor(env):
            while True:
                for node in nodes:
                    for device in node.devices:
                        if device.demanded_threads > device.spec.hardware_threads:
                            violations.append((env.now, device.name))
                yield env.timeout(0.5)

        env.process(monitor(env))
        pool.start()
        env.run(until=pool.schedd.all_done())
        assert not violations


class TestConfigValidation:
    def test_invalid_cluster_config(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(devices_per_node=0)

    def test_resized_preserves_other_fields(self):
        config = ClusterConfig(nodes=8, cycle_interval=3.0)
        resized = config.resized(4)
        assert resized.nodes == 4
        assert resized.cycle_interval == 3.0

    def test_oversized_job_rejected(self):
        from repro.workloads import HostPhase, JobProfile, OffloadPhase

        monster = JobProfile(
            job_id="monster",
            app="t",
            phases=(HostPhase(1), OffloadPhase(work=1, threads=60,
                                               memory_mb=9000)),
            declared_memory_mb=9000,
            declared_threads=60,
        )
        with pytest.raises(ValueError):
            run([monster], SMALL, MC())

    def test_empty_job_set_rejected(self):
        with pytest.raises(ValueError):
            run([], SMALL, MC())
