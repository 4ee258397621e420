"""Unit tests for ComputeNode: modes, device picking, execution regimes."""

import pytest

from repro.cluster import BestFit, ComputeNode, run
from repro.cluster.simulation import ClusterConfig
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase, generate_table1_jobs


def make_profile(job_id="j", memory=1000.0, threads=60, work=5.0):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1), OffloadPhase(work=work, threads=threads,
                                           memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


@pytest.fixture
def env():
    return Environment()


class TestConstruction:
    def test_invalid_mode_rejected(self, env):
        with pytest.raises(ValueError):
            ComputeNode(env, "n", mode="yolo")

    def test_invalid_device_count(self, env):
        with pytest.raises(ValueError):
            ComputeNode(env, "n", num_devices=0)

    def test_cosmic_mode_wires_middleware(self, env):
        node = ComputeNode(env, "n", mode="cosmic", num_devices=2)
        assert all(c is not None for c in node.cosmics)
        assert len(node.devices) == 2
        assert node.devices[1].name == "n/mic1"

    def test_exclusive_mode_has_no_cosmic(self, env):
        node = ComputeNode(env, "n", mode="exclusive")
        assert node.cosmics == [None]

    def test_repr(self, env):
        assert "mode=cosmic" in repr(ComputeNode(env, "n"))


class TestDeviceStates:
    def test_cosmic_states_track_admission(self, env):
        node = ComputeNode(env, "n", mode="cosmic")

        def run(env):
            result = yield from node.execute(make_profile(memory=3000))
            return result

        env.process(run(env))
        env.run(until=2)
        states = node.device_states()
        assert states[0].free_declared_mb == 8192 - 3000
        assert states[0].resident_jobs == 1
        env.run()
        assert node.device_states()[0].free_declared_mb == 8192

    def test_exclusive_states_binary(self, env):
        node = ComputeNode(env, "n", mode="exclusive")

        def run(env):
            yield from node.execute(make_profile(), exclusive=True)

        env.process(run(env))
        env.run(until=2)
        state = node.device_states()[0]
        assert state.free_declared_mb == 0.0
        assert state.resident_jobs == 1


class TestDevicePicking:
    def test_explicit_index_validated(self, env):
        node = ComputeNode(env, "n", num_devices=2)

        def run(env):
            yield from node.execute(make_profile(), device_index=5)

        proc = env.process(run(env))
        with pytest.raises(ValueError):
            env.run()
        assert not proc.ok

    def test_cosmic_prefers_most_free_memory(self, env):
        node = ComputeNode(env, "n", mode="cosmic", num_devices=2)
        done = []

        def run(env, job_id, work):
            result = yield from node.execute(
                make_profile(job_id, memory=3000, work=work)
            )
            done.append((result.job_id, env.now))

        env.process(run(env, "a", 20.0))
        env.process(run(env, "b", 20.0))
        env.run()
        # Both devices got one job: they ran fully parallel.
        assert all(end == pytest.approx(21.0) for _id, end in done)

    def test_unsafe_mode_spreads_by_load(self, env):
        node = ComputeNode(env, "n", mode="unsafe", num_devices=2)
        done = []

        def run(env, job_id):
            result = yield from node.execute(make_profile(job_id, work=10))
            done.append(result)

        env.process(run(env, "a"))
        env.process(run(env, "b"))
        env.run()
        assert {r.status for r in done} == {"completed"}


class TestBestFit:
    def test_best_fit_runs_end_to_end(self):
        jobs = generate_table1_jobs(30, seed=3)
        result = run(jobs, ClusterConfig(nodes=2, cycle_interval=2.0), BestFit())
        assert result.configuration == "BESTFIT"
        assert result.completed_jobs == 30
