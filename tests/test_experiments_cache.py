"""Tests for the content-addressed result cache and the task runner."""

import pickle

import pytest

from repro.cluster import MC, MCC, PAPER_POLICIES, ClusterConfig
from repro.experiments import ext_crash, ext_faults, ext_netchaos
from repro.experiments.cache import (
    ResultCache,
    canonical,
    default_cache_dir,
    source_fingerprint,
    task_key,
)
from repro.experiments.runner import SimTask, TaskRunner, compute_task, sim_task


def _task(**overrides):
    params = dict(configuration="MC", nodes=4, seed=42)
    params.update(overrides)
    return SimTask.make("table2", "sim", **params)


class TestKeying:
    def test_same_params_same_key(self):
        assert task_key(_task(), "fp") == task_key(_task(), "fp")

    def test_label_not_part_of_key(self):
        a = SimTask.make("table2", "sim", label="a", nodes=4)
        b = SimTask.make("table2", "sim", label="b", nodes=4)
        assert task_key(a, "fp") == task_key(b, "fp")
        assert a == b  # label excluded from equality too

    def test_param_change_changes_key(self):
        assert task_key(_task(), "fp") != task_key(_task(seed=43), "fp")

    def test_fingerprint_change_changes_key(self):
        assert task_key(_task(), "fp1") != task_key(_task(), "fp2")

    def test_experiment_name_shared_across_grids(self):
        # fig8's 8-node cells are fig9's: the key ignores the experiment.
        a = SimTask.make("fig8", "sim", configuration="MC", nodes=8)
        b = SimTask.make("fig9", "sim", configuration="MC", nodes=8)
        assert task_key(a, "fp") == task_key(b, "fp")
        assert a == b  # and the runner treats them as one cell

    def test_dataclass_params_canonicalise(self):
        config = ClusterConfig(nodes=4)
        same = ClusterConfig(nodes=4)
        other = ClusterConfig(nodes=5)
        assert canonical(config) == canonical(same)
        assert canonical(config) != canonical(other)

    def test_float_params_keep_precision(self):
        assert canonical(0.1) != canonical(0.1 + 1e-12)

    def test_source_fingerprint_stable_in_process(self):
        assert source_fingerprint() == source_fingerprint()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        task = _task()
        hit, _ = cache.get(task)
        assert not hit
        cache.put(task, {"makespan": 12.5})
        hit, value = cache.get(task)
        assert hit
        assert value == {"makespan": 12.5}
        assert cache.hits == 1 and cache.misses == 1

    def test_fingerprint_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="before-edit")
        old.put(_task(), 1.0)
        fresh = ResultCache(tmp_path, fingerprint="after-edit")
        hit, _ = fresh.get(_task())
        assert not hit

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        task = _task()
        cache.put(task, 42.0)
        path = cache._path(cache.key_for(task))
        path.write_bytes(b"not a pickle at all")
        hit, _ = cache.get(task)
        assert not hit
        assert not path.exists()  # the bad entry was dropped
        cache.put(task, 42.0)
        hit, value = cache.get(task)
        assert hit and value == 42.0

    def test_truncated_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        task = _task()
        cache.put(task, {"makespan": 9.0})
        path = cache._path(cache.key_for(task))
        path.write_bytes(pickle.dumps({"makespan": 9.0})[:5])
        hit, _ = cache.get(task)
        assert not hit

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="fp")
        cache.put(_task(), 1.0)
        cache.clear()
        assert not (tmp_path / "cache").exists()
        hit, _ = cache.get(_task())
        assert not hit

    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestTaskRunner:
    def _grid(self, jobs=16):
        config = ClusterConfig(nodes=2)
        workload = ("table1", jobs, 42)
        return [
            sim_task("test", policy, config, workload) for policy in (MC(), MCC())
        ]

    def test_results_cached_across_runs(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        grid = self._grid()
        first = TaskRunner(workers=1, cache=cache).map_tasks(grid)
        assert all(not o.cached for o in first)
        second = TaskRunner(workers=1, cache=cache).map_tasks(grid)
        assert all(o.cached for o in second)
        assert [o.value for o in first] == [o.value for o in second]

    def test_duplicate_cells_computed_once(self):
        grid = self._grid() + self._grid()
        runner = TaskRunner(workers=1, cache=None)
        outcomes = runner.map_tasks(grid)
        assert sum(1 for o in outcomes if not o.cached) == 2
        assert outcomes[0].value == outcomes[2].value
        assert outcomes[1].value == outcomes[3].value

    def test_identical_cell_of_two_experiments_computed_once(self):
        config, workload = ClusterConfig(nodes=2), ("table1", 16, 42)
        grid = [
            sim_task("fig8", MC(), config, workload),
            sim_task("fig9", MC(), config, workload),
        ]
        runner = TaskRunner(workers=1, cache=None)
        outcomes = runner.map_tasks(grid)
        assert runner.computed == 1
        assert outcomes[0].value == outcomes[1].value
        assert [o.task.experiment for o in outcomes] == ["fig8", "fig9"]

    def test_inline_matches_runner(self, tmp_path):
        grid = self._grid()
        inline = [compute_task(task) for task in grid]
        pooled = TaskRunner(
            workers=1, cache=ResultCache(tmp_path, fingerprint="fp")
        ).map_tasks(grid)
        assert inline == [o.value for o in pooled]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            TaskRunner(workers=0)


class TestBaselineCells:
    """A cell without faults or a fabric is the plain cell, wherever it
    appears: the seeds a run would ignore are not part of its key."""

    CONFIG = ClusterConfig(nodes=2, cycle_interval=2.0)

    def _plain(self, jobs, seed):
        return [
            sim_task("table2", policy, self.CONFIG, ("table1", jobs, seed))
            for policy in PAPER_POLICIES
        ]

    def test_x5_x6_x8_baseline_columns_are_the_plain_cells(self):
        plain = self._plain(20, 7)
        grids = (
            ext_faults.tasks(jobs=20, rates=(0.0,), config=self.CONFIG, seed=7),
            ext_netchaos.tasks(
                jobs=20, losses=(0.0,), config=self.CONFIG, seed=7
            ),
            ext_crash.tasks(jobs=20, rates=(0.0,), config=self.CONFIG, seed=7),
        )
        for grid in grids:
            assert grid == plain
            assert [task_key(t, "fp") for t in grid] == [
                task_key(t, "fp") for t in plain
            ]

    def test_profiled_cells_keep_their_seeds(self):
        faulty = ext_faults.tasks(jobs=20, rates=(1.0,), config=self.CONFIG, seed=7)
        lossy = ext_netchaos.tasks(
            jobs=20, losses=(0.05,), config=self.CONFIG, seed=7
        )
        plain = [task_key(t, "fp") for t in self._plain(20, 7)]
        for task in faulty + lossy:
            assert task_key(task, "fp") not in plain
        assert all("fault_seed" in t.kwargs() for t in faulty)
        assert all("net_seed" in t.kwargs() for t in lossy)
