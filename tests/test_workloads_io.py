"""Tests for job-set JSON serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    HostPhase,
    JobProfile,
    OffloadPhase,
    dump_jobs,
    dumps_jobs,
    generate_table1_jobs,
    load_jobs,
    loads_jobs,
)


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        jobs = generate_table1_jobs(25, seed=4)
        path = tmp_path / "jobs.json"
        dump_jobs(jobs, path)
        loaded = load_jobs(path)
        assert loaded == jobs  # frozen dataclasses: structural equality

    def test_string_roundtrip(self):
        jobs = generate_table1_jobs(5, seed=1)
        assert loads_jobs(dumps_jobs(jobs)) == jobs

    def test_loaded_jobs_run(self, tmp_path):
        from repro.cluster import MCC, ClusterConfig, run

        jobs = generate_table1_jobs(15, seed=4)
        path = tmp_path / "jobs.json"
        dump_jobs(jobs, path)
        result = run(load_jobs(path), ClusterConfig(nodes=2), MCC())
        assert result.completed_jobs == 15

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=50, allow_nan=False),
                st.integers(min_value=1, max_value=240),
                st.floats(min_value=0, max_value=4000, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_arbitrary_profiles_roundtrip(self, offloads):
        phases = []
        for work, threads, memory in offloads:
            phases.append(HostPhase(1.5))
            phases.append(
                OffloadPhase(work=work, threads=threads, memory_mb=memory,
                             transfer_mb=memory / 4)
            )
        job = JobProfile(
            job_id="prop", app="x",
            phases=tuple(phases),
            declared_memory_mb=4100.0, declared_threads=240,
            submit_time=3.25,
        )
        assert loads_jobs(dumps_jobs([job])) == [job]


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(ValueError, match="not a repro job-set"):
            load_jobs(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "repro-jobset", "version": 99,
                                    "count": 0, "jobs": []}))
        with pytest.raises(ValueError, match="version"):
            load_jobs(path)

    def test_count_mismatch_rejected(self, tmp_path):
        jobs = generate_table1_jobs(3, seed=0)
        path = tmp_path / "bad.json"
        dump_jobs(jobs, path)
        payload = json.loads(path.read_text())
        payload["count"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="count"):
            load_jobs(path)

    def test_unknown_phase_kind_rejected(self):
        text = json.dumps({
            "format": "repro-jobset", "version": 1, "count": 1,
            "jobs": [{
                "job_id": "x", "app": "a", "declared_memory_mb": 100,
                "declared_threads": 4, "submit_time": 0,
                "phases": [{"kind": "gpu"}],
            }],
        })
        with pytest.raises(ValueError, match="phase kind"):
            loads_jobs(text)
