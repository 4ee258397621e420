"""Unit tests for value functions and the device packer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DevicePacker,
    constant_value,
    count_first_value,
    get_value_function,
    linear_value,
    paper_value,
    paper_value_floored,
    value_function_names,
)
from repro.workloads import HostPhase, JobProfile, OffloadPhase


class TestValueFunctions:
    def test_eq1_at_anchors(self):
        assert paper_value(0) == 1.0
        assert paper_value(240) == 0.0
        assert paper_value(120) == pytest.approx(0.75)

    def test_eq1_decreasing(self):
        values = [paper_value(t) for t in range(0, 241, 20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_floored_keeps_full_card_jobs_packable(self):
        assert paper_value_floored(240) == 0.05
        assert paper_value_floored(60) == paper_value(60)

    def test_linear(self):
        assert linear_value(120) == pytest.approx(0.5)
        assert linear_value(300) == 0.0  # clamped

    def test_count_first_dominates(self):
        # Every job is worth >= 1, so adding any job always beats any
        # value gained by swapping thread profiles (spread < 1).
        assert count_first_value(240) == 1.0
        assert count_first_value(0) == 2.0
        spread = count_first_value(0) - count_first_value(240)
        assert spread <= count_first_value(240)

    def test_constant(self):
        assert constant_value(0) == constant_value(240) == 1.0

    def test_negative_threads_rejected(self):
        for fn in (paper_value, linear_value, constant_value):
            with pytest.raises(ValueError):
                fn(-1)

    def test_registry(self):
        assert "paper" in value_function_names()
        assert get_value_function("paper") is paper_value
        with pytest.raises(ValueError):
            get_value_function("nope")


def job(job_id, memory, threads):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1.0), OffloadPhase(work=5, threads=threads, memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


class TestDevicePacker:
    def test_empty_job_list(self):
        packing = DevicePacker().pack([], 8192)
        assert packing.chosen == ()
        assert packing.concurrency == 0

    def test_memory_capacity_respected(self):
        jobs = [job(f"j{i}", 3000, 60) for i in range(5)]
        packing = DevicePacker().pack(jobs, 8192)
        assert packing.total_declared_mb <= 8192
        assert packing.concurrency == 2

    def test_prefers_low_thread_jobs(self):
        jobs = [job("big", 1000, 240), job("small1", 1000, 60), job("small2", 1000, 60)]
        packing = DevicePacker().pack(jobs, 2000)
        assert set(packing.chosen) == {"small1", "small2"}

    def test_thread_cap_variant(self):
        jobs = [job("a", 500, 180), job("b", 500, 180), job("c", 500, 60)]
        packing = DevicePacker(thread_capacity=240).pack(jobs, 8192)
        assert packing.total_declared_threads <= 240

    def test_max_jobs_bound(self):
        jobs = [job(f"j{i}", 100, 60) for i in range(10)]
        packing = DevicePacker().pack(jobs, 8192, max_jobs=4)
        assert packing.concurrency == 4

    def test_thread_cap_with_max_jobs_trims(self):
        jobs = [job(f"j{i}", 100, 16) for i in range(10)]
        packing = DevicePacker(thread_capacity=240).pack(jobs, 8192, max_jobs=3)
        assert packing.concurrency <= 3
        assert packing.total_declared_threads <= 240

    def test_zero_free_memory(self):
        packing = DevicePacker().pack([job("a", 100, 60)], 0)
        assert packing.chosen == ()

    def test_full_card_jobs_still_packable_by_default(self):
        # Eq. 1 gives 240-thread jobs zero value; the floored default
        # keeps them packable.
        packing = DevicePacker().pack([job("big", 1000, 240)], 8192)
        assert packing.chosen == ("big",)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DevicePacker(quantum_mb=0)
        with pytest.raises(ValueError):
            DevicePacker(thread_capacity=0)

    def test_negative_free_memory_rejected(self):
        with pytest.raises(ValueError):
            DevicePacker().pack([], -1)

    def test_packing_memo_keys_on_declared_pairs_in_order(self):
        packer = DevicePacker(thread_capacity=240)
        packer.pack([job("a", 1000, 60), job("b", 2000, 180)], 8192)
        # Other jobs with the same (memory, threads) pairs replay the solve.
        again = packer.pack([job("c", 1000, 60), job("d", 2000, 180)], 8192)
        assert again.chosen == ("c", "d")
        assert (packer.solver_calls, packer.packing_cache_hits) == (1, 1)
        # A changed pair, order, capacity or count bound solves afresh.
        packer.pack([job("e", 1000, 60), job("f", 2000, 240)], 8192)
        packer.pack([job("g", 2000, 180), job("h", 1000, 60)], 8192)
        packer.pack([job("i", 1000, 60), job("j", 2000, 180)], 4096)
        packer.pack([job("k", 1000, 60), job("l", 2000, 180)], 8192, max_jobs=1)
        assert (packer.solver_calls, packer.packing_cache_hits) == (5, 1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=50, max_value=4000),
                st.integers(min_value=4, max_value=240),
            ),
            min_size=0,
            max_size=25,
        ),
        st.integers(min_value=0, max_value=8192),
        st.one_of(st.none(), st.integers(min_value=0, max_value=16)),
    )
    def test_packing_always_feasible(self, raw, free_mb, max_jobs):
        jobs = [job(f"j{i}", float(m), t) for i, (m, t) in enumerate(raw)]
        packing = DevicePacker().pack(jobs, float(free_mb), max_jobs)
        assert packing.total_declared_mb <= free_mb
        if max_jobs is not None:
            assert packing.concurrency <= max_jobs
        assert len(set(packing.chosen)) == len(packing.chosen)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=50, max_value=4000),
                st.integers(min_value=4, max_value=240),
            ),
            min_size=0,
            max_size=25,
        ),
        st.integers(min_value=0, max_value=8192),
    )
    def test_thread_capped_packing_feasible(self, raw, free_mb):
        jobs = [job(f"j{i}", float(m), t) for i, (m, t) in enumerate(raw)]
        packer = DevicePacker(thread_capacity=240)
        packing = packer.pack(jobs, float(free_mb))
        assert packing.total_declared_mb <= free_mb
        assert packing.total_declared_threads <= 240
