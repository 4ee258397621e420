"""Performance microbenchmarks: the knapsack DPs themselves.

§IV-C argues the DP is effectively linear in the number of jobs because
memory quantizes to w = 8GB/50MB = 160 levels. These benches measure the
solver directly (pytest-benchmark's bread and butter) and sanity-check
the scaling claim.
"""

import numpy as np
import pytest

from repro.core import (
    DevicePacker,
    Item,
    knapsack_1d,
    knapsack_cardinality,
    knapsack_thread_capped,
)
from repro.core.value import paper_value_floored
from repro.sim import profile


def _items(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Item(
            weight=float(rng.integers(6, 69) * 50),      # 300..3400 MB
            value=float(1.0 - (t := rng.integers(15, 61) * 4) ** 2 / 240**2 + 0.05),
            threads=int(t),
        )
        for _ in range(n)
    ]


def _table1_items(n, seed=0):
    """Table-I thread counts valued by Eq. 1 (floored): 15/16 and 7/16 sum
    exactly, so the solver profiles ranges per class. The ``+ 0.05`` of
    :func:`_items` makes every sum inexact and forces the per-item DP."""
    rng = np.random.default_rng(seed)
    return [
        Item(
            weight=float(rng.integers(6, 69) * 50),
            value=paper_value_floored(t),
            threads=t,
        )
        for t in rng.choice([60, 180, 240], size=n).tolist()
    ]


@pytest.mark.parametrize("n", [100, 1000])
def test_bench_knapsack_1d(benchmark, n):
    items = _items(n)
    result = benchmark(knapsack_1d, items, 8192.0)
    assert result.total_weight <= 8192


def test_bench_knapsack_cardinality(benchmark):
    items = _items(1000)
    result = benchmark(knapsack_cardinality, items, 8192.0, 16)
    assert result.count <= 16


def test_bench_knapsack_thread_capped(benchmark):
    items = _items(1000)
    result = benchmark(knapsack_thread_capped, items, 8192.0, 240)
    assert result.total_threads <= 240


def test_bench_knapsack_thread_capped_table1(benchmark):
    items = _table1_items(1000)
    prof = profile.activate()
    try:
        knapsack_thread_capped(items, 8192.0, 240)
    finally:
        profile.deactivate()
    assert (prof.class_solves, prof.fallback_solves) == (1, 0)
    result = benchmark(knapsack_thread_capped, items, 8192.0, 240)
    assert result.total_threads <= 240


def test_bench_device_packer_full_queue(benchmark):
    """The paper's headline case: pack one card from 1000 pending jobs."""
    from repro.workloads import generate_table1_jobs

    jobs = generate_table1_jobs(1000, seed=3)
    packer = DevicePacker(thread_capacity=240)
    packing = benchmark(packer.pack, jobs, 8192.0, 16)
    assert packing.concurrency >= 1


def test_knapsack_scaling_is_nearly_linear():
    """10x the jobs should cost well under 100x the time (O(n w))."""
    import time

    small, large = _items(200, seed=1), _items(2000, seed=1)

    def measure(items):
        start = time.perf_counter()
        for _ in range(3):
            knapsack_1d(items, 8192.0)
        return (time.perf_counter() - start) / 3

    t_small = measure(small)
    t_large = measure(large)
    assert t_large < 40 * t_small  # linear would be 10x; allow generous noise
