#!/usr/bin/env python
"""Quickstart: pack one coprocessor, then run a small shared cluster.

This walks the two layers of the public API:

1. the *packing* layer — model a Xeon Phi as a knapsack and choose which
   jobs should share it (the paper's core algorithm, no simulation);
2. the *cluster* layer — run the same jobs through the full simulated
   stack (Condor + COSMIC + MPSS + device) under the three
   configurations the paper compares.

Run: python examples/quickstart.py
"""

from repro.cluster import PAPER_POLICIES, ClusterConfig, run
from repro.core import DevicePacker, paper_value
from repro.metrics import format_table, percent_reduction
from repro.workloads import generate_table1_jobs


def pack_one_device() -> None:
    """Layer 1: the knapsack decision for a single 8 GB card."""
    jobs = generate_table1_jobs(12, seed=1)
    print(format_table(
        ["job", "app", "declared MB", "declared threads", "value (Eq. 1)"],
        [
            [j.job_id, j.app, f"{j.declared_memory_mb:.0f}", j.declared_threads,
             f"{paper_value(j.declared_threads):.2f}"]
            for j in jobs
        ],
        title="Pending jobs",
    ))

    packer = DevicePacker(thread_capacity=240)  # the paper's rule set
    packing = packer.pack(jobs, free_memory_mb=8192, max_jobs=16)
    print(
        f"\nKnapsack packs {packing.concurrency} jobs onto one card: "
        f"{', '.join(packing.chosen)}"
        f"\n  total declared memory : {packing.total_declared_mb:.0f} / 8192 MB"
        f"\n  total declared threads: {packing.total_declared_threads} / 240"
    )


def run_small_cluster() -> None:
    """Layer 2: the full simulated cluster, three software stacks."""
    jobs = generate_table1_jobs(60, seed=2)
    config = ClusterConfig(nodes=2)

    mc, mcc, mcck = (run(jobs, config, policy) for policy in PAPER_POLICIES)

    rows = []
    for result in (mc, mcc, mcck):
        reduction = (
            "-" if result.configuration == "MC"
            else f"-{percent_reduction(mc.makespan, result.makespan):.0f}%"
        )
        rows.append([
            result.configuration,
            f"{result.makespan:.0f}s",
            reduction,
            f"{100 * result.mean_core_utilization:.0f}%",
        ])
    print("\n" + format_table(
        ["config", "makespan", "vs MC", "Phi core utilization"],
        rows,
        title="60 Table-I jobs on a 2-node cluster",
    ))


if __name__ == "__main__":
    pack_one_device()
    run_small_cluster()
