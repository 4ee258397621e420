"""A2 — ablation: the knapsack's hard thread cap.

The paper makes a packing worthless when its total declared threads
exceed the 240 hardware threads. COSMIC already prevents *runtime* thread
oversubscription by gating offloads, so the cap is a cluster-level policy
choice, not a safety requirement. This ablation compares:

* ``cap`` — the paper's rule (memory x thread DP);
* ``no-cap`` — memory-only packing; threads only shape the value;
* ``no-cap/no-slots`` — additionally ignore the host-slot bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import MCCK, ClusterConfig
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER, workload_spec
from .runner import SimTask, TaskRunner, execute, sim_task

_WORKLOADS = ("table1", "normal")

#: Row label -> knapsack constraint variant.
_CONSTRAINTS = {
    "cap-240 (paper)": MCCK(),
    "no-cap": MCCK(thread_cap=False),
    "no-cap/no-slots": MCCK(thread_cap=False, respect_host_slots=False),
}


@dataclass
class KnapsackAblationResult:
    job_count: int
    makespans: dict[str, dict[str, float]]  # variant -> workload -> seconds


def tasks(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    return [
        sim_task(
            "ablation-knapsack", policy, config,
            workload_spec(workload, jobs, seed),
            label=f"{variant}/{workload}",
        )
        for variant, policy in _CONSTRAINTS.items()
        for workload in _WORKLOADS
    ]


def merge(
    values: list,
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> KnapsackAblationResult:
    cursor = iter(values)
    makespans = {
        variant: {workload: next(cursor)["makespan"] for workload in _WORKLOADS}
        for variant in _CONSTRAINTS
    }
    return KnapsackAblationResult(job_count=jobs, makespans=makespans)


def run(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> KnapsackAblationResult:
    grid = tasks(jobs=jobs, config=config, seed=seed)
    values = execute(grid, runner)
    return merge(values, jobs=jobs, config=config, seed=seed)


def render(result: KnapsackAblationResult) -> str:
    rows = [
        [name, f"{by_wl['table1']:.0f}", f"{by_wl['normal']:.0f}"]
        for name, by_wl in result.makespans.items()
    ]
    return format_table(
        ["knapsack variant", "Table-I mix (s)", "normal synthetic (s)"],
        rows,
        title=(
            f"A2: MCCK makespan by knapsack constraint variant "
            f"({result.job_count} jobs, 8 nodes)"
        ),
    )
