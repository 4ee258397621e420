"""X1 — extension: device memory capacity sweep (8 GB vs 16 GB cards).

§II notes Xeon Phi cards shipped with 8-16 GB. The evaluation uses 8 GB;
this extension asks how much of the sharing gain was memory-bound: with
16 GB cards the knapsack can co-schedule roughly twice the jobs, but
sub-linear sharing efficiency and the thread budget cap the return.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cluster import PAPER_POLICIES, ClusterConfig
from ..metrics import format_series
from ..phi import XeonPhiSpec
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

DEFAULT_CAPACITIES_MB = (4096, 8192, 12288, 16384)


@dataclass
class CapacityResult:
    job_count: int
    capacities_mb: tuple[int, ...]
    makespans: dict[str, list[float]]  # configuration -> aligned values


def tasks(
    jobs: int = 400,
    capacities_mb: tuple[int, ...] = DEFAULT_CAPACITIES_MB,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    workload = ("table1", jobs, seed)
    grid: list[SimTask] = []
    for capacity in capacities_mb:
        spec = XeonPhiSpec(
            cores=config.spec.cores,
            threads_per_core=config.spec.threads_per_core,
            memory_mb=capacity,
        )
        sized = replace(config, spec=spec)
        for policy in PAPER_POLICIES:
            grid.append(
                sim_task(
                    "ext-capacity", policy, sized, workload,
                    label=f"{policy.name}@{capacity // 1024}GB",
                )
            )
    return grid


def merge(
    values: list,
    jobs: int = 400,
    capacities_mb: tuple[int, ...] = DEFAULT_CAPACITIES_MB,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> CapacityResult:
    cursor = iter(values)
    makespans: dict[str, list[float]] = {p.name: [] for p in PAPER_POLICIES}
    for _capacity in capacities_mb:
        for policy in PAPER_POLICIES:
            makespans[policy.name].append(next(cursor)["makespan"])
    return CapacityResult(
        job_count=jobs, capacities_mb=capacities_mb, makespans=makespans
    )


def run(
    jobs: int = 400,
    capacities_mb: tuple[int, ...] = DEFAULT_CAPACITIES_MB,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> CapacityResult:
    grid = tasks(jobs=jobs, capacities_mb=capacities_mb, config=config, seed=seed)
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, capacities_mb=capacities_mb, config=config, seed=seed
    )


def render(result: CapacityResult) -> str:
    table = format_series(
        "card memory",
        [f"{mb // 1024}GB" for mb in result.capacities_mb],
        result.makespans,
        title=(
            f"X1: makespan vs device memory capacity "
            f"({result.job_count} Table-I jobs, 8 nodes)"
        ),
    )
    return table + (
        "\nMC is capacity-insensitive (one job per card regardless); the"
        "\nsharing stacks gain with capacity until the thread budget and"
        "\nsub-linear sharing efficiency take over."
    )
