"""E8 — Fig. 10: makespan under constant job pressure.

The paper scales the job count with the cluster (200 jobs per node:
400 jobs at 2 nodes up to 1600 at 8) under the normal distribution, to
show that cluster-level scheduling still pays at high job pressure on
larger clusters: at 8 nodes the paper reports MCCK ~11% better than MCC
and ~40% better than MC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import PAPER_POLICIES, ClusterConfig
from ..metrics import format_series, percent_reduction
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

DEFAULT_SIZES = (2, 4, 6, 8)
JOBS_PER_NODE = 200


@dataclass
class Fig10Result:
    sizes: tuple[int, ...]
    job_counts: list[int]
    makespans: dict[str, list[float]]  # configuration -> aligned with sizes

    def final_reduction(self, configuration: str) -> float:
        return percent_reduction(
            self.makespans["MC"][-1], self.makespans[configuration][-1]
        )


def tasks(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    jobs_per_node: int = JOBS_PER_NODE,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distribution: str = "normal",
) -> list[SimTask]:
    return [
        sim_task(
            "fig10", policy, config.resized(size),
            ("synthetic", jobs_per_node * size, distribution, seed),
            label=f"{policy.name}@n{size}x{jobs_per_node}",
        )
        for size in sizes
        for policy in PAPER_POLICIES
    ]


def merge(
    values: list,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    jobs_per_node: int = JOBS_PER_NODE,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distribution: str = "normal",
) -> Fig10Result:
    cursor = iter(values)
    makespans: dict[str, list[float]] = {p.name: [] for p in PAPER_POLICIES}
    job_counts: list[int] = []
    for size in sizes:
        job_counts.append(jobs_per_node * size)
        for policy in PAPER_POLICIES:
            makespans[policy.name].append(next(cursor)["makespan"])
    return Fig10Result(sizes=sizes, job_counts=job_counts, makespans=makespans)


def run(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    jobs_per_node: int = JOBS_PER_NODE,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distribution: str = "normal",
    runner: Optional[TaskRunner] = None,
) -> Fig10Result:
    grid = tasks(
        sizes=sizes, jobs_per_node=jobs_per_node, config=config, seed=seed,
        distribution=distribution,
    )
    values = execute(grid, runner)
    return merge(
        values, sizes=sizes, jobs_per_node=jobs_per_node, config=config,
        seed=seed, distribution=distribution,
    )


def render(result: Fig10Result) -> str:
    table = format_series(
        "nodes(jobs)",
        [f"{n}({j})" for n, j in zip(result.sizes, result.job_counts)],
        result.makespans,
        title=(
            "Fig. 10: makespan with constant job pressure "
            f"({JOBS_PER_NODE} jobs/node, normal distribution)"
        ),
    )
    return table + (
        f"\nat the largest size: MCC -{result.final_reduction('MCC'):.0f}%, "
        f"MCCK -{result.final_reduction('MCCK'):.0f}% vs MC "
        "(paper: MCCK -40% vs MC, -11% vs MCC)"
    )
