"""E6 — Fig. 9: effect of cluster size, per resource distribution.

Makespan of the fixed 400-job synthetic sets on clusters of increasing
size. Expected shape (paper): at very small clusters the job pressure is
so high that any sharing (even random) wins and MCCK ~ MCC; as the
cluster grows, cluster-level decisions matter more and MCCK's margin over
MCC widens, while all sharing gains shrink relative to MC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import PAPER_POLICIES, ClusterConfig
from ..metrics import format_series
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

#: The cluster sizes Fig. 9's x-axis spans.
DEFAULT_SIZES = (2, 3, 4, 5, 6, 8)


@dataclass
class Fig9Result:
    job_count: int
    sizes: tuple[int, ...]
    #: makespans[distribution][configuration] -> list aligned with sizes
    makespans: dict[str, dict[str, list[float]]]


def tasks(
    jobs: int = 400,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> list[SimTask]:
    return [
        sim_task(
            "fig9", policy, config.resized(size),
            ("synthetic", jobs, distribution, seed),
            label=f"{distribution}/{policy.name}@n{size}",
        )
        for distribution in distributions
        for size in sizes
        for policy in PAPER_POLICIES
    ]


def merge(
    values: list,
    jobs: int = 400,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> Fig9Result:
    cursor = iter(values)
    makespans: dict[str, dict[str, list[float]]] = {}
    for distribution in distributions:
        series: dict[str, list[float]] = {p.name: [] for p in PAPER_POLICIES}
        for _size in sizes:
            for policy in PAPER_POLICIES:
                series[policy.name].append(next(cursor)["makespan"])
        makespans[distribution] = series
    return Fig9Result(job_count=jobs, sizes=sizes, makespans=makespans)


def run(
    jobs: int = 400,
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    runner: Optional[TaskRunner] = None,
) -> Fig9Result:
    grid = tasks(
        jobs=jobs, sizes=sizes, config=config, seed=seed,
        distributions=distributions,
    )
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, sizes=sizes, config=config, seed=seed,
        distributions=distributions,
    )


def render(result: Fig9Result) -> str:
    blocks = [
        f"Fig. 9: makespan vs cluster size ({result.job_count} synthetic jobs)"
    ]
    for distribution, series in result.makespans.items():
        blocks.append(
            format_series(
                "nodes",
                list(result.sizes),
                series,
                title=f"\n[{distribution}]",
            )
        )
    return "\n".join(blocks)
