"""E5 — Fig. 8: makespan sensitivity to the job resource distribution.

400 synthetic jobs per distribution on the 8-node cluster, comparing MC,
MCC and MCCK. Expected shape (paper): large improvements for uniform /
normal / low-skew; compressed improvements for high-skew, where MCCK may
degrade slightly against MCC (negotiation-cycle latency) but both still
beat the exclusive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import PAPER_POLICIES, ClusterConfig
from ..metrics import format_table, percent_reduction
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

@dataclass
class Fig8Result:
    job_count: int
    #: makespans[distribution][configuration] -> seconds
    makespans: dict[str, dict[str, float]]

    def reduction(self, distribution: str, configuration: str) -> float:
        base = self.makespans[distribution]["MC"]
        return percent_reduction(base, self.makespans[distribution][configuration])


def tasks(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> list[SimTask]:
    return [
        sim_task(
            "fig8", policy, config,
            ("synthetic", jobs, distribution, seed),
            label=f"{distribution}/{policy.name}",
        )
        for distribution in distributions
        for policy in PAPER_POLICIES
    ]


def merge(
    values: list,
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> Fig8Result:
    cursor = iter(values)
    makespans = {
        distribution: {p.name: next(cursor)["makespan"] for p in PAPER_POLICIES}
        for distribution in distributions
    }
    return Fig8Result(job_count=jobs, makespans=makespans)


def run(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    runner: Optional[TaskRunner] = None,
) -> Fig8Result:
    grid = tasks(jobs=jobs, config=config, seed=seed, distributions=distributions)
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, config=config, seed=seed, distributions=distributions
    )


def render(result: Fig8Result) -> str:
    rows = []
    for distribution, by_config in result.makespans.items():
        rows.append(
            [
                distribution,
                f"{by_config['MC']:.0f}",
                f"{by_config['MCC']:.0f} (-{result.reduction(distribution, 'MCC'):.0f}%)",
                f"{by_config['MCCK']:.0f} (-{result.reduction(distribution, 'MCCK'):.0f}%)",
            ]
        )
    return format_table(
        ["distribution", "MC (s)", "MCC (s)", "MCCK (s)"],
        rows,
        title=(
            f"Fig. 8: makespan by resource distribution "
            f"({result.job_count} synthetic jobs, 8 nodes)"
        ),
    )
