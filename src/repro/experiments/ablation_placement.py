"""A4 — ablation: cluster-level placement policy spectrum.

Positions the paper's two sharing configurations on a spectrum of
cluster-level intelligence, all over identical COSMIC nodes:

* random (the paper's MCC, memory-unaware "packed arbitrarily");
* random memory-aware (Condor deducts advertised free device memory);
* best-fit (greedy memory-aware, no look-ahead);
* knapsack (the paper's MCCK: look-ahead over the whole pending set).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import MC, MCC, MCCK, BestFit, ClusterConfig
from ..metrics import format_table, percent_reduction
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

#: Row label -> policy, from no sharing to full look-ahead.
_SPECTRUM = {
    "MC": MC(),
    "random (MCC)": MCC(),
    "random memory-aware": MCC(memory_aware=True),
    "best-fit": BestFit(),
    "knapsack (MCCK)": MCCK(),
}


@dataclass
class PlacementAblationResult:
    job_count: int
    makespans: dict[str, float]

    def reduction(self, name: str) -> float:
        return percent_reduction(self.makespans["MC"], self.makespans[name])


def tasks(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    return [
        sim_task(
            "ablation-placement", policy, config, ("table1", jobs, seed),
            label=name,
        )
        for name, policy in _SPECTRUM.items()
    ]


def merge(
    values: list,
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> PlacementAblationResult:
    makespans = {
        name: value["makespan"] for name, value in zip(_SPECTRUM, values)
    }
    return PlacementAblationResult(job_count=jobs, makespans=makespans)


def run(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> PlacementAblationResult:
    grid = tasks(jobs=jobs, config=config, seed=seed)
    values = execute(grid, runner)
    return merge(values, jobs=jobs, config=config, seed=seed)


def render(result: PlacementAblationResult) -> str:
    rows = []
    for name, makespan in result.makespans.items():
        reduction = "-" if name == "MC" else f"-{result.reduction(name):.0f}%"
        rows.append([name, f"{makespan:.0f}", reduction])
    return format_table(
        ["placement policy", "makespan (s)", "vs MC"],
        rows,
        title=(
            f"A4: makespan by cluster-level placement policy "
            f"({result.job_count} Table-I jobs, 8 nodes, COSMIC everywhere)"
        ),
    )
