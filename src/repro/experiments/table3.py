"""E7 — Table III: footprint reduction per resource distribution.

For each synthetic distribution: the smallest cluster whose MCC / MCCK
makespan matches the 8-node MC baseline. Paper: MCCK 5 / 5 / 3 / 6 nodes
(uniform / normal / low-skew / high-skew) vs MCC 6 / 6 / 4 / 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import MC, MCC, MCCK, ClusterConfig
from ..metrics import FootprintResult, footprint_from_curve, format_table
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

_FOOTPRINT_POLICIES = (MCC(), MCCK())


@dataclass
class Table3Result:
    job_count: int
    #: footprints[distribution][configuration]
    footprints: dict[str, dict[str, FootprintResult]]
    mc_makespans: dict[str, float]


def tasks(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> list[SimTask]:
    """Per distribution: the MC target, then full footprint sweeps."""
    grid: list[SimTask] = []
    for distribution in distributions:
        workload = ("synthetic", jobs, distribution, seed)
        grid.append(
            sim_task(
                "table3", MC(), config, workload,
                label=f"{distribution}/MC@n{config.nodes}",
            )
        )
        for policy in _FOOTPRINT_POLICIES:
            for size in range(1, config.nodes + 1):
                grid.append(
                    sim_task(
                        "table3", policy, config.resized(size), workload,
                        label=f"{distribution}/{policy.name}@n{size}",
                    )
                )
    return grid


def merge(
    values: list,
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
) -> Table3Result:
    footprints: dict[str, dict[str, FootprintResult]] = {}
    mc_makespans: dict[str, float] = {}
    cursor = iter(values)
    for distribution in distributions:
        target = next(cursor)["makespan"]
        mc_makespans[distribution] = target
        footprints[distribution] = {}
        for policy in _FOOTPRINT_POLICIES:
            curve = {
                size: next(cursor)["makespan"]
                for size in range(1, config.nodes + 1)
            }
            footprints[distribution][policy.name] = footprint_from_curve(
                target, curve
            )
    return Table3Result(
        job_count=jobs, footprints=footprints, mc_makespans=mc_makespans
    )


def run(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = DISTRIBUTIONS,
    runner: Optional[TaskRunner] = None,
) -> Table3Result:
    grid = tasks(jobs=jobs, config=config, seed=seed, distributions=distributions)
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, config=config, seed=seed, distributions=distributions
    )


_PAPER = {
    "uniform": ("6 (25%)", "5 (37.5%)"),
    "normal": ("6 (25%)", "5 (37.5%)"),
    "low-skew": ("4 (50%)", "3 (62.5%)"),
    "high-skew": ("6 (25%)", "6 (25%)"),
}


def _cell(fp: FootprintResult, reference: int) -> str:
    if fp.cluster_size is None:
        return f">{reference}"
    reduction = fp.reduction_vs(reference)
    assert reduction is not None
    return f"{fp.cluster_size} ({100 * reduction:.1f}%)"


def render(result: Table3Result) -> str:
    rows = []
    for distribution, by_config in result.footprints.items():
        paper = _PAPER.get(distribution, ("?", "?"))
        rows.append(
            [
                distribution,
                "8",
                _cell(by_config["MCC"], 8),
                _cell(by_config["MCCK"], 8),
                f"(paper: MCC {paper[0]}, MCCK {paper[1]})",
            ]
        )
    return format_table(
        ["distribution", "MC", "MCC", "MCCK", "paper reference"],
        rows,
        title=(
            f"Table III: footprint (cluster size matching the 8-node MC "
            f"makespan), {result.job_count} jobs"
        ),
    )
