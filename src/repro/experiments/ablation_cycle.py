"""A3 — ablation: negotiation-cycle interval sensitivity.

The paper attributes MCCK's small degradation on the high-skew
distribution to "having to wait for Condor's scheduling cycle" (§V-B):
every knapsack decision only takes effect at the next negotiation cycle.
This ablation sweeps the cycle interval for MCC and MCCK on the normal
and high-skew sets to quantify that integration overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cluster import MCC, MCCK, ClusterConfig
from ..metrics import format_series
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

DEFAULT_INTERVALS = (2.0, 5.0, 10.0, 20.0, 40.0)

_SERIES = ("MCC", "MCCK", "MCCK+resched")


@dataclass
class CycleAblationResult:
    job_count: int
    intervals: tuple[float, ...]
    #: makespans[distribution][configuration] -> aligned with intervals
    makespans: dict[str, dict[str, list[float]]]


def tasks(
    jobs: int = 400,
    intervals: tuple[float, ...] = DEFAULT_INTERVALS,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = ("normal", "high-skew"),
) -> list[SimTask]:
    grid: list[SimTask] = []
    for distribution in distributions:
        workload = ("synthetic", jobs, distribution, seed)
        for interval in intervals:
            tuned = replace(config, cycle_interval=interval)
            # condor_reschedule: completions trigger extra cycles, which
            # should largely flatten MCCK's sensitivity to the interval.
            resched = replace(tuned, reschedule_on_completion=True)
            for name, policy, cell_config in (
                ("MCC", MCC(), tuned),
                ("MCCK", MCCK(), tuned),
                ("MCCK+resched", MCCK(), resched),
            ):
                grid.append(
                    sim_task(
                        "ablation-cycle", policy, cell_config, workload,
                        label=f"{distribution}/{name}@{interval:g}s",
                    )
                )
    return grid


def merge(
    values: list,
    jobs: int = 400,
    intervals: tuple[float, ...] = DEFAULT_INTERVALS,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = ("normal", "high-skew"),
) -> CycleAblationResult:
    cursor = iter(values)
    makespans: dict[str, dict[str, list[float]]] = {}
    for distribution in distributions:
        series: dict[str, list[float]] = {name: [] for name in _SERIES}
        for _interval in intervals:
            for name in _SERIES:
                series[name].append(next(cursor)["makespan"])
        makespans[distribution] = series
    return CycleAblationResult(
        job_count=jobs, intervals=intervals, makespans=makespans
    )


def run(
    jobs: int = 400,
    intervals: tuple[float, ...] = DEFAULT_INTERVALS,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    distributions: tuple[str, ...] = ("normal", "high-skew"),
    runner: Optional[TaskRunner] = None,
) -> CycleAblationResult:
    grid = tasks(
        jobs=jobs, intervals=intervals, config=config, seed=seed,
        distributions=distributions,
    )
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, intervals=intervals, config=config, seed=seed,
        distributions=distributions,
    )


def render(result: CycleAblationResult) -> str:
    blocks = [
        f"A3: makespan vs negotiation-cycle interval ({result.job_count} jobs, 8 nodes)"
    ]
    for distribution, series in result.makespans.items():
        blocks.append(
            format_series(
                "cycle (s)",
                [f"{i:g}" for i in result.intervals],
                series,
                title=f"\n[{distribution}]",
            )
        )
    return "\n".join(blocks)
