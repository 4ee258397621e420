"""E1 — §III motivation: coprocessor utilization under exclusive allocation.

The paper's motivating measurement: with Condor dedicating each Xeon Phi
to one job, average core utilization across the cluster is only ~50% for
the real (Table I) mix and 38-63% across synthetic resource
distributions. This experiment reruns that measurement on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import MC, ClusterConfig
from ..metrics import format_table
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task


@dataclass
class MotivationResult:
    """Mean MC core utilization per workload."""

    real_mix_utilization: float
    synthetic_utilization: dict[str, float]
    job_counts: dict[str, int]

    @property
    def synthetic_band(self) -> tuple[float, float]:
        values = self.synthetic_utilization.values()
        return (min(values), max(values))


def tasks(
    real_jobs: int = 1000,
    synthetic_jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    grid = [
        sim_task(
            "motivation", MC(), config, ("table1", real_jobs, seed),
            label="table1/MC",
        )
    ]
    for distribution in DISTRIBUTIONS:
        grid.append(
            sim_task(
                "motivation", MC(), config,
                ("synthetic", synthetic_jobs, distribution, seed),
                label=f"{distribution}/MC",
            )
        )
    return grid


def merge(
    values: list,
    real_jobs: int = 1000,
    synthetic_jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> MotivationResult:
    counts = {"real": real_jobs}
    synthetic: dict[str, float] = {}
    for distribution, value in zip(DISTRIBUTIONS, values[1:]):
        synthetic[distribution] = value["mean_core_utilization"]
        counts[distribution] = synthetic_jobs
    return MotivationResult(
        real_mix_utilization=values[0]["mean_core_utilization"],
        synthetic_utilization=synthetic,
        job_counts=counts,
    )


def run(
    real_jobs: int = 1000,
    synthetic_jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> MotivationResult:
    grid = tasks(
        real_jobs=real_jobs, synthetic_jobs=synthetic_jobs, config=config,
        seed=seed,
    )
    values = execute(grid, runner)
    return merge(
        values, real_jobs=real_jobs, synthetic_jobs=synthetic_jobs,
        config=config, seed=seed,
    )


def render(result: MotivationResult) -> str:
    rows = [
        [
            "Table-I mix",
            result.job_counts["real"],
            f"{100 * result.real_mix_utilization:.1f}%",
            "~50%",
        ]
    ]
    paper_band = {"band": "38%-63%"}
    for name, value in result.synthetic_utilization.items():
        rows.append(
            [name, result.job_counts[name], f"{100 * value:.1f}%", paper_band["band"]]
        )
    lo, hi = result.synthetic_band
    table = format_table(
        ["workload", "jobs", "MC core utilization", "paper"],
        rows,
        title="E1 (motivation, SIII): Xeon Phi core utilization under exclusive allocation",
    )
    return table + f"\nsynthetic band: {100 * lo:.1f}%-{100 * hi:.1f}%"
