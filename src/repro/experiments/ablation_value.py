"""A1 — ablation: the knapsack value function (Eq. 1 vs alternatives).

The paper sets v_i = 1 - (t_i/240)^2 so low-thread jobs pack together.
This ablation swaps that for the registered alternatives (linear penalty,
count-first, thread-blind constant, and Eq. 1 with the positive floor)
and measures MCCK makespan on the real mix and a normal synthetic set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import MCCK, ClusterConfig
from ..core import value_function_names
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER, workload_spec
from .runner import SimTask, TaskRunner, execute, sim_task

_WORKLOADS = ("table1", "normal")


@dataclass
class ValueAblationResult:
    job_count: int
    #: makespans[value_fn_name][workload] -> seconds
    makespans: dict[str, dict[str, float]]


def tasks(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    thread_cap: bool = True,
) -> list[SimTask]:
    return [
        sim_task(
            "ablation-value", MCCK(thread_cap=thread_cap, value_fn=name),
            config, workload_spec(workload, jobs, seed),
            label=f"{name}/{workload}",
        )
        for name in value_function_names()
        for workload in _WORKLOADS
    ]


def merge(
    values: list,
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    thread_cap: bool = True,
) -> ValueAblationResult:
    cursor = iter(values)
    makespans = {
        name: {workload: next(cursor)["makespan"] for workload in _WORKLOADS}
        for name in value_function_names()
    }
    return ValueAblationResult(job_count=jobs, makespans=makespans)


def run(
    jobs: int = 400,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    thread_cap: bool = True,
    runner: Optional[TaskRunner] = None,
) -> ValueAblationResult:
    grid = tasks(jobs=jobs, config=config, seed=seed, thread_cap=thread_cap)
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, config=config, seed=seed, thread_cap=thread_cap
    )


def render(result: ValueAblationResult) -> str:
    rows = [
        [name, f"{by_wl['table1']:.0f}", f"{by_wl['normal']:.0f}"]
        for name, by_wl in result.makespans.items()
    ]
    return format_table(
        ["value function", "Table-I mix (s)", "normal synthetic (s)"],
        rows,
        title=(
            f"A1: MCCK makespan by knapsack value function "
            f"({result.job_count} jobs, 8 nodes)"
        ),
    )
