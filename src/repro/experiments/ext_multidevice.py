"""X2 — extension: consolidating coprocessors (D devices per node).

The problem formulation (§IV-B) allows D Xeon Phis per server but the
testbed had one. This extension holds total cards constant (8) and
varies the node shape: 8x1, 4x2, 2x4. Consolidation pools the host slots
that feed each card and lets the within-node device picker balance, at
the price of fewer host CPUs per card.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cluster import MCC, MCCK, ClusterConfig
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

#: (nodes, devices_per_node) shapes with 8 cards total.
DEFAULT_SHAPES = ((8, 1), (4, 2), (2, 4))

_POLICIES = (MCC(), MCCK())


@dataclass
class MultiDeviceResult:
    job_count: int
    shapes: tuple[tuple[int, int], ...]
    makespans: dict[str, list[float]]  # configuration -> aligned with shapes


def tasks(
    jobs: int = 400,
    shapes: tuple[tuple[int, int], ...] = DEFAULT_SHAPES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    workload = ("table1", jobs, seed)
    return [
        sim_task(
            "ext-multidevice", policy,
            replace(config, nodes=nodes, devices_per_node=devices), workload,
            label=f"{policy.name}@{nodes}x{devices}",
        )
        for nodes, devices in shapes
        for policy in _POLICIES
    ]


def merge(
    values: list,
    jobs: int = 400,
    shapes: tuple[tuple[int, int], ...] = DEFAULT_SHAPES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> MultiDeviceResult:
    cursor = iter(values)
    makespans: dict[str, list[float]] = {p.name: [] for p in _POLICIES}
    for _shape in shapes:
        for policy in _POLICIES:
            makespans[policy.name].append(next(cursor)["makespan"])
    return MultiDeviceResult(job_count=jobs, shapes=shapes, makespans=makespans)


def run(
    jobs: int = 400,
    shapes: tuple[tuple[int, int], ...] = DEFAULT_SHAPES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> MultiDeviceResult:
    grid = tasks(jobs=jobs, shapes=shapes, config=config, seed=seed)
    values = execute(grid, runner)
    return merge(values, jobs=jobs, shapes=shapes, config=config, seed=seed)


def render(result: MultiDeviceResult) -> str:
    rows = []
    for i, (nodes, devices) in enumerate(result.shapes):
        rows.append(
            [
                f"{nodes} nodes x {devices} Phi",
                f"{result.makespans['MCC'][i]:.0f}",
                f"{result.makespans['MCCK'][i]:.0f}",
            ]
        )
    return format_table(
        ["cluster shape (8 cards total)", "MCC (s)", "MCCK (s)"],
        rows,
        title=f"X2: consolidation at constant card count ({result.job_count} jobs)",
    )
