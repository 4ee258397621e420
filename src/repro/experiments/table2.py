"""E2/E3 — Table II: makespan and footprint on the real workload mix.

1000 Table-I job instances on the 8-node cluster:

* makespan under MC, MCC and MCCK (paper: 3568 / 2611 / 2183 seconds,
  i.e. 27% and 39% reductions);
* footprint: the smallest cluster whose MCC / MCCK makespan matches the
  8-node MC baseline (paper: 6 and 5 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import MCC, MCCK, PAPER_POLICIES, ClusterConfig
from ..metrics import FootprintResult, footprint_from_curve, format_table, percent_reduction
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

_FOOTPRINT_POLICIES = (MCC(), MCCK())


@dataclass
class Table2Result:
    job_count: int
    makespans: dict[str, float]  # configuration -> seconds
    footprints: dict[str, FootprintResult]
    mc_utilization: float

    def reduction(self, configuration: str) -> float:
        return percent_reduction(self.makespans["MC"], self.makespans[configuration])


def tasks(
    jobs: int = 1000,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    footprint: bool = True,
) -> list[SimTask]:
    """The cell grid: three full-size runs, then the footprint sweeps.

    The sequential harness bisected the footprint with an early-exit
    scan; here every cluster size is an independent cell so the whole
    sweep parallelises, and ``merge`` reads the footprint off the
    finished makespan-vs-size curve.
    """
    workload = ("table1", jobs, seed)
    grid = [
        sim_task("table2", policy, config, workload) for policy in PAPER_POLICIES
    ]
    if footprint:
        for policy in _FOOTPRINT_POLICIES:
            for size in range(1, config.nodes + 1):
                grid.append(
                    sim_task("table2", policy, config.resized(size), workload)
                )
    return grid


def merge(
    values: list,
    jobs: int = 1000,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    footprint: bool = True,
) -> Table2Result:
    head = values[: len(PAPER_POLICIES)]
    makespans = {p.name: v["makespan"] for p, v in zip(PAPER_POLICIES, head)}
    footprints: dict[str, FootprintResult] = {}
    if footprint:
        target = makespans["MC"]
        sweep = values[len(PAPER_POLICIES):]
        for index, policy in enumerate(_FOOTPRINT_POLICIES):
            chunk = sweep[index * config.nodes:(index + 1) * config.nodes]
            curve = {
                size: v["makespan"]
                for size, v in zip(range(1, config.nodes + 1), chunk)
            }
            footprints[policy.name] = footprint_from_curve(target, curve)
    return Table2Result(
        job_count=jobs,
        makespans=makespans,
        footprints=footprints,
        mc_utilization=head[0]["mean_core_utilization"],
    )


def run(
    jobs: int = 1000,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    footprint: bool = True,
    runner: Optional[TaskRunner] = None,
) -> Table2Result:
    grid = tasks(jobs=jobs, config=config, seed=seed, footprint=footprint)
    values = execute(grid, runner)
    return merge(values, jobs=jobs, config=config, seed=seed, footprint=footprint)


_PAPER = {
    "MC": ("3568", "-", "-", "-"),
    "MCC": ("2611", "27%", "6", "25%"),
    "MCCK": ("2183", "39%", "5", "37.5%"),
}


def render(result: Table2Result) -> str:
    rows = []
    for configuration in ("MC", "MCC", "MCCK"):
        makespan = result.makespans[configuration]
        reduction = (
            "-" if configuration == "MC" else f"{result.reduction(configuration):.0f}%"
        )
        fp: Optional[FootprintResult] = result.footprints.get(configuration)
        if fp is None:
            size, fp_red = "-", "-"
        elif fp.cluster_size is None:
            size, fp_red = ">8", "-"
        else:
            size = str(fp.cluster_size)
            fp_red = f"{100 * (1 - fp.cluster_size / 8):.1f}%"
        paper = _PAPER[configuration]
        rows.append(
            [
                configuration,
                f"{makespan:.0f}",
                reduction,
                size,
                fp_red,
                f"(paper: {paper[0]} / {paper[1]} / {paper[2]})",
            ]
        )
    return format_table(
        [
            "config",
            "makespan (s)",
            "reduction vs MC",
            "footprint (nodes)",
            "footprint reduction",
            "paper reference",
        ],
        rows,
        title=(
            f"Table II: makespan & footprint, {result.job_count} Table-I jobs, "
            f"8-node cluster (MC utilization {100 * result.mc_utilization:.0f}%)"
        ),
    )
