"""X4 — extension: seed-replication study with confidence intervals.

The paper reports single-run numbers. This extension reruns the Table-II
comparison over several workload seeds and reports mean ± 95% CI for
each configuration's makespan and reduction, separating real effects
from workload-draw noise (and quantifying how (in)significant the
MCC↔MCCK gap is in this simulator — see EXPERIMENTS.md deviation 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import PAPER_POLICIES, ClusterConfig
from ..metrics import Replicated, compare, format_table
from .common import PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute, sim_task

DEFAULT_SEEDS = (42, 43, 44, 45, 46)


@dataclass
class ReplicationResult:
    job_count: int
    seeds: tuple[int, ...]
    makespans: dict[str, Replicated]

    def reduction(self, configuration: str) -> Replicated:
        """Per-seed percentage reduction vs the same seed's MC run."""
        mc = self.makespans["MC"].values
        other = self.makespans[configuration].values
        return Replicated(
            tuple(100.0 * (1.0 - o / m) for o, m in zip(other, mc))
        )

    @property
    def mcc_vs_mcck_t(self) -> float:
        """Welch t statistic for the MCC-MCCK makespan gap."""
        return compare(self.makespans["MCC"], self.makespans["MCCK"])


def tasks(
    jobs: int = 400,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = 0,  # unused; kept for CLI uniformity
) -> list[SimTask]:
    return [
        sim_task(
            "ext-replication", policy, config,
            ("table1", jobs, workload_seed),
            label=f"{policy.name}/seed{workload_seed}",
        )
        for policy in PAPER_POLICIES
        for workload_seed in seeds
    ]


def merge(
    values: list,
    jobs: int = 400,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = 0,
) -> ReplicationResult:
    cursor = iter(values)
    makespans = {
        policy.name: Replicated(
            tuple(next(cursor)["makespan"] for _ in seeds)
        )
        for policy in PAPER_POLICIES
    }
    return ReplicationResult(job_count=jobs, seeds=seeds, makespans=makespans)


def run(
    jobs: int = 400,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = 0,  # unused; kept for CLI uniformity
    runner: Optional[TaskRunner] = None,
) -> ReplicationResult:
    grid = tasks(jobs=jobs, seeds=seeds, config=config, seed=seed)
    values = execute(grid, runner)
    return merge(values, jobs=jobs, seeds=seeds, config=config, seed=seed)


def render(result: ReplicationResult) -> str:
    rows = []
    for configuration, rep in result.makespans.items():
        lo, hi = rep.ci95
        if configuration == "MC":
            reduction = "-"
        else:
            red = result.reduction(configuration)
            reduction = f"{red.mean:.1f}% ± {red.ci95[1] - red.mean:.1f}"
        rows.append(
            [
                configuration,
                f"{rep.mean:.0f}",
                f"[{lo:.0f}, {hi:.0f}]",
                f"{rep.std:.0f}",
                reduction,
            ]
        )
    table = format_table(
        ["config", "mean makespan (s)", "95% CI", "std", "reduction vs MC"],
        rows,
        title=(
            f"X4: Table-II replication over seeds {list(result.seeds)} "
            f"({result.job_count} jobs per seed)"
        ),
    )
    return table + (
        f"\nMCC vs MCCK Welch t = {result.mcc_vs_mcck_t:.2f} "
        "(|t| < ~2: the gap is within workload noise)"
    )
