"""Parallel experiment runner: task grids over a process pool.

The paper's evaluation decomposes into hundreds of independent
simulation *cells* — one :func:`repro.cluster.run` call per (workload x
cluster shape x software stack) point — and every cell owns its own
:class:`~repro.sim.Environment`, so the harness is embarrassingly
parallel. Experiment modules declare their grid as picklable
:class:`SimTask` values (``tasks()``), a pure function reconstructs
each cell from its parameters (``compute_task``), and a deterministic
``merge()`` folds the cell values — in grid order, never completion
order — back into the module's result dataclass. Parallel output is
therefore byte-identical to sequential output (asserted in
``tests/test_runner_determinism.py``).

:class:`TaskRunner` fans cache misses out over a
``ProcessPoolExecutor`` and consults the content-addressed
:class:`~repro.experiments.cache.ResultCache` first, so a warm rerun
touches no simulator code at all.

Cell kinds
----------
``sim``
    Every simulation cell: one :func:`repro.cluster.run` call. Its
    parameters are the scenario: a ``policy`` value
    (:class:`~repro.cluster.MC`, :class:`~repro.cluster.MCC`,
    :class:`~repro.cluster.BestFit` or :class:`~repro.cluster.MCCK`
    with its fields), a ``config`` (:class:`~repro.cluster.ClusterConfig`,
    already resized/tuned), a ``workload`` spec (see
    :func:`repro.experiments.common.make_workload`), and optionally
    ``faults``/``fault_seed`` and ``net``/``net_seed``. A seed is only
    carried with its profile, so a fault-free, fabric-free cell has the
    same parameters wherever it appears. The cell value is
    :meth:`~repro.cluster.SimulationResult.scalars`: every scalar result
    field under its own name.
``run:<experiment>``
    A whole-experiment task for modules that are cheap or exact
    (fig7, ext-oversubscription): the worker calls ``module.run``.

A cell's identity is its kind and parameters; the experiment name and
label only describe it. Identical cells are therefore computed once per
run and shared across experiments (fig8's 8-node cells are the same
cells fig9 computes for its size sweep), and the cache key ignores the
experiment too.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

from ..cluster import Policy, run
from ..faults import FaultProfile
from ..net import NetProfile
from ..obs import audit as _audit
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .cache import ResultCache
from .common import make_workload


def _freeze(value: Any) -> Any:
    """Make a parameter value hashable/stable (dicts and lists ordered)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class SimTask:
    """One picklable simulation cell.

    ``params`` is a sorted tuple of ``(name, value)`` pairs built from
    primitives and frozen dataclasses only, so a task can be pickled to
    a worker process and content-addressed for the cache. ``experiment``
    and ``label`` are display-only and excluded from equality and the
    cache key.
    """

    experiment: str = field(compare=False)
    kind: str
    params: Tuple[Tuple[str, Any], ...]
    label: str = field(default="", compare=False)

    @classmethod
    def make(
        cls, experiment: str, kind: str, label: str = "", **params: Any
    ) -> "SimTask":
        frozen = tuple(sorted((k, _freeze(v)) for k, v in params.items()))
        return cls(experiment, kind, frozen, label or kind)

    def kwargs(self) -> dict:
        return dict(self.params)


def sim_task(
    experiment: str,
    policy: Policy,
    config: Any,
    workload: Tuple[Any, ...],
    label: str = "",
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    net: Optional[NetProfile] = None,
    net_seed: int = 0,
) -> SimTask:
    """One simulation cell: a policy on one workload and cluster.

    A seed is kept only next to its profile: without ``faults`` (or
    ``net``) the run never reads ``fault_seed`` (``net_seed``), so
    leaving it out lets baseline cells share their key.
    """
    params = {"policy": policy, "config": config, "workload": workload}
    if faults is not None:
        params.update(faults=faults, fault_seed=fault_seed)
    if net is not None:
        params.update(net=net, net_seed=net_seed)
    label = label or f"{policy.name}@n{config.nodes}"
    return SimTask.make(experiment, "sim", label=label, **params)


def compute_task(task: SimTask) -> Any:
    """Recompute one cell from its parameters (runs in worker processes)."""
    # Each cell's sim clock restarts at zero, so the tracer and the
    # metrics registry partition their output per cell. In parallel mode
    # the workers are separate processes where ACTIVE is None — tracing
    # is a single-process (--jobs 1) feature, like --profile and --audit.
    label = f"{task.experiment}/{task.label}"
    if _trace.ACTIVE is not None:
        _trace.ACTIVE.enter_cell(label)
    if _metrics.ACTIVE is not None:
        _metrics.ACTIVE.enter_cell(label)
    auditor = _audit.ACTIVE
    if auditor is None:
        return _compute_value(task)
    # Scope the auditor's ledgers to this cell; finish_cell runs the
    # end-of-cell reconciliation checks (and raises on a violation).
    auditor.enter_cell(label)
    value = _compute_value(task)
    auditor.finish_cell()
    return value


def _compute_value(task: SimTask) -> Any:
    if task.kind == "sim":
        params = task.kwargs()
        jobs = make_workload(params.pop("workload"))
        return run(jobs, **params).scalars()
    # Imported lazily: the registry imports the experiment modules,
    # which import this module for SimTask/execute.
    from . import EXPERIMENTS

    return EXPERIMENTS[task.experiment].run(**task.kwargs())


def _timed_compute(task: SimTask) -> Tuple[Any, float]:
    started = time.perf_counter()
    value = compute_task(task)
    return value, time.perf_counter() - started


@dataclass
class CellOutcome:
    """One executed (or cache-served) cell, with provenance for the CLI."""

    task: SimTask
    value: Any
    seconds: float
    cached: bool


class TaskRunner:
    """Execute task grids: cache first, then a process pool for misses.

    ``workers <= 1`` computes misses inline (no pool, no pickling
    round-trip), which is also the mode used when an experiment's
    ``run()`` is called directly without a runner.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache
        self.outcomes: list[CellOutcome] = []

    def map_tasks(self, tasks: Sequence[SimTask]) -> list[CellOutcome]:
        """Run every task, returning outcomes in task order."""
        outcomes: list[Optional[CellOutcome]] = [None] * len(tasks)
        first_index: dict[SimTask, int] = {}
        duplicates: dict[int, int] = {}
        miss_indices: list[int] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                hit, value = self.cache.get(task)
                if hit:
                    outcomes[i] = CellOutcome(task, value, 0.0, True)
                    continue
            # Identical cells (e.g. fig8's 8-node cells reappear in
            # fig9's size sweep) are computed once and fanned back out,
            # whichever experiments ask for them.
            if task in first_index:
                duplicates[i] = first_index[task]
                continue
            first_index[task] = i
            miss_indices.append(i)

        if miss_indices:
            missing = [tasks[i] for i in miss_indices]
            if self.workers <= 1 or len(missing) == 1:
                computed = [_timed_compute(task) for task in missing]
            else:
                max_workers = min(self.workers, len(missing))
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    computed = list(
                        pool.map(_timed_compute, missing, chunksize=1)
                    )
            for i, (value, seconds) in zip(miss_indices, computed):
                outcomes[i] = CellOutcome(tasks[i], value, seconds, False)
                if self.cache is not None:
                    self.cache.put(tasks[i], value)

        for i, source in duplicates.items():
            original = outcomes[source]
            assert original is not None
            outcomes[i] = CellOutcome(tasks[i], original.value, 0.0, True)

        final = [outcome for outcome in outcomes if outcome is not None]
        assert len(final) == len(tasks)
        self.outcomes.extend(final)
        return final

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if not o.cached)

    @property
    def served_from_cache(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)


def execute(tasks: Sequence[SimTask], runner: Optional[TaskRunner] = None) -> list[Any]:
    """Cell values for a grid: inline when no runner is supplied."""
    if runner is None:
        return [compute_task(task) for task in tasks]
    return [outcome.value for outcome in runner.map_tasks(tasks)]
