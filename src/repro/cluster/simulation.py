"""End-to-end cluster simulations of the paper's three configurations.

This is the experiment driver: build a cluster, submit a job set under
one of the software stacks the evaluation compares (§V), run the
simulation to completion, and collect the metrics the paper reports.

* **MC** — MPSS + Condor: exclusive coprocessor allocation (baseline).
* **MCC** — + COSMIC: random cluster-level placement, safe node sharing.
* **MCCK** — + the knapsack cluster scheduler (the proposed system).

Each stack is a :class:`Policy` value (plus the extra :class:`BestFit`
baseline) and :func:`run` is the one run path for all of them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Sequence

from ..condor import (
    COMPLETED,
    FAILED,
    BestFitPlacement,
    CondorPool,
    ExclusivePlacement,
    PinnedPlacement,
    PlacementPolicy,
    RandomPlacement,
)
from ..core import DevicePacker, KnapsackClusterScheduler, get_value_function
from ..faults import FaultInjector, FaultProfile, FaultSchedule
from ..mpss import JobRunResult, SCIFModel
from ..net.profile import NetProfile
from ..phi import PAPER_SPEC, XeonPhiSpec
from ..sim import Environment
from ..workloads.profiles import JobProfile
from .node import ComputeNode

@dataclass(frozen=True)
class ClusterConfig:
    """Shape and timing of the simulated cluster.

    Defaults follow the paper's platform: 8 nodes, 1 Phi each (8 GB),
    2x8-core hosts (16 Condor slots).
    """

    nodes: int = 8
    devices_per_node: int = 1
    spec: XeonPhiSpec = PAPER_SPEC
    slots_per_node: int = 16
    cycle_interval: float = 5.0
    dispatch_latency: float = 1.0
    seed: int = 1234
    memory_tolerance: float = 0.0
    coi_base_mb: float = 0.0
    #: condor_reschedule fidelity knob: completions trigger an extra
    #: negotiation cycle instead of waiting for the periodic timer.
    reschedule_on_completion: bool = False

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ValueError("nodes must be positive")
        if self.devices_per_node <= 0:
            raise ValueError("devices_per_node must be positive")

    def resized(self, nodes: int) -> "ClusterConfig":
        """The same configuration at a different cluster size."""
        from dataclasses import replace

        return replace(self, nodes=nodes)


@dataclass
class SimulationResult:
    """Everything the experiments read off one run."""

    configuration: str
    cluster_size: int
    job_count: int
    makespan: float
    per_device_utilization: list[float]
    job_results: list[JobRunResult]
    oom_kills: int
    memory_limit_kills: int
    negotiation_cycles: int
    packing_decisions: int = 0
    #: Jobs that exhausted their retries on infrastructure failures.
    infra_failed_jobs: int = 0
    #: Failed runs sent back through the backoff/requeue path.
    requeues: int = 0
    #: Jobs that completed after at least one failed attempt.
    retried_completed: int = 0
    #: Fault events actually applied by the injector (0 without faults).
    faults_injected: int = 0
    #: Fabric traffic (all zero when the run had no message fabric).
    net_messages: int = 0
    net_retransmits: int = 0
    net_duplicates_dropped: int = 0
    #: Startd-side lease expiries (jobs killed for lost renewals).
    lease_expiries: int = 0
    #: Schedd-side claims declared lost after the renewal drain.
    claims_lost: int = 0
    #: Claim activations the startds turned down.
    claims_rejected: int = 0
    #: Matches the schedd gave up on before the activation round-tripped.
    match_timeouts: int = 0
    #: Daemon crash–recovery ledger (all zero without daemon crashes).
    daemon_crashes: int = 0
    schedd_recoveries: int = 0
    wal_records: int = 0
    wal_replayed: int = 0
    jobs_readopted: int = 0

    @property
    def mean_core_utilization(self) -> float:
        """The paper's §III metric: average busy-core fraction."""
        if not self.per_device_utilization:
            return 0.0
        return sum(self.per_device_utilization) / len(self.per_device_utilization)

    @property
    def completed_jobs(self) -> int:
        return sum(1 for r in self.job_results if r.completed)

    @property
    def failed_jobs(self) -> int:
        return len(self.job_results) - self.completed_jobs

    def scalars(self) -> dict:
        """Every field except the per-device and per-job lists, plus the
        utilization and completed-job summaries (one runner cell)."""
        values = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not isinstance(getattr(self, f.name), list)
        }
        values["mean_core_utilization"] = self.mean_core_utilization
        values["completed_jobs"] = self.completed_jobs
        return values


def needs_recovery(faults: Optional[FaultProfile]) -> bool:
    """Whether a fault profile requires the crash–recovery machinery.

    Only profiles that actually inject daemon crashes get a WAL and a
    supervisor; everything else keeps the exact pre-recovery pool so
    outputs stay byte-identical.
    """
    return faults is not None and faults.has_daemon_crashes


def _build(
    jobs: Sequence[JobProfile],
    config: ClusterConfig,
    mode: str,
    policy: PlacementPolicy,
    faults: Optional[FaultProfile] = None,
    net: Optional[NetProfile] = None,
    net_seed: int = 0,
) -> tuple[Environment, CondorPool, list[ComputeNode]]:
    env = Environment()
    nodes = [
        ComputeNode(
            env,
            name=f"node{i}",
            num_devices=config.devices_per_node,
            spec=config.spec,
            mode=mode,
            memory_tolerance=config.memory_tolerance,
            coi_base_mb=config.coi_base_mb,
        )
        for i in range(config.nodes)
    ]
    # Heartbeat staleness only matters under faults; a fault-free pool
    # keeps the collector's default (always-fresh) behaviour so outputs
    # stay byte-identical with the pre-fault subsystem. Under a message
    # fabric the profile's own heartbeat_timeout_s wins (machine-updates
    # over the network are the liveness signal).
    heartbeat_timeout = None
    if net is None and faults is not None and not faults.is_null:
        heartbeat_timeout = 3.0 * faults.heartbeat_interval_s
    pool = CondorPool(
        env,
        nodes,
        policy,
        slots_per_node=config.slots_per_node,
        cycle_interval=config.cycle_interval,
        dispatch_latency=config.dispatch_latency,
        reschedule_on_completion=config.reschedule_on_completion,
        heartbeat_timeout=heartbeat_timeout,
        net=net,
        net_seed=net_seed,
        recovery=needs_recovery(faults),
    )
    _validate_jobs(jobs, config)
    pool.submit(list(jobs))
    return env, pool, nodes


def _attach_faults(
    env: Environment,
    pool: CondorPool,
    nodes: list[ComputeNode],
    faults: Optional[FaultProfile],
    fault_seed: int,
    scheduler: Optional[KnapsackClusterScheduler] = None,
) -> Optional[FaultInjector]:
    """Wire a fault injector into a built cluster; None when fault-free.

    A null/absent profile attaches nothing at all — zero extra events —
    so fault-free runs are indistinguishable from runs predating the
    faults subsystem.
    """
    if faults is None or faults.is_null:
        return None
    schedule = FaultSchedule.generate(faults, fault_seed)
    injector = FaultInjector(env, schedule, pool, nodes)
    if scheduler is not None:
        injector.device_failed_listeners.append(scheduler.on_device_failed)
        injector.device_restored_listeners.append(scheduler.on_device_restored)
    injector.start()
    return injector


def _validate_jobs(jobs: Sequence[JobProfile], config: ClusterConfig) -> None:
    if not jobs:
        raise ValueError("empty job set")
    spec = config.spec
    for job in jobs:
        job.validate_fits(spec.usable_memory_mb, spec.hardware_threads)


def _collect(
    configuration: str,
    config: ClusterConfig,
    pool: CondorPool,
    nodes: list[ComputeNode],
    makespan: float,
    packing_decisions: int = 0,
    injector: Optional[FaultInjector] = None,
) -> SimulationResult:
    horizon = makespan if makespan > 0 else 1.0
    # Per-node accessors short-circuit for pristine (never-used) nodes,
    # so collecting from a mostly-idle big cluster stays cheap.
    utilizations = [
        utilization
        for node in nodes
        for utilization in node.device_utilizations(horizon)
    ]
    records = [
        record
        for record in pool.schedd.all_records()
        if record.result is not None
    ]
    results = [record.result for record in records]
    memory_limit_kills = sum(1 for r in results if r.status == "memory-limit")
    oom_kills = sum(node.oom_kills for node in nodes)
    retried_completed = sum(
        1 for record in records
        if record.status == COMPLETED and record.attempts > 0
    )
    infra_failed = sum(1 for record in records if record.status == FAILED)
    net_messages = net_retransmits = net_dup_dropped = 0
    lease_expiries = claims_lost = claims_rejected = match_timeouts = 0
    if pool.fabric is not None:
        stats = pool.fabric.stats
        net_messages = stats.messages_sent
        net_retransmits = stats.retransmits
        net_dup_dropped = stats.duplicates_dropped
        lease_expiries = pool.lease_expiries()
        claims_rejected = pool.claims_rejected()
        if pool.claims is not None:
            claims_lost = pool.claims.claims_lost
            match_timeouts = pool.claims.match_timeouts
    daemon_crashes = schedd_recoveries = wal_records = 0
    wal_replayed = jobs_readopted = 0
    if pool.supervisor is not None:
        daemon_crashes = pool.supervisor.crashes
        schedd_recoveries = pool.supervisor.recoveries
        wal_replayed = pool.supervisor.records_replayed
        jobs_readopted = pool.supervisor.jobs_readopted
    if pool.schedd.wal is not None:
        wal_records = pool.schedd.wal.appended
    return SimulationResult(
        configuration=configuration,
        cluster_size=config.nodes,
        job_count=len(results),
        makespan=makespan,
        per_device_utilization=utilizations,
        job_results=results,
        oom_kills=oom_kills,
        memory_limit_kills=memory_limit_kills,
        negotiation_cycles=pool.negotiator.cycles_run,
        packing_decisions=packing_decisions,
        infra_failed_jobs=infra_failed,
        requeues=pool.schedd.requeues,
        retried_completed=retried_completed,
        faults_injected=injector.applied if injector is not None else 0,
        net_messages=net_messages,
        net_retransmits=net_retransmits,
        net_duplicates_dropped=net_dup_dropped,
        lease_expiries=lease_expiries,
        claims_lost=claims_lost,
        claims_rejected=claims_rejected,
        match_timeouts=match_timeouts,
        daemon_crashes=daemon_crashes,
        schedd_recoveries=schedd_recoveries,
        wal_records=wal_records,
        wal_replayed=wal_replayed,
        jobs_readopted=jobs_readopted,
    )


@dataclass(frozen=True)
class Policy:
    """One software stack of §V: node mode, placement, optional scheduler.

    A policy is a frozen value, so it can travel in a runner cell and
    take part in its cache key. ``placement`` builds the negotiator's
    per-run :class:`PlacementPolicy`; ``attach`` wires anything that
    drives placement from outside the negotiator into a built pool and
    returns it (the knapsack scheduler), or ``None``.
    """

    name: ClassVar[str]
    #: Node execution mode (see :data:`repro.cluster.MODES`).
    mode: ClassVar[str] = "cosmic"

    def placement(self, config: ClusterConfig) -> PlacementPolicy:
        raise NotImplementedError

    def attach(
        self, pool: CondorPool, config: ClusterConfig
    ) -> Optional[KnapsackClusterScheduler]:
        return None


@dataclass(frozen=True)
class MC(Policy):
    """Baseline: exclusive coprocessor allocation (MPSS + Condor)."""

    name: ClassVar[str] = "MC"
    mode: ClassVar[str] = "exclusive"

    def placement(self, config: ClusterConfig) -> PlacementPolicy:
        return ExclusivePlacement()


@dataclass(frozen=True)
class MCC(Policy):
    """MPSS + Condor + COSMIC: random placement, safe node-level sharing.

    With the default ``memory_aware=False``, placement is the paper's
    "packed arbitrarily": any node with a free host slot; COSMIC queues
    jobs at the node until their declaration fits the card.
    """

    memory_aware: bool = False
    name: ClassVar[str] = "MCC"

    def placement(self, config: ClusterConfig) -> PlacementPolicy:
        return RandomPlacement(
            random.Random(config.seed), memory_aware=self.memory_aware
        )


@dataclass(frozen=True)
class BestFit(Policy):
    """Extra baseline (not in the paper): best-fit placement over COSMIC.

    Memory-aware greedy placement with no look-ahead over the pending
    set, between MCC (random) and MCCK (knapsack).
    """

    name: ClassVar[str] = "BESTFIT"

    def placement(self, config: ClusterConfig) -> PlacementPolicy:
        return BestFitPlacement()


@dataclass(frozen=True)
class MCCK(Policy):
    """The proposed system: knapsack cluster scheduler over COSMIC.

    ``thread_cap`` is the paper's packing rule: a set whose declared
    threads exceed the card's hardware threads has zero knapsack value.
    ``value_fn`` names a registered value function
    (:func:`repro.core.get_value_function`).
    """

    thread_cap: bool = True
    value_fn: str = "paper-floored"
    respect_host_slots: bool = True
    name: ClassVar[str] = "MCCK"

    def placement(self, config: ClusterConfig) -> PlacementPolicy:
        return PinnedPlacement()

    def attach(
        self, pool: CondorPool, config: ClusterConfig
    ) -> KnapsackClusterScheduler:
        packer = DevicePacker(
            value_fn=get_value_function(self.value_fn),
            thread_capacity=(
                config.spec.hardware_threads if self.thread_cap else None
            ),
        )
        scheduler = KnapsackClusterScheduler(
            pool, packer=packer, respect_host_slots=self.respect_host_slots
        )
        scheduler.attach()
        return scheduler


#: The three stacks the paper's evaluation compares (§V).
PAPER_POLICIES = (MC(), MCC(), MCCK())


def run(
    jobs: Sequence[JobProfile],
    config: ClusterConfig,
    policy: Policy,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    net: Optional[NetProfile] = None,
    net_seed: int = 0,
) -> SimulationResult:
    """Simulate ``jobs`` on a ``config`` cluster under one ``policy``.

    ``faults``/``net`` optionally add a seeded fault schedule and a
    lossy message fabric; without them the run is fault-free and the
    daemons talk in-process, and both seeds are unused.
    """
    if not isinstance(policy, Policy):
        raise ValueError(
            f"unknown policy {policy!r}; choose MC(), MCC(), BestFit() or MCCK()"
        )
    env, pool, nodes = _build(
        jobs, config, mode=policy.mode, policy=policy.placement(config),
        faults=faults, net=net, net_seed=net_seed,
    )
    scheduler = policy.attach(pool, config)
    injector = _attach_faults(
        env, pool, nodes, faults, fault_seed, scheduler=scheduler
    )
    makespan = pool.run_to_completion()
    return _collect(
        policy.name, config, pool, nodes, makespan,
        packing_decisions=len(scheduler.decisions) if scheduler else 0,
        injector=injector,
    )


def run_mcc(
    jobs: Sequence[JobProfile],
    config: ClusterConfig = ClusterConfig(),
    memory_aware: bool = False,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    net: Optional[NetProfile] = None,
    net_seed: int = 0,
) -> SimulationResult:
    """``run`` under :class:`MCC` (the signature predating ``run``)."""
    return run(jobs, config, MCC(memory_aware), faults, fault_seed, net, net_seed)


def run_mcck(
    jobs: Sequence[JobProfile],
    config: ClusterConfig = ClusterConfig(),
    packer: Optional[DevicePacker] = None,
    respect_host_slots: bool = True,
    faults: Optional[FaultProfile] = None,
    fault_seed: int = 0,
    net: Optional[NetProfile] = None,
    net_seed: int = 0,
) -> SimulationResult:
    """``run`` under :class:`MCCK` (the signature predating ``run``).

    The packer is now set by MCCK's fields, so ``packer`` must be None.
    """
    if packer is not None:
        raise ValueError("use run(jobs, config, MCCK(thread_cap, value_fn))")
    return run(
        jobs, config, MCCK(respect_host_slots=respect_host_slots),
        faults, fault_seed, net, net_seed,
    )
