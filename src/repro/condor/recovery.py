"""Daemon crash–recovery: the schedd's write-ahead log and the supervisor.

HTCondor's daemons survive restarts because the schedd journals every
job-queue transition to disk (the ``job_queue.log``) and replays it at
boot, while the collector and negotiator hold only soft state that is
re-advertised or rebuilt. This module reproduces that architecture on
the simulator's clock:

* :class:`JobQueueLog` — an in-sim write-ahead log attached to a
  :class:`~repro.condor.schedd.Schedd`. Every submission, qedit, match,
  dispatch, status change, requeue, and terminal outcome appends a
  record; a checkpoint compacts the log to one snapshot per job.
  ``replay()`` rebuilds the queue — fresh :class:`JobRecord` objects,
  FIFO order, idle/unfinished counters, retry accounting — from the
  records alone.
* :class:`DaemonSupervisor` — crashes and restarts the schedd,
  negotiator, and collector. A crash closes the daemon's fabric
  endpoint (in-flight messages keep retransmitting, exactly like a TCP
  peer retrying a dead daemon's port) and drops its volatile state; the
  restart replays/rebuilds and reconciles with the rest of the pool.

Reconciliation (schedd restart) follows the startd-side source of
truth, the claim leases in :mod:`repro.condor.claims`:

* RUNNING jobs are *re-adopted* by claim token: the claim-manager entry
  and its renewal loop are recreated, so a still-healthy run finishes
  under its original claim and a dead one is declared lost through the
  normal lease path into :class:`~repro.condor.schedd.RetryPolicy`.
* MATCHED jobs get their match watchdog back with the *original*
  deadline (journaled match time + ``match_timeout_s``), so a claim
  that never activates is re-offered exactly when it would have been.
* BACKOFF jobs resume the *remaining* backoff (journaled requeue time
  minus now) — attempt accounting is replayed, never reset.

Determinism: the WAL holds plain state (no RNG, no events), appends are
pure bookkeeping, and replay + reconciliation run synchronously at the
restart instant in journal order. A fixed seed therefore reproduces a
crash run byte-for-byte, and a run with recovery disabled (``wal is
None``, no supervisor) executes the exact pre-PR instruction stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..faults.schedule import DAEMONS
from ..net.fabric import COLLECTOR, NEGOTIATOR, SCHEDD
from ..obs import audit as _audit
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment
from .ads import job_ad
from .schedd import (
    BACKOFF,
    COMPLETED,
    FAILED,
    IDLE,
    MATCHED,
    RUNNING,
    JobRecord,
    Schedd,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pool import CondorPool

__all__ = ["DAEMONS", "DaemonSupervisor", "JobQueueLog", "WalRecord"]


@dataclass(frozen=True)
class WalRecord:
    """One journal entry: a kind, a sim timestamp, and its payload.

    The payload is plain state (ids, numbers, frozen profiles, result
    objects) — never live queue objects — so replay depends only on the
    journal, not on what the crashed daemon left behind.
    """

    kind: str
    time: float
    job_id: Optional[str]
    data: dict = field(default_factory=dict)


class JobQueueLog:
    """Sim-clock write-ahead log for one schedd's job queue.

    Attach before the first submission (``schedd.wal = JobQueueLog(env,
    schedd)``); every transition then journals itself through the
    ``log_*`` hooks in :class:`~repro.condor.schedd.Schedd`. The log
    auto-compacts once it grows past ``4 ×`` the jobs it has seen, by
    checkpointing: one ``snapshot`` record per job plus a ``checkpoint``
    header carrying the schedd-level counters.
    """

    def __init__(self, env: Environment, schedd: Schedd) -> None:
        self.env = env
        self.schedd = schedd
        self.records: list[WalRecord] = []
        #: Total records ever appended (compaction does not reset this).
        self.appended = 0
        #: Records replayed across every recovery of this schedd.
        self.replayed = 0
        self.compactions = 0
        self._jobs_seen = 0
        #: ``job_id -> (sharing, memory_aware)``: the submit-ad flags,
        #: needed to rebuild ads for jobs whose submit record has been
        #: compacted away.
        self._flags: dict[str, tuple[bool, bool]] = {}

    def __len__(self) -> int:
        return len(self.records)

    # -- journaling hooks --------------------------------------------------

    def _append(self, kind: str, job_id: Optional[str], **data: Any) -> None:
        self.records.append(
            WalRecord(kind=kind, time=self.env.now, job_id=job_id, data=data)
        )
        self.appended += 1
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("wal.records").inc()
        if len(self.records) > max(64, 4 * self._jobs_seen):
            self.checkpoint()

    def log_submit(
        self, record: JobRecord, sharing: bool, memory_aware: bool
    ) -> None:
        self._jobs_seen += 1
        self._flags[record.job_id] = (sharing, memory_aware)
        self._append(
            "submit",
            record.job_id,
            profile=record.profile,
            seq=record.seq,
        )

    def log_qedit(self, job_id: str, attr: str, expression: str) -> None:
        self._append("qedit", job_id, attr=attr, expression=expression)

    def log_match(self, job_id: str, token: int) -> None:
        self._append("match", job_id, token=token)

    def log_unmatch(self, job_id: str) -> None:
        self._append("unmatch", job_id)

    def log_run(self, job_id: str, node: str, device: Optional[int]) -> None:
        self._append("run", job_id, node=node, device=device)

    def log_complete(self, job_id: str, result: Any) -> None:
        self._append("complete", job_id, result=result)

    def log_fail(
        self,
        job_id: str,
        result: Any,
        retry: bool,
        requeue_at: Optional[float],
    ) -> None:
        self._append(
            "fail", job_id, result=result, retry=retry, requeue_at=requeue_at
        )

    # -- checkpoint / compaction ------------------------------------------

    def log_requeue(self, job_id: str) -> None:
        self._append("requeue", job_id)

    def checkpoint(self) -> None:
        """Compact the journal to the schedd's current state.

        Writes a ``checkpoint`` header (schedd counters) followed by one
        ``snapshot`` record per job, then truncates everything older —
        HTCondor's periodic ``job_queue.log`` compaction.
        """
        schedd = self.schedd
        now = self.env.now
        compacted: list[WalRecord] = [
            WalRecord(
                kind="checkpoint",
                time=now,
                job_id=None,
                data={
                    "seq": schedd._seq,
                    "requeues": schedd.requeues,
                    "terminal_failures": schedd.terminal_failures,
                },
            )
        ]
        for record in schedd.all_records():
            sharing, memory_aware = self._flags[record.job_id]
            compacted.append(
                WalRecord(
                    kind="snapshot",
                    time=now,
                    job_id=record.job_id,
                    data={
                        "profile": record.profile,
                        "sharing": sharing,
                        "memory_aware": memory_aware,
                        "seq": record.seq,
                        "status": record.status,
                        "attempts": record.attempts,
                        "failures": tuple(record.failures),
                        "result": record.result,
                        "matched_node": record.matched_node,
                        "matched_device": record.matched_device,
                        "claim_token": record.claim_token,
                        "matched_at": record.matched_at,
                        "requeue_at": record.requeue_at,
                        "requirements": record.ad.get_expr("Requirements"),
                        "assigned_device": record.ad.get_expr(
                            "AssignedPhiDevice"
                        ),
                    },
                )
            )
        self.records = compacted
        self.compactions += 1

    # -- replay ------------------------------------------------------------

    def replay(self, schedd: Optional[Schedd] = None) -> int:
        """Rebuild the schedd's queue from the journal; return the record count.

        Reconstruction is silent: no listeners, traces, metrics, or audit
        events fire — those already fired when the journaled transition
        happened. Completion events are carried over from the pre-crash
        records where they exist, so external waiters still resolve; the
        ``_all_done`` event object is likewise preserved (the pool holds
        a reference to it).
        """
        schedd = schedd or self.schedd
        old = schedd._records
        schedd._records = {}
        schedd._fifo = []
        schedd._fifo_dirty = False
        schedd._seq = 0
        schedd._idle = 0
        schedd._unfinished = 0
        schedd.requeues = 0
        schedd.terminal_failures = 0
        for rec in self.records:
            self._apply(schedd, rec, old)
        schedd._check_all_done()
        self.replayed += len(self.records)
        return len(self.records)

    def _apply(self, schedd: Schedd, rec: WalRecord, old: dict) -> None:
        kind, data = rec.kind, rec.data
        if kind == "checkpoint":
            schedd._seq = data["seq"]
            schedd.requeues = data["requeues"]
            schedd.terminal_failures = data["terminal_failures"]
            return
        if kind in ("submit", "snapshot"):
            if kind == "submit":
                profile = data["profile"]
                sharing, memory_aware = self._flags[rec.job_id]
            else:
                profile = data["profile"]
                sharing, memory_aware = data["sharing"], data["memory_aware"]
            record = JobRecord(
                job_id=rec.job_id,
                ad=job_ad(profile, sharing=sharing, memory_aware=memory_aware),
                profile=profile,
                seq=data["seq"],
                completion=self._carry_completion(schedd, old, rec.job_id),
            )
            record.base_requirements = record.ad.get_expr("Requirements")
            record.fifo_key = (profile.submit_time, record.seq)
            if kind == "snapshot":
                record.status = data["status"]
                record.attempts = data["attempts"]
                record.failures = list(data["failures"])
                record.result = data["result"]
                record.matched_node = data["matched_node"]
                record.matched_device = data["matched_device"]
                record.claim_token = data["claim_token"]
                record.matched_at = data["matched_at"]
                record.requeue_at = data["requeue_at"]
                record.ad["JobStatus"] = record.status
                if data["requirements"] is not None:
                    record.ad["Requirements"] = data["requirements"]
                if data["assigned_device"] is not None:
                    record.ad["AssignedPhiDevice"] = data["assigned_device"]
            schedd._records[rec.job_id] = record
            if schedd._fifo and record.fifo_key < schedd._fifo[-1].fifo_key:
                schedd._fifo_dirty = True
            schedd._fifo.append(record)
            schedd._seq = max(schedd._seq, record.seq)
            if record.status not in (COMPLETED, FAILED):
                schedd._unfinished += 1
            if record.status == IDLE:
                schedd._idle += 1
            if record.status in (COMPLETED, FAILED):
                self._settle_completion(record)
            return
        record = schedd._records[rec.job_id]
        if kind == "qedit":
            record.ad.set_expr(data["attr"], data["expression"])
        elif kind == "match":
            record.status = MATCHED
            record.claim_token = data["token"]
            record.matched_at = rec.time
            record.ad["JobStatus"] = MATCHED
            schedd._idle -= 1
        elif kind == "unmatch":
            record.status = IDLE
            record.claim_token = None
            record.matched_at = None
            record.ad["JobStatus"] = IDLE
            schedd._idle += 1
        elif kind == "run":
            if record.status == IDLE:
                schedd._idle -= 1
            record.status = RUNNING
            record.matched_node = data["node"]
            record.matched_device = data["device"]
            record.matched_at = None
            record.ad["JobStatus"] = RUNNING
        elif kind == "complete":
            record.status = COMPLETED
            record.result = data["result"]
            record.claim_token = None
            record.ad["JobStatus"] = COMPLETED
            schedd._unfinished -= 1
            self._settle_completion(record)
        elif kind == "fail":
            result = data["result"]
            record.attempts += 1
            record.failures.append(result)
            record.matched_node = None
            record.matched_device = None
            record.claim_token = None
            if data["retry"]:
                record.status = BACKOFF
                record.requeue_at = data["requeue_at"]
                record.ad["JobStatus"] = BACKOFF
            else:
                record.status = FAILED
                record.result = result
                record.ad["JobStatus"] = FAILED
                schedd._unfinished -= 1
                schedd.terminal_failures += 1
                self._settle_completion(record)
        elif kind == "requeue":
            record.status = IDLE
            record.requeue_at = None
            record.ad["JobStatus"] = IDLE
            if record.base_requirements is not None:
                record.ad["Requirements"] = record.base_requirements
            schedd.requeues += 1
            schedd._idle += 1
        else:  # pragma: no cover - journal corruption guard
            raise ValueError(f"unknown WAL record kind {kind!r}")

    def _carry_completion(self, schedd: Schedd, old: dict, job_id: str):
        prior = old.get(job_id)
        if prior is not None and prior.completion is not None:
            return prior.completion
        return schedd.env.event()

    @staticmethod
    def _settle_completion(record: JobRecord) -> None:
        if record.completion is not None and not record.completion.triggered:
            record.completion.succeed(record.result)


class DaemonSupervisor:
    """Crashes and restarts the pool's central daemons, deterministically.

    The fault injector routes ``daemon-crash`` events here. A crash
    *always* schedules its own restart (after the profile's
    ``daemon_downtime_s``) before any other effect — the structural
    sibling of the injector's last-healthy-device guard: no fault
    profile can leave the pool permanently headless.
    """

    def __init__(self, env: Environment, pool: "CondorPool") -> None:
        if pool.fabric is None:
            raise ValueError(
                "daemon crash-recovery requires the message fabric "
                "(construct the pool with a NetProfile)"
            )
        self.env = env
        self.pool = pool
        self._down: set[str] = set()
        #: Every crash as ``(time, daemon)``, in injection order.
        self.crash_log: list[tuple[float, str]] = []
        self.crashes = 0
        #: Completed schedd WAL replays (collector/negotiator restarts
        #: rebuild soft state and are not counted here).
        self.recoveries = 0
        self.records_replayed = 0
        #: RUNNING jobs re-adopted against a still-open startd lease.
        self.jobs_readopted = 0

    def is_up(self, daemon: str) -> bool:
        return daemon not in self._down

    def crash_daemon(self, daemon: str, downtime_s: float) -> None:
        """Crash ``daemon`` now; its restart lands after ``downtime_s``."""
        if daemon not in DAEMONS:
            raise ValueError(f"unknown daemon {daemon!r}")
        if daemon in self._down:
            raise ValueError(f"daemon {daemon!r} is already down")
        if downtime_s <= 0:
            raise ValueError("downtime_s must be positive")
        self._down.add(daemon)
        self.crashes += 1
        self.crash_log.append((self.env.now, daemon))
        # Headless-pool guard: the restart is committed before the crash
        # takes effect, so a crashed daemon can never stay down forever.
        self.env.process(
            self._restart_later(daemon, downtime_s), name=f"restart:{daemon}"
        )
        if daemon == "schedd":
            self._crash_schedd()
        elif daemon == "negotiator":
            self.pool.negotiator.crash()
        else:
            self._crash_collector()

    def _restart_later(self, daemon: str, downtime_s: float):
        yield self.env.timeout(downtime_s)
        self._down.discard(daemon)
        if daemon == "schedd":
            self._restore_schedd()
        elif daemon == "negotiator":
            self.pool.negotiator.restore()
        else:
            self._restore_collector()
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                f"{daemon}-restarted",
                "recovery",
                self.env.now,
                tid=_trace.FAULTS_TID,
            )

    # -- schedd ------------------------------------------------------------

    def _crash_schedd(self) -> None:
        pool = self.pool
        pool.schedd.down = True
        pool.fabric.set_down(SCHEDD)
        pool.claims.crash()
        auditor = _audit.ACTIVE
        if auditor is not None:
            auditor.schedd_crashed(self.env.now)

    def _restore_schedd(self) -> None:
        pool = self.pool
        schedd = pool.schedd
        assert schedd.wal is not None, "schedd restarted without a WAL"
        replayed = schedd.wal.replay(schedd)
        self.records_replayed += replayed
        readopted = self._reconcile()
        self.jobs_readopted += readopted
        # The compaction a real schedd performs right after a successful
        # replay: the rebuilt queue state is the new journal base.
        schedd.wal.checkpoint()
        # The daemon is up again *before* subscribers resync: listeners
        # (e.g. the knapsack scheduler's full resync) may issue qedits
        # and schedule repacks, both of which no-op against a down schedd.
        schedd.down = False
        for listener in list(schedd.recovery_listeners):
            listener()
        schedd.recoveries += 1
        self.recoveries += 1
        pool.fabric.set_up(SCHEDD)
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("schedd.recoveries").inc()
            registry.counter("wal.replayed").inc(replayed)
            registry.counter("jobs.readopted").inc(readopted)

    def _reconcile(self) -> int:
        """Reconcile replayed records with startd-side lease state.

        Walks the rebuilt queue in FIFO order (deterministic) and hands
        each in-flight job back to the claim machinery; returns how many
        RUNNING jobs were re-adopted against a live lease.
        """
        pool, env = self.pool, self.env
        schedd = pool.schedd
        claims = pool.claims
        profile = claims.profile
        readopted = 0
        for record in schedd.all_records():
            if record.status == RUNNING:
                agent = pool.agents[record.matched_node]
                lease = agent._leases.get(record.claim_token)
                live = (
                    lease is not None
                    and not lease.closed
                    and agent.startd.alive
                )
                # Recreate the claim either way: a closed lease means the
                # startd's job-done report is already in flight (the
                # transport retransmits until the schedd acks), and that
                # report must find its claim to land. A dead node's claim
                # is declared lost by the recreated renewal loop and the
                # job flows into the normal retry path.
                claims.readopt(record)
                if live:
                    readopted += 1
            elif record.status == MATCHED:
                deadline = record.matched_at + profile.match_timeout_s
                claims.watch_match(record, deadline)
            elif record.status == BACKOFF:
                delay = max(0.0, record.requeue_at - env.now)
                schedd._requeue_after(record, delay)
        return readopted

    # -- collector ---------------------------------------------------------

    def _crash_collector(self) -> None:
        self.pool.collector.crash_reset()
        self.pool.fabric.set_down(COLLECTOR)

    def _restore_collector(self) -> None:
        self.pool.fabric.set_up(COLLECTOR)
        # Stateless recovery: demand a fresh ad from every live startd
        # instead of restoring the stale store.
        self.pool.collector_agent.force_readvertise()
