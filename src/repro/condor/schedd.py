"""The schedd: Condor's job queue, submission, and ``condor_qedit``.

Jobs enter the queue as (ClassAd, JobProfile) pairs and move through the
usual states. The external scheduler manipulates pending jobs exclusively
through :meth:`Schedd.qedit` — exactly the integration surface the paper
uses ("using the utility condor_qedit, we change each job's requirements",
§IV-D1) — and batched edits only take effect at the *next* negotiation
cycle, reproducing the dispatch latency the paper blames for MCCK's small
overhead on unfavourable distributions.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..faults.errors import (
    CLAIM_LOST,
    DEVICE_FAILED,
    JOB_CRASHED,
    LEASE_EXPIRED,
    NODE_LOST,
)
from ..mpss.runtime import JobRunResult
from ..obs import audit as _audit
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment, Event
from ..workloads.profiles import JobProfile
from .ads import job_ad
from .classad import ClassAd, Expr

IDLE = "Idle"
#: A match notification arrived over the fabric but the claim has not
#: been activated on the startd yet (fabric mode only — direct dispatch
#: never leaves a job in this state).
MATCHED = "Matched"
RUNNING = "Running"
COMPLETED = "Completed"
REMOVED = "Removed"
#: Waiting out the retry backoff after an infrastructure failure.
BACKOFF = "Backoff"
#: Terminally failed: retries exhausted (or the failure is not retryable).
FAILED = "Failed"

#: Result statuses that mean the *infrastructure* failed the job. Only
#: these are retryable — kill-by-container statuses ("memory-limit",
#: "oom-killed") are the job's own fault and rerunning would fail again.
INFRASTRUCTURE_STATUSES = frozenset(
    {DEVICE_FAILED, NODE_LOST, JOB_CRASHED, LEASE_EXPIRED, CLAIM_LOST,
     "infrastructure"}
)

#: Sort key for FIFO queue listings (precomputed at submission).
_FIFO_KEY = operator.attrgetter("fifo_key")


def job_tid(record: "JobRecord") -> int:
    """The trace track a job's lifecycle spans land on."""
    return _trace.JOB_TID_BASE + record.seq


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for infrastructure failures.

    A job is retried at most ``max_retries`` times (so it runs at most
    ``max_retries + 1`` times), waiting
    ``base_backoff_s * backoff_factor ** (attempt - 1)`` seconds (capped
    at ``max_backoff_s``) before re-entering the idle queue. The bound
    is what prevents a retry storm when a failure is persistent.

    ``jitter`` desynchronizes the storms the bound cannot prevent: when
    one node crash fails sixteen jobs in the same instant, identical
    backoffs would re-queue them in the same negotiation cycle too. A
    nonzero jitter scales each delay by a factor drawn deterministically
    from ``(jitter_seed, key, attempt)`` — a keyed hash, not process
    state — so replays for a fixed seed stay byte-identical while
    distinct jobs spread across ``[1 - jitter, 1] × backoff``.
    """

    max_retries: int = 3
    base_backoff_s: float = 30.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 600.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, status: str, attempts: int) -> bool:
        """Whether a job with ``attempts`` failed runs gets another."""
        return status in INFRASTRUCTURE_STATUSES and attempts <= self.max_retries

    def backoff(self, attempt: int, key: Optional[str] = None) -> float:
        """Delay before re-queueing after failed run number ``attempt``.

        ``key`` (normally the job id) selects the jitter draw. The draw
        comes from SHA-256 — never the builtin ``hash``, whose per-process
        randomization would break cross-process replays.
        """
        if attempt <= 0:
            raise ValueError("attempt must be positive")
        delay = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter == 0.0 or key is None:
            return delay
        digest = hashlib.sha256(
            f"retry-jitter:{self.jitter_seed}:{key}:{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return delay * (1.0 - self.jitter * unit)


@dataclass
class JobRecord:
    """One queued job: its ad, its (hidden) profile, and its lifecycle."""

    job_id: str
    ad: ClassAd
    profile: JobProfile
    status: str = IDLE
    seq: int = 0
    result: Optional[JobRunResult] = None
    completion: Optional[Event] = None
    matched_node: Optional[str] = None
    matched_device: Optional[int] = None
    #: Failed runs so far (infrastructure failures only).
    attempts: int = 0
    #: Result of every failed run, in order.
    failures: list[JobRunResult] = field(default_factory=list)
    #: The submit-time Requirements expression, restored on requeue so a
    #: retried job sheds any pin/park the previous attempt carried.
    base_requirements: Optional[Expr] = None
    #: FIFO examination key, fixed at submission: (submit_time, seq).
    #: Cached so queue listings sort without re-deriving tuples per call.
    fifo_key: tuple = (0.0, 0)
    #: The current match/claim token under the message fabric. Stale
    #: messages (from a match the schedd has since abandoned) carry an
    #: older token and are rejected by the claim manager.
    claim_token: Optional[int] = None
    #: When the current match notification arrived (MATCHED state only).
    #: Recovery restores the match watchdog against the original deadline.
    matched_at: Optional[float] = None
    #: When a BACKOFF job is due back in the idle queue. Recovery uses it
    #: to resume the remaining backoff instead of restarting it.
    requeue_at: Optional[float] = None

    @property
    def is_pending(self) -> bool:
        return self.status == IDLE


class Schedd:
    """Job queue and submission endpoint."""

    def __init__(
        self, env: Environment, retry_policy: Optional[RetryPolicy] = None
    ) -> None:
        self.env = env
        self.retry_policy = retry_policy or RetryPolicy()
        self._records: dict[str, JobRecord] = {}
        self._seq = 0
        #: Callbacks invoked with the JobRecord whenever a job completes.
        self.completion_listeners: list[Callable[[JobRecord], None]] = []
        #: Callbacks invoked with the JobRecord right after submission —
        #: the hook an external scheduler uses to park new arrivals before
        #: the vanilla negotiator can dispatch them.
        self.submit_listeners: list[Callable[[JobRecord], None]] = []
        #: Callbacks invoked with the JobRecord when a job starts running.
        self.start_listeners: list[Callable[[JobRecord], None]] = []
        #: Callbacks invoked with ``(record, result, requeued)`` when a
        #: run dies to an infrastructure failure.
        self.failure_listeners: list[
            Callable[[JobRecord, JobRunResult, bool], None]
        ] = []
        #: Callbacks invoked with the JobRecord when a failed job
        #: re-enters the idle queue after its backoff.
        self.requeue_listeners: list[Callable[[JobRecord], None]] = []
        #: Callbacks invoked (no arguments) after a crash–recovery replay
        #: has rebuilt the queue — external schedulers resync their view
        #: of the fresh records here.
        self.recovery_listeners: list[Callable[[], None]] = []
        #: Write-ahead job-queue log (:class:`repro.condor.recovery
        #: .JobQueueLog`); ``None`` (the default) disables journaling and
        #: keeps every code path byte-identical to a WAL-free schedd.
        self.wal = None
        #: True while the daemon is crashed: timers and listeners that
        #: fire during the outage must not touch the queue.
        self.down = False
        #: Completed crash–recovery cycles.
        self.recoveries = 0
        #: Times any job re-entered the queue after a failure.
        self.requeues = 0
        #: Jobs that exhausted their retries (or were unretryable).
        self.terminal_failures = 0
        #: Event that triggers once every submitted job has left the queue.
        self._all_done: Optional[Event] = None
        # Incremental count of jobs in a non-terminal state. Previously
        # every completion re-scanned the whole record table (O(jobs) per
        # completion, O(jobs^2) per run); transitions keep it exact.
        self._unfinished = 0
        # Incremental idle count, kept in lockstep with status changes so
        # the queue-depth gauge never pays a full-queue scan.
        self._idle = 0
        # Records in FIFO order. ``fifo_key`` is fixed at submission, so
        # the list only needs re-sorting when a submission arrives out of
        # key order (a backdated submit_time); the per-cycle ``pending()``
        # walk then filters without sorting O(jobs) records every cycle.
        self._fifo: list[JobRecord] = []
        self._fifo_dirty = False

    # -- submission -------------------------------------------------------

    def submit(
        self,
        profile: JobProfile,
        sharing: bool = True,
        memory_aware: bool = True,
    ) -> JobRecord:
        """Queue a job, building its submit ad from the profile."""
        if profile.job_id in self._records:
            raise ValueError(f"duplicate job id {profile.job_id!r}")
        self._seq += 1
        record = JobRecord(
            job_id=profile.job_id,
            ad=job_ad(profile, sharing=sharing, memory_aware=memory_aware),
            profile=profile,
            seq=self._seq,
            completion=self.env.event(),
        )
        record.base_requirements = record.ad.get_expr("Requirements")
        record.fifo_key = (profile.submit_time, record.seq)
        self._records[profile.job_id] = record
        if self._fifo and record.fifo_key < self._fifo[-1].fifo_key:
            self._fifo_dirty = True
        self._fifo.append(record)
        self._unfinished += 1
        self._idle += 1
        if self.wal is not None:
            self.wal.log_submit(record, sharing, memory_aware)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tid = job_tid(record)
            tracer.set_thread_name(tid, f"job {record.job_id}")
            root = tracer.begin_keyed(
                ("job", record.job_id),
                "job",
                "schedd",
                self.env.now,
                tid=tid,
                job=record.job_id,
                declared_mb=profile.declared_memory_mb,
                declared_threads=profile.declared_threads,
            )
            tracer.begin_keyed(
                ("queued", record.job_id),
                "queued",
                "schedd",
                self.env.now,
                tid=tid,
                parent=root,
            )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("schedd.jobs_submitted").inc()
            registry.gauge("schedd.queue_depth").record(self.env.now, self._idle)
        auditor = _audit.ACTIVE
        if auditor is not None:
            auditor.job_submitted(record.job_id)
        for listener in list(self.submit_listeners):
            listener(record)
        return record

    def submit_many(
        self,
        profiles: list[JobProfile],
        sharing: bool = True,
        memory_aware: bool = True,
    ) -> None:
        for profile in profiles:
            self.submit(profile, sharing=sharing, memory_aware=memory_aware)

    # -- queue inspection ---------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        return self._records[job_id]

    def _fifo_records(self) -> list[JobRecord]:
        if self._fifo_dirty:
            self._fifo.sort(key=_FIFO_KEY)
            self._fifo_dirty = False
        return self._fifo

    def all_records(self) -> list[JobRecord]:
        """Every job ever submitted, in submission order."""
        return list(self._fifo_records())

    def pending(self) -> list[JobRecord]:
        """Idle jobs in FIFO order (the negotiator's examination order)."""
        return [r for r in self._fifo_records() if r.status == IDLE]

    def running(self) -> list[JobRecord]:
        return [r for r in self._records.values() if r.status == RUNNING]

    def completed(self) -> list[JobRecord]:
        return [r for r in self._records.values() if r.status == COMPLETED]

    def failed(self) -> list[JobRecord]:
        """Jobs that terminally failed (retries exhausted)."""
        return [r for r in self._records.values() if r.status == FAILED]

    @property
    def total_jobs(self) -> int:
        return len(self._records)

    @property
    def unfinished_jobs(self) -> int:
        return self._unfinished

    @property
    def idle_jobs(self) -> int:
        """Jobs currently idle (the size of :meth:`pending`'s result).

        Maintained incrementally so an idle-pool negotiation cycle can
        skip the O(queue) FIFO walk entirely.
        """
        return self._idle

    # -- qedit -------------------------------------------------------------

    def qedit(self, job_id: str, attr: str, expression: str) -> None:
        """Rewrite one attribute of a *pending* job (``condor_qedit``).

        ``set_expr`` *replaces* the stored expression tree, which is
        what keeps the ClassAd closure compiler honest: compiled
        closures and negotiator routing plans are memoized per tree
        (:mod:`repro.condor.compile`), so swapping in a new tree is
        itself the cache invalidation — the old closure simply becomes
        unreachable. The same holds for requeue's ``base_requirements``
        restore.
        """
        record = self._records[job_id]
        if record.status != IDLE:
            raise ValueError(f"cannot qedit job {job_id!r} in state {record.status}")
        record.ad.set_expr(attr, expression)
        if self.wal is not None:
            self.wal.log_qedit(job_id, attr, expression)

    def qedit_batch(self, edits: list[tuple[str, str, str]]) -> None:
        """Apply many edits at once (the paper batches for overhead)."""
        for job_id, attr, expression in edits:
            self.qedit(job_id, attr, expression)

    # -- lifecycle transitions ----------------------------------------------

    def mark_matched(self, job_id: str, token: int) -> None:
        """IDLE → MATCHED: a match notification arrived over the fabric.

        The job leaves the pending queue (it is spoken for) but is not
        running yet; the claim manager reverts it via :meth:`unmatch` if
        the claim never activates.
        """
        record = self._records[job_id]
        if record.status != IDLE:
            raise ValueError(f"job {job_id!r} is {record.status}, not idle")
        record.status = MATCHED
        record.claim_token = token
        record.matched_at = self.env.now
        record.ad["JobStatus"] = MATCHED
        self._idle -= 1
        if self.wal is not None:
            self.wal.log_match(job_id, token)
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.gauge("schedd.queue_depth").record(self.env.now, self._idle)

    def unmatch(self, job_id: str) -> None:
        """MATCHED → IDLE: the claim never activated; re-offer the job."""
        record = self._records[job_id]
        if record.status != MATCHED:
            raise ValueError(f"job {job_id!r} is {record.status}, not matched")
        record.status = IDLE
        record.claim_token = None
        record.matched_at = None
        record.ad["JobStatus"] = IDLE
        self._idle += 1
        if self.wal is not None:
            self.wal.log_unmatch(job_id)
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.gauge("schedd.queue_depth").record(self.env.now, self._idle)

    def mark_running(self, job_id: str, node: str, device: Optional[int]) -> None:
        record = self._records[job_id]
        if record.status not in (IDLE, MATCHED):
            raise ValueError(f"job {job_id!r} is {record.status}, not idle")
        if record.status == MATCHED:
            # Fabric mode: the job already left the idle count at
            # mark_matched; don't decrement twice below.
            self._idle += 1
        record.status = RUNNING
        record.matched_node = node
        record.matched_device = device
        record.matched_at = None
        record.ad["JobStatus"] = RUNNING
        self._idle -= 1
        if self.wal is not None:
            self.wal.log_run(job_id, node, device)
        tracer = _trace.ACTIVE
        if tracer is not None:
            span = tracer.end_keyed(
                ("queued", job_id), self.env.now, node=node, device=device
            )
            registry = _metrics.ACTIVE
            if registry is not None and span is not None:
                registry.histogram("job.queue_wait_s").observe(
                    span.end - span.start
                )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.gauge("schedd.queue_depth").record(self.env.now, self._idle)
        for listener in list(self.start_listeners):
            listener(record)

    def mark_completed(self, job_id: str, result: JobRunResult) -> None:
        record = self._records[job_id]
        if record.status != RUNNING:
            raise ValueError(f"job {job_id!r} is {record.status}, not running")
        record.status = COMPLETED
        record.result = result
        record.ad["JobStatus"] = COMPLETED
        record.claim_token = None
        self._unfinished -= 1
        if self.wal is not None:
            self.wal.log_complete(job_id, result)
        auditor = _audit.ACTIVE
        if auditor is not None:
            auditor.job_terminal(job_id, result.status, self.env.now)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "completed",
                "schedd",
                self.env.now,
                tid=job_tid(record),
                status=result.status,
            )
            tracer.end_keyed(
                ("job", job_id),
                self.env.now,
                status=result.status,
                offloads=result.offloads_run,
                attempts=record.attempts,
            )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("schedd.jobs_completed").inc()
            if result.status != "completed":
                registry.counter("schedd.jobs_killed").inc()
            if record.attempts > 0:
                registry.counter("schedd.jobs_retried_completed").inc()
        assert record.completion is not None
        record.completion.succeed(result)
        for listener in list(self.completion_listeners):
            listener(record)
        self._check_all_done()

    def mark_failed(self, job_id: str, result: JobRunResult) -> None:
        """Report an infrastructure-failed run; requeue or fail the job.

        ``result.status`` must be an infrastructure status (device lost,
        node lost, transient crash). The retry policy decides between a
        backoff + requeue and a terminal failure. Kill-by-container
        outcomes ("memory-limit", "oom-killed") are *completions* — the
        job itself misbehaved — and must go through
        :meth:`mark_completed` as before.
        """
        record = self._records[job_id]
        if record.status != RUNNING:
            raise ValueError(f"job {job_id!r} is {record.status}, not running")
        record.attempts += 1
        record.failures.append(result)
        record.matched_node = None
        record.matched_device = None
        record.claim_token = None
        retry = self.retry_policy.should_retry(result.status, record.attempts)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "run-failed",
                "schedd",
                self.env.now,
                tid=job_tid(record),
                status=result.status,
                attempt=record.attempts,
                retry=retry,
            )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("schedd.runs_failed").inc()
        if retry:
            record.status = BACKOFF
            record.ad["JobStatus"] = BACKOFF
            delay = self.retry_policy.backoff(record.attempts, key=job_id)
            record.requeue_at = self.env.now + delay
            if self.wal is not None:
                self.wal.log_fail(job_id, result, True, record.requeue_at)
            if tracer is not None:
                tracer.begin_keyed(
                    ("backoff", job_id),
                    "backoff",
                    "schedd",
                    self.env.now,
                    tid=job_tid(record),
                    parent=tracer.get(("job", job_id)),
                    attempt=record.attempts,
                )
            self._requeue_after(record, delay)
        else:
            record.status = FAILED
            record.result = result
            record.ad["JobStatus"] = FAILED
            self._unfinished -= 1
            self.terminal_failures += 1
            if self.wal is not None:
                self.wal.log_fail(job_id, result, False, None)
            auditor = _audit.ACTIVE
            if auditor is not None:
                auditor.job_terminal(job_id, result.status, self.env.now)
            if tracer is not None:
                tracer.end_keyed(
                    ("job", job_id),
                    self.env.now,
                    status=result.status,
                    attempts=record.attempts,
                )
            if registry is not None:
                registry.counter("schedd.jobs_failed_terminal").inc()
            assert record.completion is not None
            # succeed (not fail): the result object carries the failure
            # status, and an un-waited failed event would crash the
            # simulation as an unhandled exception.
            record.completion.succeed(result)
        for listener in list(self.failure_listeners):
            listener(record, result, retry)
        if not retry:
            self._check_all_done()

    def _requeue_after(self, record: JobRecord, delay: float) -> None:
        """Requeue ``record`` after ``delay``, from a timer armed in an
        URGENT start slot (see :meth:`Environment.call`)."""
        env, wait = self.env, max(0.0, delay)
        env.call(lambda _e: env.call(lambda _e: self._requeue(record), wait))

    def _requeue(self, record: JobRecord) -> None:
        if self.down:
            # The schedd is crashed: a real requeue timer dies with the
            # daemon. Recovery replays the BACKOFF record and resumes the
            # remaining delay from the journal's requeue_at.
            return
        if self._records.get(record.job_id) is not record:
            # Stale closure: a crash–recovery replay replaced this record
            # object wholesale and rescheduled its own requeue timer.
            return
        record.status = IDLE
        record.requeue_at = None
        record.ad["JobStatus"] = IDLE
        if record.base_requirements is not None:
            # Shed the previous attempt's pin/park so the job can match
            # anywhere again; an attached knapsack scheduler re-parks it
            # through its requeue listener.
            record.ad["Requirements"] = record.base_requirements
        self.requeues += 1
        self._idle += 1
        if self.wal is not None:
            self.wal.log_requeue(record.job_id)
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.end_keyed(("backoff", record.job_id), self.env.now)
            tracer.begin_keyed(
                ("queued", record.job_id),
                "queued",
                "schedd",
                self.env.now,
                tid=job_tid(record),
                parent=tracer.get(("job", record.job_id)),
                attempt=record.attempts,
            )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("schedd.requeues").inc()
            registry.gauge("schedd.queue_depth").record(self.env.now, self._idle)
        for listener in list(self.requeue_listeners):
            listener(record)

    def _check_all_done(self) -> None:
        if self._all_done is not None and self.unfinished_jobs == 0:
            if not self._all_done.triggered:
                self._all_done.succeed(self.env.now)

    def all_done(self) -> Event:
        """Event triggering when the queue fully drains (for makespan)."""
        if self._all_done is None:
            self._all_done = self.env.event()
            if self._records and self.unfinished_jobs == 0:
                self._all_done.succeed(self.env.now)
        return self._all_done

    def makespan(self) -> float:
        """Completion time of the last job (the paper's makespan)."""
        ends = [r.result.end for r in self._records.values() if r.result]
        return max(ends, default=0.0)

    def __repr__(self) -> str:
        return (
            f"<Schedd jobs={self.total_jobs} idle={len(self.pending())} "
            f"running={len(self.running())} completed={len(self.completed())}>"
        )
