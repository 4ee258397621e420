"""The negotiator: periodic FIFO matchmaking between jobs and machines.

Every ``cycle_interval`` simulated seconds the negotiator pulls fresh
machine snapshots from the collector, walks the pending queue in FIFO
order (§II-D), and matches each job against the nodes using symmetric
ClassAd matchmaking. Resources are deducted from the cycle's snapshots as
matches are made, so one cycle can fill many slots consistently. Jobs and
machines that agree on every attribute the Requirements read share one
evaluation per cycle (:class:`_Autoclusters`), and a random-placement
job draws from its autocluster's candidate index instead of walking the
pool (:class:`_CandidateIndex`).

Placement *within* the matched set is a policy object — this is where the
paper's three configurations differ at the cluster level:

* :class:`ExclusivePlacement` (MC): a job takes a whole free coprocessor.
* :class:`RandomPlacement` (MCC): "jobs are selected randomly at the
  cluster level: they are packed arbitrarily" — any node with a free host
  slot, chosen uniformly at random; COSMIC makes it safe at the node.
* :class:`PinnedPlacement` (MCCK): jobs arrive pre-pinned by the external
  knapsack scheduler (via qedit); the negotiator merely honours the pins.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from math import copysign
from time import perf_counter
from typing import Optional

from ..net.fabric import COLLECTOR as NET_COLLECTOR
from ..net.fabric import NEGOTIATOR as NET_NEGOTIATOR
from ..net.fabric import SCHEDD as NET_SCHEDD
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment
from ..sim import profile as _profile
from .ads import _MACHINE_REQUIREMENTS, MachineSnapshot, copy_snapshot, machine_ad
from .classad import ClassAd, Expr, Literal, symmetric_match
from .collector import AMBIGUOUS_NAME, Collector, build_name_index
from .compile import requirements_plan
from .schedd import JobRecord, Schedd, job_tid


@dataclass
class CycleStats:
    """Accounting for one negotiation cycle.

    ``parked + prefiltered + examined`` partitions the pending jobs the
    cycle looked at before resources ran out: *parked* jobs have
    statically unmatchable Requirements (the external scheduler's
    ``false`` rewrite, or none at all), *prefiltered* jobs failed the
    policy's cheap necessary condition, and *examined* jobs went through
    full matchmaking — of which ``matched`` succeeded.
    """

    parked: int = 0
    prefiltered: int = 0
    examined: int = 0
    matched: int = 0
    #: Fabric mode only: idle jobs skipped because a match notification
    #: for them is still in flight (extends the partition above).
    in_flight: int = 0
    #: Machines probed with symmetric ClassAd matchmaking.
    evals: int = 0
    #: Probes answered from the cycle's autoclusters instead of running
    #: ``symmetric_match`` (so ``evals - autocluster_hits`` evaluations ran).
    autocluster_hits: int = 0
    #: Examined jobs routed through the collector's name index (O(1)).
    pin_routed: int = 0
    #: Examined jobs that scanned every machine snapshot.
    full_scans: int = 0
    #: Full scans served by their autocluster's candidate index, without
    #: walking the machines (still counted in ``evals``).
    indexed_draws: int = 0
    #: Deducted positions re-examined by candidate indexes before a draw.
    index_settles: int = 0


#: Type tag for ``-0.0``: equal to ``0.0`` as a dict key, yet ``strcat``
#: renders the two differently.
_NEGATIVE_ZERO = object()


def _signature(ad: ClassAd, names: tuple[str, ...]) -> Optional[tuple]:
    """``ad``'s type-tagged values of ``names`` (flat); None on any Expr.

    Tags keep ``1``, ``1.0`` and ``true`` apart: one dict key, yet a bool
    never compares with a number and ``strcat`` renders ``1`` and ``1.0``
    differently. An expression-valued attribute can read names outside
    the set, so it opts the whole ad out of the memo.
    """
    raw = ad.raw
    signature = []
    for name in names:
        value = raw(name)
        if isinstance(value, Expr):
            return None
        kind = type(value)
        if kind is float and value == 0.0 and copysign(1.0, value) < 0:
            kind = _NEGATIVE_ZERO
        signature.append(kind)
        signature.append(value)
    return tuple(signature)


def _machine_key(ad: ClassAd, names: tuple[str, ...]) -> Optional[tuple]:
    """Autocluster key of a machine ad, or None to bypass the memo."""
    if ad._attrs.get("requirements") is not _MACHINE_REQUIREMENTS:
        return None
    return _signature(ad, names)


class _Autoclusters:
    """One negotiation cycle's memo of symmetric-match results.

    HTCondor's autoclusters: jobs that agree on their Requirements AST
    and on every attribute it or the machine Requirements reads (the
    plan's ``significant`` names) get the same answer from machines that
    agree on those names too. ``answers`` maps job key → machine key →
    bool; ``machine_keys`` maps names → ``id(snapshot)`` → key (None:
    bypass), built lazily and dropped by :meth:`forget` when a deduction
    changes the snapshot — the only mutation it sees inside a cycle.
    Snapshot ids are stable because the cycle view holds every snapshot.
    ``shapes`` interns machine keys, so a thousand identical machines
    hold one key tuple.

    ``indexes`` maps (job key, declared memory) → :class:`_CandidateIndex`
    for policies that draw from their usable candidates. A deduction
    appends the snapshot's position in the cycle's candidate list to
    ``deducted``; each index settles the distinct positions past its own
    cursor the next time its autocluster draws.
    """

    __slots__ = (
        "answers", "machine_keys", "shapes", "indexes", "deducted",
        "ordinals", "positions",
    )

    def __init__(self) -> None:
        self.answers: dict[tuple, dict[tuple, bool]] = {}
        self.machine_keys: dict[tuple[str, ...], dict[int, Optional[tuple]]] = {}
        self.shapes: dict[tuple, tuple] = {}
        self.indexes: dict[tuple, _CandidateIndex] = {}
        self.deducted: list[int] = []
        #: Positions ``0 .. n-1`` in the cycle's candidate list and
        #: ``id(snapshot)`` → position, built by the first scan; every
        #: index holds these int objects rather than copies.
        self.ordinals: Optional[list[int]] = None
        self.positions: Optional[dict[int, int]] = None

    def key_of(self, snapshot, view, names, machine_keys) -> Optional[tuple]:
        """Compute, intern and remember ``snapshot``'s machine key."""
        key = _machine_key(view.ad(snapshot), names)
        if key is not None:
            # Share one tuple per machine shape.
            key = self.shapes.setdefault(key, key)
        machine_keys[id(snapshot)] = key
        return key

    def scan(self, job, answers, names, view, snapshots, usable, declared):
        """Walk every snapshot: the matching positions ``usable`` keeps.

        Returns ``(positions, hits, bypassed)``: ``hits`` probes came
        from the memo, and ``bypassed`` says a machine skipped it (its
        answer holds for this job only).
        """
        machine_keys = self.machine_keys.setdefault(names, {})
        ordinals = self.ordinals
        if ordinals is None:
            ordinals = self.ordinals = list(range(len(snapshots)))
            self.positions = dict(zip(map(id, snapshots), ordinals))
        positions = []
        hits = 0
        bypassed = False
        for pos, snapshot in zip(ordinals, snapshots):
            key = machine_keys.get(id(snapshot), _UNKEYED)
            if key is _UNKEYED:
                key = self.key_of(snapshot, view, names, machine_keys)
            if key is None:
                bypassed = True
                ok = symmetric_match(job, view.ad(snapshot))
            else:
                ok = answers.get(key)
                if ok is None:
                    ok = answers[key] = symmetric_match(job, view.ad(snapshot))
                else:
                    hits += 1
            if ok and (usable is None or usable(snapshot, declared)):
                positions.append(pos)
        return positions, hits, bypassed

    def candidate_index(self, job, job_key, names, view, snapshots, usable,
                        declared, stats) -> "_CandidateIndex":
        """The usable matching snapshots, from the autocluster's index.

        The first job of an autocluster builds the index with the full
        scan; later ones settle the positions deducted since and never
        touch the other machines. A scan that met a bypassing machine
        serves this job only.
        """
        answers = self.answers[job_key]
        index_key = (job_key, declared)
        index = self.indexes.get(index_key)
        if index is None:
            positions, hits, bypassed = self.scan(
                job, answers, names, view, snapshots, usable, declared
            )
            stats.autocluster_hits += hits
            index = _CandidateIndex(positions, snapshots, len(self.deducted))
            if not bypassed:
                self.indexes[index_key] = index
            return index
        ran = self.settle(
            index, job, answers, names, view, usable, declared, stats
        )
        stats.autocluster_hits += len(snapshots) - ran
        stats.indexed_draws += 1
        return index

    def settle(self, index, job, answers, names, view, usable, declared,
               stats) -> int:
        """Bring ``index`` up to date; returns the evaluations that ran.

        Only positions deducted since the index last drew can have
        changed: each takes its machine's current key (a bypassing
        machine never reaches a live index) and moves in or out of the
        sorted list by bisection, in any order.
        """
        deducted = self.deducted
        if index.settled == len(deducted):
            return 0
        dirty = set(deducted[index.settled:])
        index.settled = len(deducted)
        stats.index_settles += len(dirty)
        machine_keys = self.machine_keys[names]
        positions = index.positions
        snapshots = index.snapshots
        ran = 0
        for pos in dirty:
            snapshot = snapshots[pos]
            key = machine_keys.get(id(snapshot), _UNKEYED)
            if key is _UNKEYED:
                key = self.key_of(snapshot, view, names, machine_keys)
            ok = answers.get(key)
            if ok is None:
                ok = answers[key] = symmetric_match(job, view.ad(snapshot))
                ran += 1
            i = bisect_left(positions, pos)
            present = i < len(positions) and positions[i] == pos
            if ok and usable(snapshot, declared):
                if not present:
                    positions.insert(i, pos)
            elif present:
                del positions[i]
        return ran

    def forget(self, snapshot: MachineSnapshot) -> None:
        sid = id(snapshot)
        for keys in self.machine_keys.values():
            keys.pop(sid, None)
        if self.indexes:
            # A live index means a scan ran and built ``positions``.
            pos = self.positions.get(sid)
            if pos is not None:
                self.deducted.append(pos)


class _CandidateIndex:
    """One autocluster's usable candidates: sorted snapshot positions.

    Read as a sequence of snapshots (``len`` and indexing), so a policy
    draws from it exactly as from the list a scan would have built.
    ``settled`` is how far into the cycle's deduction log it is current.
    """

    __slots__ = ("positions", "snapshots", "settled")

    def __init__(self, positions: list[int], snapshots, settled: int) -> None:
        self.positions = positions
        self.snapshots = snapshots
        self.settled = settled

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, i: int) -> MachineSnapshot:
        return self.snapshots[self.positions[i]]


#: ``machine_keys`` marker for a snapshot not keyed yet this cycle.
_UNKEYED = object()


class SnapshotCycleView:
    """Cycle view over an eagerly-built snapshot list.

    Used in fabric mode (the negotiator's view is whatever snapshot
    response last made it through the network) and whenever the
    collector cannot serve its delta-maintained live view (heartbeat
    staleness or store mode need the historical full walk). Preserves
    the historical behaviour exactly: candidates are *all* live
    snapshots and machine ads are views over them.
    """

    __slots__ = ("_snapshots", "_index", "_ads", "has_index")

    def __init__(self, snapshots, index) -> None:
        self._snapshots = snapshots
        self._index = index
        self._ads: dict[int, object] = {}
        self.has_index = index is not None

    def candidates(self):
        return self._snapshots

    def lookup(self, key: str):
        return self._index.get(key)

    def ad(self, snapshot):
        view = self._ads.get(id(snapshot))
        if view is None:
            view = machine_ad(snapshot)
            self._ads[id(snapshot)] = view
        return view


class PlacementPolicy:
    """Chooses a (node, device, exclusive) among the matched snapshots."""

    #: Whether jobs submitted under this policy may share coprocessors.
    sharing = True
    #: Whether submit ads require advertised free device memory.
    memory_aware = True
    #: Whether the policy chooses with ``usable(snapshot, declared)`` and
    #: ``draw(viable, declared)``, so the negotiator may serve full scans
    #: from a per-cycle candidate index (see :class:`RandomPlacement`).
    indexed = False

    def exhausted(self, snapshots: list[MachineSnapshot]) -> bool:
        """True when no pending job could possibly be placed this cycle."""
        return all(s.free_slots <= 0 for s in snapshots)

    def place(
        self,
        record: JobRecord,
        candidates: list[MachineSnapshot],
    ) -> Optional[tuple[MachineSnapshot, Optional[int], bool]]:
        raise NotImplementedError

    def prefilter(self, record: JobRecord, snapshots: list[MachineSnapshot]) -> bool:
        """Cheap necessary condition before full ClassAd matchmaking.

        Skips jobs that cannot possibly match this cycle without walking
        every machine (the per-cycle autoclusters then cut the ClassAd
        evaluations of the jobs that do get scanned).
        """
        return True

    def deduct(
        self,
        snapshot: MachineSnapshot,
        device_index: Optional[int],
        exclusive: bool,
        declared_mb: float,
    ) -> None:
        """Update the cycle snapshot after a successful match."""
        snapshot.free_slots -= 1
        if device_index is None:
            return
        for device in snapshot.devices:
            if device.index == device_index:
                if exclusive:
                    device.claimed_exclusive = True
                else:
                    device.resident_jobs += 1
                    device.free_declared_mb = max(
                        0.0, device.free_declared_mb - declared_mb
                    )
                return


class ExclusivePlacement(PlacementPolicy):
    """MC baseline: dedicate one whole coprocessor per job (first fit)."""

    sharing = False

    def exhausted(self, snapshots: list[MachineSnapshot]) -> bool:
        return not any(
            s.free_slots > 0 and s.first_free_device() is not None
            for s in snapshots
        )

    def place(self, record, candidates):
        for snapshot in candidates:
            if snapshot.free_slots <= 0:
                continue
            device = snapshot.first_free_device()
            if device is not None:
                return snapshot, device.index, True
        return None


class RandomPlacement(PlacementPolicy):
    """MCC: uniform-random node among those that can hold the job.

    "Jobs are selected randomly at the cluster level: they are packed
    arbitrarily to Xeon Phi coprocessors" (§V) — but Condor still tracks
    the advertised free device memory, so a candidate needs a device with
    enough unreserved declared memory and a free host slot.

    Whether a matched snapshot can take the job depends only on the
    snapshot and the declared memory (:meth:`usable`), and the draw only
    on the usable list (:meth:`draw`), so the negotiator may hand it a
    per-cycle candidate index instead of the full candidate list.
    """

    indexed = True

    def __init__(self, rng: random.Random, memory_aware: bool = False) -> None:
        self.rng = rng
        self.memory_aware = memory_aware

    def usable(self, snapshot: MachineSnapshot, declared: float) -> bool:
        """A free host slot and at least one device the job may share."""
        if snapshot.free_slots <= 0:
            return False
        memory_aware = self.memory_aware
        for d in snapshot.devices:
            if (
                not d.claimed_exclusive
                and not d.failed
                and (not memory_aware or d.free_declared_mb >= declared)
            ):
                return True
        return False

    def _fitting(self, snapshot, declared):
        """Devices of ``snapshot`` the job may share (:meth:`usable`'s
        card test, kept inline there: it runs once per scanned machine)."""
        memory_aware = self.memory_aware
        return [
            d
            for d in snapshot.devices
            if not d.claimed_exclusive
            and not d.failed
            and (not memory_aware or d.free_declared_mb >= declared)
        ]

    def draw(self, viable, declared: float):
        """Uniform node from the ``viable`` sequence, then uniform device.

        ``viable`` only needs ``len`` and indexing: ``rng.choice`` makes
        one ``_randbelow(len)`` call, so a list and an index of the same
        snapshots in the same order consume the same RNG draws.
        """
        if not viable:
            return None
        snapshot = self.rng.choice(viable)
        device = self.rng.choice(self._fitting(snapshot, declared))
        return snapshot, device.index, False

    def place(self, record, candidates):
        declared = record.profile.declared_memory_mb
        usable = self.usable
        return self.draw([s for s in candidates if usable(s, declared)], declared)

    def prefilter(self, record, snapshots):
        declared = record.profile.declared_memory_mb
        usable = self.usable
        for snapshot in snapshots:
            if usable(snapshot, declared):
                return True
        return False


class BestFitPlacement(PlacementPolicy):
    """A stronger memory-aware heuristic than random: best fit.

    Not in the paper — used as an extra ablation baseline between MCC's
    random placement and MCCK's knapsack: place each job on the device
    whose free declared memory leaves the *least* slack, tightening the
    packing without any look-ahead over the pending set.
    """

    def place(self, record, candidates):
        declared = record.profile.declared_memory_mb
        best = None
        for snapshot in candidates:
            if snapshot.free_slots <= 0:
                continue
            for device in snapshot.devices:
                if device.claimed_exclusive or device.failed:
                    continue
                slack = device.free_declared_mb - declared
                if slack < 0:
                    continue
                if best is None or slack < best[0]:
                    best = (slack, snapshot, device)
        if best is None:
            return None
        _slack, snapshot, device = best
        return snapshot, device.index, False

    def prefilter(self, record, snapshots):
        declared = record.profile.declared_memory_mb
        return any(
            s.free_slots > 0
            and any(
                not d.claimed_exclusive
                and not d.failed
                and d.free_declared_mb >= declared
                for d in s.devices
            )
            for s in snapshots
        )


class PinnedPlacement(PlacementPolicy):
    """MCCK: honour the external scheduler's node/device pins.

    A pinned job's Requirements only match its assigned node, so the
    candidate list is that node (or empty). The device comes from the
    ``AssignedPhiDevice`` attribute written alongside the pin.
    """

    def place(self, record, candidates):
        device_attr = record.ad.evaluate("AssignedPhiDevice")
        device_index = int(device_attr) if isinstance(device_attr, (int, float)) else 0
        for snapshot in candidates:
            if snapshot.free_slots <= 0:
                continue
            device = next(
                (d for d in snapshot.devices if d.index == device_index), None
            )
            if device is not None and device.failed:
                # The pinned card is down; the external scheduler will
                # re-pack the job, so don't dispatch it into a failure.
                continue
            return snapshot, device_index, False
        return None


class Negotiator:
    """Runs negotiation cycles as a simulation process."""

    def __init__(
        self,
        env: Environment,
        schedd: Schedd,
        collector: Collector,
        policy: PlacementPolicy,
        cycle_interval: float = 15.0,
        reschedule_on_completion: bool = False,
        reschedule_delay: float = 1.0,
        use_pin_index: bool = True,
        fabric=None,
    ) -> None:
        """``reschedule_on_completion`` models ``condor_reschedule``: a
        job completion prompts an extra negotiation cycle after
        ``reschedule_delay`` seconds instead of waiting for the periodic
        timer — the knob that shrinks the integration latency the paper
        blames for MCCK's overhead on unfavourable distributions.

        With a ``fabric`` (:class:`repro.net.fabric.MessageFabric`), the
        negotiator stops touching the collector and startds directly: it
        negotiates over the last snapshot-response it received, sends
        match notifications to the schedd, and requests a fresh snapshot
        each cycle — its view of the pool is as stale as the network
        makes it."""
        if cycle_interval <= 0:
            raise ValueError("cycle_interval must be positive")
        if reschedule_delay < 0:
            raise ValueError("reschedule_delay must be non-negative")
        self.env = env
        self.schedd = schedd
        self.collector = collector
        self.policy = policy
        self.cycle_interval = cycle_interval
        self.reschedule_on_completion = reschedule_on_completion
        self.reschedule_delay = reschedule_delay
        self._fabric = fabric
        #: Fabric mode: jobs whose match notification is not yet
        #: acknowledged (job_id -> token); skipped when re-offering.
        self._inflight: dict[str, int] = {}
        #: Fabric mode: snapshots from the latest snapshot-response.
        self._machine_view: list[MachineSnapshot] = []
        self._next_token = 1
        self._resched_msg_pending = False
        #: Route jobs whose Requirements pin ``TARGET.Name`` through the
        #: collector's name index instead of scanning every machine.
        #: Match decisions are identical either way (the pin literal can
        #: match at most the indexed machine); the flag exists so the
        #: benchmark can measure the full-scan baseline.
        self.use_pin_index = use_pin_index
        self.cycles_run = 0
        self.matches_made = 0
        #: Accounting for the most recent cycle (None before the first).
        self.last_cycle: Optional[CycleStats] = None
        self._proc = None
        self._reschedule_pending = False
        #: True while the daemon is crashed: cycles are skipped (and not
        #: counted) until the restart.
        self.down = False

    def start(self) -> None:
        """Begin periodic negotiation (call once, before env.run)."""
        if self._proc is not None:
            raise RuntimeError("negotiator already started")
        if self._fabric is not None:
            from .claims import MSG_RESCHEDULE, MSG_SNAPSHOT_RESPONSE

            self._fabric.register(
                NET_NEGOTIATOR, MSG_SNAPSHOT_RESPONSE, self._on_snapshot_response
            )
            if self.reschedule_on_completion:
                self._fabric.register(
                    NET_NEGOTIATOR, MSG_RESCHEDULE, self._on_reschedule_msg
                )
            self._request_snapshots()
        self._proc = self.env.process(self._loop(), name="negotiator")
        if self.reschedule_on_completion:
            self.schedd.completion_listeners.append(self._on_completion)

    def _on_completion(self, _record) -> None:
        if self._fabric is not None:
            # The listener fires at the schedd; condor_reschedule is a
            # message to the negotiator, not a local call.
            if self._resched_msg_pending:
                return
            self._resched_msg_pending = True
            from .claims import MSG_RESCHEDULE

            self._fabric.send(NET_SCHEDD, NET_NEGOTIATOR, MSG_RESCHEDULE, {})
            return
        if self._reschedule_pending:
            return
        self._reschedule_pending = True
        self.env.process(self._reschedule(), name="negotiator-reschedule")

    def _on_reschedule_msg(self, _msg) -> None:
        self._resched_msg_pending = False
        if self._reschedule_pending:
            return
        self._reschedule_pending = True
        self.env.process(self._reschedule(), name="negotiator-reschedule")

    def _on_snapshot_response(self, msg) -> None:
        self._machine_view = msg.payload["snapshots"]

    def _request_snapshots(self) -> None:
        from .claims import MSG_SNAPSHOT_REQUEST

        self._fabric.send(NET_NEGOTIATOR, NET_COLLECTOR, MSG_SNAPSHOT_REQUEST, {})

    def _match_delivered(self, msg) -> None:
        self._inflight.pop(msg.payload["job_id"], None)

    def _reschedule(self):
        if self.reschedule_delay > 0:
            yield self.env.timeout(self.reschedule_delay)
        else:
            yield self.env.timeout(0)
        self._reschedule_pending = False
        self.negotiate_once()

    def _loop(self):
        while True:
            self.negotiate_once()
            yield self.env.timeout(self.cycle_interval)

    def crash(self) -> None:
        """Drop all soft state: the daemon just died.

        The machine view and in-flight bookkeeping are rebuilt from
        scratch after the restart; ``_next_token`` survives — it models
        the claim-id sequence, and reusing a token would alias a dead
        match's claim onto a live one.
        """
        self.down = True
        self._machine_view = []
        self._inflight.clear()
        if self._fabric is not None:
            self._fabric.set_down(NET_NEGOTIATOR)

    def restore(self) -> None:
        """Restart cold: reopen the endpoint and ask for a fresh view.

        The periodic loop never stopped ticking; the first cycle after
        the snapshot response lands rebuilds the indexed view.
        """
        self.down = False
        if self._fabric is not None:
            self._fabric.set_up(NET_NEGOTIATOR)
            self._request_snapshots()

    def negotiate_once(self) -> int:
        """One negotiation cycle; returns the number of matches made."""
        if self.down or self.schedd.down:
            # Crash–recovery: a dead negotiator runs no cycle, and a dead
            # schedd cannot be asked for its queue. Skipped cycles are
            # not counted — the daemon wasn't there to run them.
            return 0
        self.cycles_run += 1
        tracer = _trace.ACTIVE
        registry = _metrics.ACTIVE
        prof = _profile.ACTIVE
        wall_start = perf_counter() if registry is not None else 0.0
        stats = CycleStats()
        if self._fabric is not None:
            # Negotiate over the last snapshot-response that made it
            # through the network (copied: deduction must not corrupt
            # the stored view), and ask for a fresh one for next cycle.
            snapshots = [copy_snapshot(s) for s in self._machine_view]
            index = build_name_index(snapshots) if self.use_pin_index else None
            view = SnapshotCycleView(snapshots, index)
            self._request_snapshots()
        else:
            # Fast path: the collector's delta-maintained live view,
            # lazy per machine — a cycle's cost scales with the machines
            # it actually probes, not the cluster size.
            view = self.collector.live_view(self.use_pin_index)
            if view is None:
                if self.use_pin_index:
                    snapshots, index = self.collector.indexed_snapshots(
                        self.env.now
                    )
                else:
                    snapshots = self.collector.snapshots(self.env.now)
                    index = None
                view = SnapshotCycleView(snapshots, index)
        # Machine ads are live views over the snapshots: a deduction is
        # visible to the next probe without rebuilding anything.
        # Resources only change on deduction, so exhaustion is
        # recomputed after each match rather than per pending job — and
        # computed lazily, so a cycle with nothing pending builds no
        # snapshots at all (the O(1) idle-pool floor).
        exhausted: Optional[bool] = None
        autoclusters = _Autoclusters()
        # The queue walk is the cycle's O(jobs) floor — with 10k+ jobs
        # parked by the external scheduler, per-record work must stay at
        # a couple of dict hits. Local counters (folded into ``stats``
        # below) and bound methods keep attribute traffic off the loop.
        policy = self.policy
        prefilter = policy.prefilter
        inflight = self._inflight
        parked = prefiltered = examined = in_flight = 0
        pending = self.schedd.pending() if self.schedd.idle_jobs else ()
        for record in pending:
            if exhausted is None:
                exhausted = policy.exhausted(view.candidates())
            if exhausted:
                break
            if inflight and record.job_id in inflight:
                # Fabric mode: this job's match notification is still in
                # flight — re-offering it would double-match.
                in_flight += 1
                continue
            req = record.ad._attrs.get("requirements")
            if req is None:
                # No Requirements at all: nothing can ever match.
                parked += 1
                continue
            if type(req) is Literal:
                # Parked by the external scheduler (Requirements
                # rewritten to ``false``): skip matchmaking outright
                # without even a plan lookup. ``parse`` memoizes ASTs,
                # so every parked job shares one Literal node.
                if req.value is not True:
                    parked += 1
                    continue
            plan = requirements_plan(req)
            if plan.never_matches:
                parked += 1
                continue
            if not prefilter(record, view.candidates()):
                prefiltered += 1
                continue
            examined += 1
            placement = self._match(record, view, plan, stats, autoclusters)
            if placement is None:
                continue
            snapshot, device_index, exclusive = placement
            policy.deduct(
                snapshot,
                device_index,
                exclusive,
                record.profile.declared_memory_mb,
            )
            autoclusters.forget(snapshot)
            exhausted = policy.exhausted(view.candidates())
            if self._fabric is None:
                startd = self.collector.startd(snapshot.node)
                if not startd.alive:
                    # The node died inside the staleness window; skip the
                    # match rather than dispatching into a crash.
                    continue
                if tracer is not None:
                    tracer.instant(
                        "matched",
                        "negotiator",
                        self.env.now,
                        tid=job_tid(record),
                        node=snapshot.node,
                        device=device_index,
                        exclusive=exclusive,
                    )
                startd.start_job(record, device_index, exclusive)
            else:
                # Fabric mode: a match is a *notification* to the schedd
                # (which activates the claim); whether the node is still
                # alive is for the claim protocol to discover.
                if tracer is not None:
                    tracer.instant(
                        "matched",
                        "negotiator",
                        self.env.now,
                        tid=job_tid(record),
                        node=snapshot.node,
                        device=device_index,
                        exclusive=exclusive,
                    )
                self._send_match(record, snapshot.node, device_index, exclusive)
            stats.matched += 1
        stats.parked = parked
        stats.prefiltered = prefiltered
        stats.examined = examined
        stats.in_flight = in_flight
        matched = stats.matched
        self.matches_made += matched
        self.last_cycle = stats
        if prof is not None:
            prof.negotiation_cycles += 1
            prof.match_probes += stats.evals
            prof.autocluster_hits += stats.autocluster_hits
            prof.pin_routed += stats.pin_routed
            prof.full_scans += stats.full_scans
            prof.indexed_draws += stats.indexed_draws
            prof.index_settles += stats.index_settles
        if tracer is not None:
            # A cycle occupies zero *simulated* time; the span carries
            # its outcome in args (matches, queue examined).
            tracer.set_thread_name(_trace.NEGOTIATOR_TID, "negotiator")
            tracer.complete(
                "negotiation-cycle",
                "negotiator",
                self.env.now,
                self.env.now,
                tid=_trace.NEGOTIATOR_TID,
                cycle=self.cycles_run,
                matches=matched,
                examined=stats.examined,
            )
        if registry is not None:
            registry.counter("negotiator.cycles").inc()
            registry.counter("negotiator.matches").inc(matched)
            registry.counter("negotiator.parked").inc(stats.parked)
            registry.counter("negotiator.prefiltered").inc(stats.prefiltered)
            registry.counter("negotiator.examined").inc(stats.examined)
            registry.counter("negotiator.evals").inc(stats.evals)
            registry.counter("negotiator.pin_hits").inc(stats.pin_routed)
            registry.counter("negotiator.full_scans").inc(stats.full_scans)
            registry.histogram("negotiator.cycle_matches").observe(matched)
            # The one wall-clock metric: host-side cost of a cycle, as
            # production schedulers report it. Lives only in metrics so
            # trace export stays deterministic.
            registry.histogram("negotiator.cycle_wall_ms").observe(
                (perf_counter() - wall_start) * 1e3
            )
        return matched

    def _send_match(
        self,
        record: JobRecord,
        node: str,
        device_index: Optional[int],
        exclusive: bool,
    ) -> None:
        from .claims import MSG_MATCH

        token = self._next_token
        self._next_token += 1
        self._inflight[record.job_id] = token
        self._fabric.send(
            NET_NEGOTIATOR,
            NET_SCHEDD,
            MSG_MATCH,
            {
                "job_id": record.job_id,
                "node": node,
                "device": device_index,
                "exclusive": exclusive,
                "token": token,
            },
            on_delivered=self._match_delivered,
        )

    def _match(self, record: JobRecord, view, plan, stats, autoclusters):
        if view.has_index and plan.pin_name is not None:
            pinned = view.lookup(plan.pin_name)
            if pinned is not AMBIGUOUS_NAME:
                # The index covers every live machine, so a miss proves
                # no machine advertises the pinned name, and a hit is the
                # only machine that can satisfy ``TARGET.Name == ...`` —
                # one matchmaking probe replaces the full scan.
                stats.pin_routed += 1
                if pinned is None:
                    return None
                stats.evals += 1
                if symmetric_match(record.ad, view.ad(pinned)):
                    return self.policy.place(record, [pinned])
                return None
            # Two live names collide case-insensitively: scan instead.
        snapshots = view.candidates()
        stats.full_scans += 1
        stats.evals += len(snapshots)
        job = record.ad
        names = plan.significant
        signature = _signature(job, names)
        policy = self.policy
        if signature is None:
            candidates = [
                snapshot
                for snapshot in snapshots
                if symmetric_match(job, view.ad(snapshot))
            ]
        else:
            job_key = (job._attrs["requirements"], *signature)
            answers = autoclusters.answers.setdefault(job_key, {})
            if policy.indexed:
                declared = record.profile.declared_memory_mb
                viable = autoclusters.candidate_index(
                    job, job_key, names, view, snapshots, policy.usable,
                    declared, stats,
                )
                return policy.draw(viable, declared)
            positions, hits, _ = autoclusters.scan(
                job, answers, names, view, snapshots, None, None
            )
            stats.autocluster_hits += hits
            candidates = [snapshots[pos] for pos in positions]
        if not candidates:
            return None
        return policy.place(record, candidates)

    def __repr__(self) -> str:
        return (
            f"<Negotiator cycles={self.cycles_run} matches={self.matches_made} "
            f"interval={self.cycle_interval}>"
        )
