"""Unit tests for placement policies, machine/job ads, and negotiation."""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MCC, ClusterConfig, ComputeNode, run
from repro.condor import (
    BestFitPlacement,
    ClassAd,
    Collector,
    DeviceSnapshot,
    ExclusivePlacement,
    MachineSnapshot,
    Negotiator,
    PinnedPlacement,
    RandomPlacement,
    Schedd,
    Startd,
    job_ad,
    machine_ad,
    pin_requirements,
    symmetric_match,
)
from repro.condor import collector as collector_module
from repro.condor import negotiator as negotiator_module
from repro.condor.collector import AMBIGUOUS_NAME
from repro.condor.compile import requirements_plan
from repro.net.profile import NetProfile
from repro.phi import XeonPhiSpec
from repro.sim import Environment
from repro.sim import profile as profile_module
from repro.workloads import (
    HostPhase,
    JobProfile,
    OffloadPhase,
    generate_table1_jobs,
)


def make_profile(job_id="j", memory=1000.0, threads=60):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1), OffloadPhase(work=1, threads=threads,
                                           memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


def snapshot(node="n0", free_slots=4, free_mb=8192.0, resident=0,
             claimed=False):
    return MachineSnapshot(
        node=node,
        total_slots=16,
        free_slots=free_slots,
        devices=[
            DeviceSnapshot(
                index=0, memory_mb=8192.0, free_declared_mb=free_mb,
                resident_jobs=resident, hardware_threads=240,
                claimed_exclusive=claimed,
            )
        ],
    )


class _FakeRecord:
    def __init__(self, profile, ad):
        self.profile = profile
        self.ad = ad


def record(memory=1000.0, sharing=True, memory_aware=True):
    profile = make_profile(memory=memory)
    return _FakeRecord(profile, job_ad(profile, sharing, memory_aware))


class TestAds:
    def test_machine_ad_attributes(self):
        ad = machine_ad(snapshot(free_slots=3, free_mb=5000))
        assert ad.evaluate("Machine") == "n0"
        assert ad.evaluate("Name") == "slot1@n0"
        assert ad.evaluate("FreeSlots") == 3
        assert ad.evaluate("PhiFreeMemory") == 5000.0
        assert ad.evaluate("PhiDevicesFree") == 1

    def test_exclusive_claim_lowers_devices_free(self):
        ad = machine_ad(snapshot(claimed=True))
        assert ad.evaluate("PhiDevicesFree") == 0

    def test_sharing_memory_aware_job_matches_only_with_free_memory(self):
        rec = record(memory=4000, memory_aware=True)
        assert symmetric_match(rec.ad, machine_ad(snapshot(free_mb=5000)))
        assert not symmetric_match(rec.ad, machine_ad(snapshot(free_mb=3000)))

    def test_sharing_unaware_job_ignores_free_memory(self):
        rec = record(memory=4000, memory_aware=False)
        assert symmetric_match(rec.ad, machine_ad(snapshot(free_mb=0)))

    def test_exclusive_job_needs_free_device(self):
        rec = record(sharing=False)
        assert symmetric_match(rec.ad, machine_ad(snapshot()))
        assert not symmetric_match(rec.ad, machine_ad(snapshot(claimed=True)))

    def test_all_jobs_need_free_slot(self):
        for kwargs in (dict(sharing=True), dict(sharing=False),
                       dict(sharing=True, memory_aware=False)):
            rec = record(**kwargs)
            assert not symmetric_match(rec.ad, machine_ad(snapshot(free_slots=0)))

    def test_machine_rejects_oversized_job(self):
        rec = record(memory=1000)
        machine = machine_ad(snapshot())
        assert symmetric_match(rec.ad, machine)
        # A job bigger than the card is refused by the machine's own
        # Requirements even if the job didn't check.
        big = record(memory=9000, memory_aware=False)
        assert not symmetric_match(big.ad, machine)

    def test_machine_ad_is_a_live_view(self):
        # Deductions show through without rebuilding the ad.
        snap = snapshot(free_slots=3, free_mb=5000)
        ad = machine_ad(snap)
        assert ad.evaluate("FreeSlots") == 3
        snap.free_slots -= 1
        snap.devices[0].free_declared_mb -= 2000.0
        assert ad.evaluate("FreeSlots") == 2
        assert ad.evaluate("PhiFreeMemory") == 3000.0

    def test_live_view_drives_rematch_after_deduction(self):
        snap = snapshot(free_mb=5000)
        ad = machine_ad(snap)
        rec = record(memory=4000, memory_aware=True)
        assert symmetric_match(rec.ad, ad)
        RandomPlacement(random.Random(0)).deduct(snap, 0, False, 4000.0)
        assert not symmetric_match(rec.ad, ad)

    def test_failed_devices_invisible_in_view(self):
        snap = snapshot()
        snap.devices[0].failed = True
        ad = machine_ad(snap)
        assert ad.evaluate("PhiDevices") == 0
        assert ad.evaluate("PhiMemory") == 0.0
        assert ad.evaluate("PhiFreeMemory") == 0.0

    def test_view_copy_freezes_current_state(self):
        snap = snapshot(free_slots=3)
        frozen = machine_ad(snap).copy()
        snap.free_slots = 0
        assert frozen.evaluate("FreeSlots") == 3
        assert frozen.evaluate("Requirements", record().ad) is True

    def test_view_mapping_protocol(self):
        ad = machine_ad(snapshot())
        assert "FreeSlots" in ad
        assert "Requirements" in ad
        assert "Nope" not in ad
        assert set(ad.keys()) == {
            "Name", "Machine", "TotalSlots", "FreeSlots", "PhiDevices",
            "PhiDevicesFree", "PhiMemory", "PhiFreeMemory", "Requirements",
        }

    def test_explicit_set_shadows_computed(self):
        ad = machine_ad(snapshot(free_slots=4))
        ad["FreeSlots"] = 0
        assert ad.evaluate("FreeSlots") == 0


class TestExclusivePlacement:
    def test_first_fit(self):
        policy = ExclusivePlacement()
        snaps = [snapshot("n0", claimed=True), snapshot("n1")]
        placement = policy.place(record(sharing=False), snaps)
        assert placement is not None
        chosen, device, exclusive = placement
        assert chosen.node == "n1"
        assert exclusive is True

    def test_skips_busy_devices(self):
        policy = ExclusivePlacement()
        snaps = [snapshot("n0", resident=1)]
        assert policy.place(record(sharing=False), snaps) is None

    def test_exhausted(self):
        policy = ExclusivePlacement()
        assert policy.exhausted([snapshot(claimed=True)])
        assert policy.exhausted([snapshot(free_slots=0)])
        assert not policy.exhausted([snapshot()])

    def test_deduct_marks_claim(self):
        policy = ExclusivePlacement()
        snap = snapshot()
        policy.deduct(snap, 0, True, 1000)
        assert snap.free_slots == 3
        assert snap.devices[0].claimed_exclusive


class TestRandomPlacement:
    def test_uniform_choice_is_seeded(self):
        snaps = [snapshot(f"n{i}") for i in range(4)]
        a = RandomPlacement(random.Random(5)).place(record(), list(snaps))
        b = RandomPlacement(random.Random(5)).place(record(), list(snaps))
        assert a[0].node == b[0].node

    def test_memory_aware_filters_devices(self):
        policy = RandomPlacement(random.Random(0), memory_aware=True)
        snaps = [snapshot("n0", free_mb=100), snapshot("n1", free_mb=5000)]
        placement = policy.place(record(memory=4000), snaps)
        assert placement[0].node == "n1"

    def test_unaware_ignores_memory(self):
        policy = RandomPlacement(random.Random(0), memory_aware=False)
        snaps = [snapshot("n0", free_mb=0)]
        assert policy.place(record(memory=4000), snaps) is not None

    def test_no_free_slots_returns_none(self):
        policy = RandomPlacement(random.Random(0))
        assert policy.place(record(), [snapshot(free_slots=0)]) is None

    def test_prefilter(self):
        aware = RandomPlacement(random.Random(0), memory_aware=True)
        assert not aware.prefilter(record(memory=4000), [snapshot(free_mb=100)])
        assert aware.prefilter(record(memory=4000), [snapshot(free_mb=5000)])
        unaware = RandomPlacement(random.Random(0), memory_aware=False)
        assert unaware.prefilter(record(memory=4000), [snapshot(free_mb=100)])

    def test_deduct_updates_shared_device(self):
        policy = RandomPlacement(random.Random(0))
        snap = snapshot(free_mb=5000)
        policy.deduct(snap, 0, False, 2000)
        assert snap.devices[0].free_declared_mb == 3000
        assert snap.devices[0].resident_jobs == 1
        assert snap.free_slots == 3


def _pool(env, policy, nodes=3, slots=4, use_pin_index=True):
    schedd = Schedd(env)
    collector = Collector()
    for i in range(nodes):
        collector.register(
            Startd(env, schedd, ComputeNode(env, f"n{i}", mode="cosmic"),
                   slots=slots)
        )
    negotiator = Negotiator(env, schedd, collector, policy,
                            use_pin_index=use_pin_index)
    return schedd, collector, negotiator


class TestNegotiatorRouting:
    def test_pinned_jobs_take_the_index_path(self):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement())
        for i in range(4):
            schedd.submit(make_profile(f"j{i}"))
            schedd.qedit(f"j{i}", "Requirements", pin_requirements(f"n{i % 3}"))
        assert negotiator.negotiate_once() == 4
        stats = negotiator.last_cycle
        assert stats.pin_routed == 4
        assert stats.full_scans == 0
        assert stats.evals == 4  # one probe per job, not one per machine
        assert stats.examined == 4
        assert stats.matched == 4
        assert [schedd.get(f"j{i}").matched_node for i in range(4)] \
            == ["n0", "n1", "n2", "n0"]

    def test_index_off_gives_identical_matches(self):
        results = []
        for use_index in (True, False):
            env = Environment()
            schedd, _, negotiator = _pool(env, PinnedPlacement(),
                                          use_pin_index=use_index)
            for i in range(5):
                schedd.submit(make_profile(f"j{i}"))
                schedd.qedit(f"j{i}", "Requirements",
                             pin_requirements(f"n{i % 3}"))
            negotiator.negotiate_once()
            results.append([schedd.get(f"j{i}").matched_node
                            for i in range(5)])
        assert results[0] == results[1]
        assert results[0] == ["n0", "n1", "n2", "n0", "n1"]

    def test_full_scan_counts_every_machine(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(0)), nodes=3,
        )
        schedd.submit(make_profile("j0"))
        assert negotiator.negotiate_once() == 1
        stats = negotiator.last_cycle
        assert stats.full_scans == 1
        assert stats.pin_routed == 0
        assert stats.evals == 3

    def test_pin_to_unknown_node_matches_nothing(self):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement())
        schedd.submit(make_profile("ghost"))
        schedd.qedit("ghost", "Requirements", pin_requirements("nowhere"))
        assert negotiator.negotiate_once() == 0
        stats = negotiator.last_cycle
        assert stats.pin_routed == 1
        assert stats.evals == 0  # the index miss is the proof; no probes
        assert schedd.get("ghost").status == "Idle"

    def test_case_colliding_names_fall_back_to_scan(self):
        env = Environment()
        schedd, collector, negotiator = _pool(env, PinnedPlacement(), nodes=1)
        collector.register(
            Startd(env, schedd, ComputeNode(env, "N0", mode="cosmic"), slots=4)
        )
        _, index = collector.indexed_snapshots()
        assert index["slot1@n0"] is AMBIGUOUS_NAME
        schedd.submit(make_profile("j0"))
        schedd.qedit("j0", "Requirements", pin_requirements("n0"))
        assert negotiator.negotiate_once() == 1
        stats = negotiator.last_cycle
        assert stats.full_scans == 1
        assert stats.pin_routed == 0

    def test_accounting_is_a_coherent_partition(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(1), memory_aware=True), nodes=2,
        )
        schedd.submit(make_profile("ok", memory=1000))       # examined+matched
        schedd.submit(make_profile("big", memory=9000))      # prefiltered
        schedd.submit(make_profile("parked"))                # parked
        schedd.qedit("parked", "Requirements", "false")
        schedd.submit(make_profile("ok2", memory=1000))      # examined+matched
        matched = negotiator.negotiate_once()
        stats = negotiator.last_cycle
        assert matched == stats.matched == 2
        assert stats.parked == 1
        assert stats.prefiltered == 1
        assert stats.examined == 2
        # The partition covers exactly the pending queue walked.
        assert stats.parked + stats.prefiltered + stats.examined == 4
        assert stats.matched <= stats.examined

    def test_collector_index_covers_all_live_nodes(self):
        env = Environment()
        _, collector, _ = _pool(env, PinnedPlacement(), nodes=3)
        snapshots, index = collector.indexed_snapshots()
        assert len(snapshots) == 3
        assert sorted(index) == ["slot1@n0", "slot1@n1", "slot1@n2"]
        collector.deregister("n1")
        snapshots, index = collector.indexed_snapshots()
        assert sorted(index) == ["slot1@n0", "slot1@n2"]


class TestPinnedPlacement:
    def test_uses_assigned_device(self):
        policy = PinnedPlacement()
        rec = record()
        rec.ad["AssignedPhiDevice"] = 0
        placement = policy.place(rec, [snapshot("n2")])
        assert placement == (placement[0], 0, False)

    def test_defaults_device_zero_when_unset(self):
        policy = PinnedPlacement()
        placement = policy.place(record(), [snapshot()])
        assert placement[1] == 0

    def test_full_node_returns_none(self):
        policy = PinnedPlacement()
        assert policy.place(record(), [snapshot(free_slots=0)]) is None


class TestAutoclusters:
    def test_identical_machines_answer_from_the_memo(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(0)), nodes=3,
        )
        schedd.submit(make_profile("j0"))
        schedd.submit(make_profile("j1"))
        assert negotiator.negotiate_once() == 2
        stats = negotiator.last_cycle
        # Machines considered are unchanged: 3 per job.
        assert stats.evals == 6
        # j0 evaluates one machine shape; j1 re-evaluates only the node
        # j0's deduction changed.
        assert stats.autocluster_hits == 4

    def test_later_jobs_of_a_shape_draw_from_the_index(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(0)), nodes=3,
        )
        for i in range(3):
            schedd.submit(make_profile(f"j{i}"))
        assert negotiator.negotiate_once() == 3
        stats = negotiator.last_cycle
        assert (stats.full_scans, stats.evals) == (3, 9)
        # j0 walks the pool (one shape, one evaluation); j1 and j2 each
        # settle the one node the job before them took, evaluating its
        # new shape unless an earlier deduction already produced it.
        assert (stats.indexed_draws, stats.index_settles) == (2, 2)
        assert 2 <= stats.evals - stats.autocluster_hits <= 3

    def test_negative_zero_does_not_share_a_key(self):
        assert negotiator_module._signature(
            _ad_with(x=0.0), ("x",)
        ) != negotiator_module._signature(_ad_with(x=-0.0), ("x",))

    def test_bool_int_and_float_do_not_share_a_key(self):
        keys = {
            negotiator_module._signature(_ad_with(x=value), ("x",))
            for value in (True, 1, 1.0)
        }
        assert len(keys) == 3

    def test_expression_valued_attribute_bypasses(self):
        ad = _ad_with(x=1)
        ad.set_expr("y", "MY.x + 1")
        assert negotiator_module._signature(ad, ("x", "y")) is None

    def test_custom_machine_requirements_bypass(self):
        ad = machine_ad(snapshot())
        names = ("freeslots",)
        assert negotiator_module._machine_key(ad, names) is not None
        ad.set_expr("Requirements", "TARGET.RequestPhiMemory <= 100")
        assert negotiator_module._machine_key(ad, names) is None


def _ad_with(**attrs):
    return ClassAd(attrs)


# -- decision identity: memoized vs uncached matchmaking ----------------------

#: One node: (cards, card memory MB, host slots, failed card indices,
#: exclusively claimed card indices).
_nodes = st.tuples(
    st.integers(1, 3),
    st.sampled_from([2048, 4096, 8192]),
    st.integers(1, 4),
    st.sets(st.integers(0, 2), max_size=2),
    st.sets(st.integers(0, 2), max_size=1),
)

#: Requirements a machine only meets once deductions have taken some of
#: its slots: a candidate index must *insert* it, not just drop it.
_FEW_SLOTS = (
    "TARGET.FreeSlots < 3 && TARGET.FreeSlots >= 1"
    " && MY.RequestPhiMemory <= TARGET.PhiMemory"
)

#: One job: (declared memory MB, threads, submit-ad edit). ``"expr"``
#: makes RequestPhiDevices expression-valued over an attribute no
#: Requirements reads; ``"true"`` / ``"1"`` are the bool-vs-int pair;
#: ``"fewslots"`` rewrites Requirements to :data:`_FEW_SLOTS`;
#: ``"samemem"`` advertises 1000 MB whatever the declared memory, so jobs
#: that share an autocluster may still differ in what a card must hold.
_jobs = st.tuples(
    st.sampled_from([300.0, 1000.0, 2500.0, 5000.0]),
    st.sampled_from([60, 120, 240]),
    st.sampled_from([None, "true", "1", "expr", "fewslots", "samemem"]),
)

#: Machine attributes set explicitly, shadowing the computed ones.
_shadows = st.sampled_from([
    ("FreeSlots", 0),
    ("PhiMemory", 1024.0),
    ("PhiDevices", True),
    ("PhiFreeMemory", -0.0),
    ("PhiDevices", 1.0),
    # Expression-valued: the machine bypasses the autoclusters.
    ("PhiDevices", "MY.FreeSlots"),
])

_POLICIES = ("MCC", "MCC-aware", "BESTFIT", "MC")


def _policy(name, seed):
    if name == "MC":
        return ExclusivePlacement()
    if name == "BESTFIT":
        return BestFitPlacement()
    return RandomPlacement(random.Random(seed), memory_aware=name == "MCC-aware")


def _recording(negotiator, log):
    """Log every (cycle, job, node, device) the negotiator matches,
    whichever route (pinned, scan or candidate index) chose it."""
    match = negotiator._match

    def recorded(record, *args):
        placement = match(record, *args)
        if placement is not None:
            log.append((negotiator.cycles_run, record.job_id,
                        placement[0].node, placement[1]))
        return placement

    negotiator._match = recorded


def _customized(overrides):
    """``machine_ad`` with per-node explicit attributes applied."""
    real = machine_ad

    def build(snap):
        ad = real(snap)
        for name, value in overrides.get(snap.node, ()):
            if isinstance(value, str):
                ad.set_expr(name, value)
            else:
                ad[name] = value
        return ad

    return build


def _matchmaking_mode(mode):
    """Patches selecting how full scans run: ``"index"`` (the default:
    autoclusters plus candidate indexes), ``"memo"`` (autoclusters, every
    job walks the machines) or ``"uncached"`` (every job down the plain
    ``symmetric_match`` path)."""
    if mode == "uncached":
        return [mock.patch.object(negotiator_module, "_signature",
                                  lambda ad, names: None)]
    if mode == "memo":
        return [mock.patch.object(RandomPlacement, "indexed", False)]
    return []


def _counting_matches(calls):
    real = negotiator_module.symmetric_match

    def counted(job, machine):
        calls.append(1)
        return real(job, machine)

    return mock.patch.object(negotiator_module, "symmetric_match", counted)


def _run_scenario(policy_name, seed, nodes, jobs, shadow, twin, mode):
    env = Environment()
    policy = _policy(policy_name, seed)
    log = []
    schedd = Schedd(env)
    collector = Collector()
    kind = "exclusive" if policy_name == "MC" else "cosmic"
    shapes = list(enumerate(nodes))
    if twin:
        shapes.append(("twin", nodes[0]))
    for index, (cards, memory, slots, failed, claimed) in shapes:
        node = ComputeNode(env, f"n{index}", num_devices=cards, mode=kind,
                           spec=XeonPhiSpec(memory_mb=memory))
        for card in sorted(failed):
            if card < cards:
                node.fail_device(card)
        startd = Startd(env, schedd, node, slots=slots)
        # A card held by an exclusive claim no job of this run releases.
        startd._exclusive_claims.update(c for c in claimed if c < cards)
        collector.register(startd)
    for i, (memory, threads, edit) in enumerate(jobs):
        record = schedd.submit(
            make_profile(f"j{i}", memory=memory, threads=threads),
            sharing=policy.sharing, memory_aware=policy.memory_aware,
        )
        if edit == "expr":
            schedd.qedit(record.job_id, "RequestPhiDevices",
                         "RequestPhiThreads / 120")
        elif edit == "fewslots":
            schedd.qedit(record.job_id, "Requirements", _FEW_SLOTS)
        elif edit == "samemem":
            schedd.qedit(record.job_id, "RequestPhiMemory", "1000.0")
        elif edit is not None:
            schedd.qedit(record.job_id, "RequestPhiDevices", edit)
    shadow_node, shadow_attr = shadow
    overrides = {
        f"n{shadow_node % len(nodes)}": [shadow_attr],
        # Same hardware as n0, but its own Requirements.
        "ntwin": [("Requirements",
                   "TARGET.RequestPhiThreads <= 120"
                   " && TARGET.RequestPhiMemory <= MY.PhiMemory")],
    }
    negotiator = Negotiator(env, schedd, collector, policy)
    _recording(negotiator, log)
    build = _customized(overrides)
    calls = []
    prof = profile_module.activate()
    try:
        with contextlib.ExitStack() as stack:
            for patch in [
                mock.patch.object(collector_module, "machine_ad", build),
                mock.patch.object(negotiator_module, "machine_ad", build),
                _counting_matches(calls),
                *_matchmaking_mode(mode),
            ]:
                stack.enter_context(patch)
            negotiator.start()
            env.run(until=60)
    finally:
        profile_module.deactivate()
    # Counters stay exact: every probe not answered by the autoclusters
    # ran ``symmetric_match``.
    assert prof.match_probes - prof.autocluster_hits == len(calls)
    rng = policy.rng.getstate() if hasattr(policy, "rng") else None
    statuses = sorted((r.job_id, r.status) for r in schedd.all_records())
    return (log, rng, statuses), len(calls), prof


class TestDecisionIdentity:
    """The autocluster memo and the candidate indexes change how often
    ClassAds are evaluated and machines walked, never which (job, node,
    device) the negotiator picks or how the placement RNG advances."""

    @settings(max_examples=60, deadline=None)
    @given(
        policy_name=st.sampled_from(_POLICIES),
        seed=st.integers(0, 2**16),
        nodes=st.lists(_nodes, min_size=2, max_size=5),
        jobs=st.lists(_jobs, min_size=3, max_size=12),
        shadow=st.tuples(st.integers(0, 4), _shadows),
        twin=st.booleans(),
    )
    def test_memo_matches_uncached_path(self, policy_name, seed, nodes,
                                        jobs, shadow, twin):
        args = (policy_name, seed, nodes, jobs, shadow, twin)
        indexed, index_calls, _ = _run_scenario(*args, "index")
        memo, memo_calls, _ = _run_scenario(*args, "memo")
        uncached, _, _ = _run_scenario(*args, "uncached")
        assert indexed == memo == uncached
        # The index never evaluates a pair the memo-only scan would not.
        assert index_calls <= memo_calls

    def test_index_inserts_a_newly_matching_machine(self):
        """n1 only meets :data:`_FEW_SLOTS` after another job's deduction;
        the third job must find it through its settled index."""
        nodes = [(1, 8192, 1, set(), set()), (1, 8192, 3, set(), set())]
        jobs = [(1000.0, 60, "fewslots"), (1000.0, 60, None),
                (1000.0, 60, "fewslots")]
        shadow = (0, ("PhiMemory", 8192.0))
        args = ("MCC", 5, nodes, jobs, shadow, False)
        indexed, _, prof = _run_scenario(*args, "index")
        log = indexed[0]
        assert [entry[:3] for entry in log] == [
            (1, "j0", "n0"), (1, "j1", "n1"), (1, "j2", "n1"),
        ]
        assert prof.indexed_draws >= 1
        assert prof.index_settles >= 2
        assert indexed == _run_scenario(*args, "uncached")[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_index_is_per_declared_memory(self, seed):
        """j0 and j1 advertise the same RequestPhiMemory, so they share an
        autocluster, but only j0's declared memory fits n1's card: j1
        must not draw from j0's candidates."""
        nodes = [(1, 8192, 3, set(), set()), (1, 2048, 3, set(), set())]
        jobs = [(300.0, 60, "samemem"), (5000.0, 60, "samemem")]
        shadow = (0, ("PhiMemory", 8192.0))
        args = ("MCC-aware", seed, nodes, jobs, shadow, False)
        indexed = _run_scenario(*args, "index")[0]
        assert indexed[0][1][1:3] == ("j1", "n0")
        assert indexed == _run_scenario(*args, "uncached")[0]

    def test_bypassing_machine_keeps_the_scan(self):
        """ntwin's own Requirements read RequestPhiThreads, which is not
        in the job key: j0 and j1 share an autocluster yet only j1 fits
        the twin, so j0's scan must not serve j1 as an index."""
        nodes = [(1, 8192, 1, set(), set())]
        jobs = [(1000.0, 240, None), (1000.0, 60, None)]
        shadow = (0, ("PhiMemory", 8192.0))
        args = ("MCC", 5, nodes, jobs, shadow, True)
        indexed, _, prof = _run_scenario(*args, "index")
        assert [entry[:3] for entry in indexed[0]] == [
            (1, "j0", "n0"), (1, "j1", "ntwin"),
        ]
        assert prof.indexed_draws == 0
        assert indexed == _run_scenario(*args, "uncached")[0]

    def test_fabric_mode_run_is_identical(self):
        def run(mode):
            log = []
            match = Negotiator._match

            def recorded(negotiator, record, *args):
                placement = match(negotiator, record, *args)
                if placement is not None:
                    log.append((negotiator.cycles_run, record.job_id,
                                placement[0].node, placement[1]))
                return placement

            with contextlib.ExitStack() as stack:
                for patch in [mock.patch.object(Negotiator, "_match", recorded),
                              *_matchmaking_mode(mode)]:
                    stack.enter_context(patch)
                result = _fabric_mcc()
            outcomes = [(r.job_id, r.start, r.end, r.status)
                        for r in result.job_results]
            return log, outcomes, result.makespan

        indexed = run("index")
        assert indexed[0], "no placements recorded"
        assert indexed == run("memo") == run("uncached")


#: One in-cycle deduction: (node, device, exclusive claim).
_deductions = st.tuples(st.integers(0, 7), st.integers(0, 1), st.booleans())


class TestCandidateIndex:
    """Settling replays deductions into the sorted position list."""

    @settings(max_examples=80, deadline=None)
    @given(
        slots=st.lists(st.integers(0, 5), min_size=1, max_size=8),
        steps=st.lists(_deductions, max_size=14),
        memory_aware=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_settled_index_draws_like_a_rebuilt_list(
        self, slots, steps, memory_aware, seed
    ):
        snapshots = [
            MachineSnapshot(
                node=f"n{i}", total_slots=8, free_slots=free,
                devices=[
                    DeviceSnapshot(index=d, memory_mb=8192.0,
                                   free_declared_mb=8192.0, resident_jobs=0,
                                   hardware_threads=240,
                                   claimed_exclusive=False)
                    for d in range(2)
                ],
            )
            for i, free in enumerate(slots)
        ]
        view = negotiator_module.SnapshotCycleView(snapshots, None)
        job = record(memory=3000.0, memory_aware=memory_aware)
        # Machines enter as deductions take them below three free slots
        # and leave at zero or once no device can take the job.
        job.ad.set_expr("Requirements", _FEW_SLOTS)
        names = requirements_plan(job.ad.get_expr("Requirements")).significant
        job_key = (job.ad._attrs["requirements"],
                   *negotiator_module._signature(job.ad, names))
        declared = job.profile.declared_memory_mb
        policy = RandomPlacement(random.Random(0), memory_aware=memory_aware)

        def scan(autoclusters):
            answers = autoclusters.answers.setdefault(job_key, {})
            return answers, autoclusters.scan(
                job.ad, answers, names, view, snapshots, policy.usable,
                declared,
            )

        autoclusters = negotiator_module._Autoclusters()
        answers, (positions, _, bypassed) = scan(autoclusters)
        assert not bypassed
        index = negotiator_module._CandidateIndex(positions, snapshots, 0)
        autoclusters.indexes[job_key] = index
        for step, (node, device, exclusive) in enumerate(steps):
            snap = snapshots[node % len(snapshots)]
            if snap.free_slots > 0:
                policy.deduct(snap, device, exclusive, declared)
                autoclusters.forget(snap)
            if step % 2:
                continue
            autoclusters.settle(index, job.ad, answers, names, view,
                                policy.usable, declared,
                                negotiator_module.CycleStats())
            _, (rebuilt, _, _) = scan(negotiator_module._Autoclusters())
            assert index.positions == rebuilt
            drawn = RandomPlacement(random.Random(seed + step), memory_aware)
            listed = RandomPlacement(random.Random(seed + step), memory_aware)
            a = drawn.draw(index, declared)
            b = listed.draw([snapshots[pos] for pos in rebuilt], declared)
            assert (a and (a[0].node, a[1])) == (b and (b[0].node, b[1]))
            assert drawn.rng.getstate() == listed.rng.getstate()


def _fabric_mcc():
    return run(
        generate_table1_jobs(24, seed=3),
        ClusterConfig(nodes=4),
        MCC(),
        net=NetProfile.chaos(0.1),
        net_seed=11,
    )
