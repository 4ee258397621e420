"""Unit tests for placement policies, machine/job ads, and negotiation."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ComputeNode, run_mcc
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
from repro.net.profile import NetProfile
from repro.phi import XeonPhiSpec
from repro.sim import Environment
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

#: One node: (cards, card memory MB, host slots, failed card indices).
_nodes = st.tuples(
    st.integers(1, 3),
    st.sampled_from([2048, 4096, 8192]),
    st.integers(1, 3),
    st.sets(st.integers(0, 2), max_size=2),
)

#: One job: (declared memory MB, threads, submit-ad edit). ``"expr"``
#: makes RequestPhiDevices expression-valued over an attribute no
#: Requirements reads; ``"true"`` / ``"1"`` are the bool-vs-int pair.
_jobs = st.tuples(
    st.sampled_from([300.0, 1000.0, 2500.0, 5000.0]),
    st.sampled_from([60, 120, 240]),
    st.sampled_from([None, "true", "1", "expr"]),
)

#: Machine attributes set explicitly, shadowing the computed ones.
_shadows = st.sampled_from([
    ("FreeSlots", 0),
    ("PhiMemory", 1024.0),
    ("PhiDevices", True),
    ("PhiFreeMemory", -0.0),
    ("PhiDevices", 1.0),
])

_POLICIES = ("MCC", "MCC-aware", "BESTFIT", "MC")


def _policy(name, seed):
    if name == "MC":
        return ExclusivePlacement()
    if name == "BESTFIT":
        return BestFitPlacement()
    return RandomPlacement(random.Random(seed), memory_aware=name == "MCC-aware")


def _recording(policy, log):
    place = policy.place

    def recorded(record, candidates):
        placement = place(record, candidates)
        if placement is not None:
            log.append((record.job_id, placement[0].node, placement[1]))
        return placement

    policy.place = recorded


def _customized(overrides):
    """``machine_ad`` with per-node explicit attributes applied."""
    real = machine_ad

    def build(snap):
        ad = real(snap)
        for name, value in overrides.get(snap.node, ()):
            if name == "Requirements":
                ad.set_expr(name, value)
            else:
                ad[name] = value
        return ad

    return build


def _signature(uncached):
    """The key helper to run with: the real one, or one that sends every
    job down the uncached ``symmetric_match`` path."""
    if uncached:
        return lambda ad, names: None
    return negotiator_module._signature


def _run_scenario(policy_name, seed, nodes, jobs, shadow, uncached):
    env = Environment()
    policy = _policy(policy_name, seed)
    log = []
    _recording(policy, log)
    schedd = Schedd(env)
    collector = Collector()
    mode = "exclusive" if policy_name == "MC" else "cosmic"
    shapes = list(enumerate(nodes)) + [("twin", nodes[0])]
    for index, (cards, memory, slots, failed) in shapes:
        node = ComputeNode(env, f"n{index}", num_devices=cards, mode=mode,
                           spec=XeonPhiSpec(memory_mb=memory))
        for card in sorted(failed):
            if card < cards:
                node.fail_device(card)
        collector.register(Startd(env, schedd, node, slots=slots))
    for i, (memory, threads, edit) in enumerate(jobs):
        record = schedd.submit(
            make_profile(f"j{i}", memory=memory, threads=threads),
            sharing=policy.sharing, memory_aware=policy.memory_aware,
        )
        if edit == "expr":
            schedd.qedit(record.job_id, "RequestPhiDevices",
                         "RequestPhiThreads / 120")
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
    build = _customized(overrides)
    with mock.patch.object(collector_module, "machine_ad", build), \
            mock.patch.object(negotiator_module, "machine_ad", build), \
            mock.patch.object(negotiator_module, "_signature",
                              _signature(uncached)):
        negotiator.start()
        env.run(until=60)
    rng = policy.rng.getstate() if hasattr(policy, "rng") else None
    statuses = sorted((r.job_id, r.status) for r in schedd.all_records())
    return log, rng, statuses


class TestDecisionIdentity:
    """The autocluster memo changes how often ClassAds are evaluated,
    never which (job, node, device) the negotiator picks."""

    @settings(max_examples=60, deadline=None)
    @given(
        policy_name=st.sampled_from(_POLICIES),
        seed=st.integers(0, 2**16),
        nodes=st.lists(_nodes, min_size=2, max_size=5),
        jobs=st.lists(_jobs, min_size=3, max_size=12),
        shadow=st.tuples(st.integers(0, 4), _shadows),
    )
    def test_memo_matches_uncached_path(self, policy_name, seed, nodes,
                                        jobs, shadow):
        cached = _run_scenario(policy_name, seed, nodes, jobs, shadow, False)
        uncached = _run_scenario(policy_name, seed, nodes, jobs, shadow, True)
        assert cached == uncached

    def test_fabric_mode_run_is_identical(self):
        def run(uncached):
            log = []
            place = RandomPlacement.place

            def recorded(policy, record, candidates):
                placement = place(policy, record, candidates)
                if placement is not None:
                    log.append((record.job_id, placement[0].node,
                                placement[1]))
                return placement

            with mock.patch.object(RandomPlacement, "place", recorded), \
                    mock.patch.object(negotiator_module, "_signature",
                                      _signature(uncached)):
                result = _fabric_mcc()
            outcomes = [(r.job_id, r.start, r.end, r.status)
                        for r in result.job_results]
            return log, outcomes, result.makespan

        cached = run(False)
        assert cached[0], "no placements recorded"
        assert cached == run(True)


def _fabric_mcc():
    return run_mcc(
        generate_table1_jobs(24, seed=3),
        ClusterConfig(nodes=4),
        net=NetProfile.chaos(0.1),
        net_seed=11,
    )
