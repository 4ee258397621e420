"""Property test: crashing the schedd at an arbitrary time loses nothing.

The recovery-equivalence property the WAL + reconciliation protocol
promises: crash the schedd at *any* simulated instant and let it
recover, and the final job accounting matches a crash-free run of the
same workload — every job reaches exactly one terminal outcome
(asserted by the auditor's ledgers, which span the restart), and any
job whose outcome differs from the crash-free run got there through the
re-adoption/retry path, never by being silently dropped or completed
twice. The crash run is also replay-deterministic for a fixed crash
time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MCC, ClusterConfig, run
from repro.experiments.common import make_workload
from repro.faults import FaultProfile
from repro.net.profile import NetProfile
from repro.obs import audit

CONFIG = ClusterConfig(nodes=2, cycle_interval=2.0)
JOBS = make_workload(("table1", 12, 42))


def _run(faults=None):
    auditor = audit.activate()
    auditor.enter_cell("recovery-property")
    try:
        result = run(
            JOBS, CONFIG, MCC(),
            faults=faults, fault_seed=7, net=NetProfile(), net_seed=3,
        )
        auditor.finish_cell()
    finally:
        audit.deactivate()
    assert auditor.violations == 0
    return result


#: Crash-free reference outcomes, computed once (same fabric, no faults).
_BASELINE = {r.job_id: r.status for r in _run().job_results}


@settings(max_examples=12, deadline=None)
@given(crash_time=st.floats(min_value=0.0, max_value=150.0,
                            allow_nan=False, allow_infinity=False))
def test_schedd_crash_at_any_time_preserves_outcomes(crash_time):
    faults = FaultProfile(crashes=((crash_time, "schedd"),))
    result = _run(faults)
    outcomes = {r.job_id: r for r in result.job_results}
    # No job lost, none reported twice (the dict would have collapsed
    # duplicates; the auditor inside _run catches double terminals).
    assert set(outcomes) == set(_BASELINE)
    assert len(result.job_results) == len(_BASELINE)
    assert result.completed_jobs + result.failed_jobs == len(_BASELINE)
    if result.schedd_recoveries:
        assert result.wal_replayed > 0
    # Outcomes may legitimately differ from the crash-free run only for
    # jobs routed through the retry path after losing their claim.
    for job_id, status in _BASELINE.items():
        if outcomes[job_id].status != status:
            assert outcomes[job_id].attempt > 0


@settings(max_examples=6, deadline=None)
@given(crash_time=st.floats(min_value=10.0, max_value=120.0,
                            allow_nan=False, allow_infinity=False))
def test_crash_run_is_replay_deterministic(crash_time):
    faults = FaultProfile(crashes=((crash_time, "schedd"),))

    def fingerprint():
        result = _run(faults)
        return (
            result.makespan,
            result.schedd_recoveries,
            result.wal_replayed,
            result.jobs_readopted,
            tuple((r.job_id, r.status) for r in result.job_results),
        )

    assert fingerprint() == fingerprint()
