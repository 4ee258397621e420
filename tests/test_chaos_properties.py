"""Property: every fault family at once leaves the auditor clean.

Each example draws card faults, message loss and duplication, one
partition window and central-daemon crashes *together* and runs a small
cell under the runtime auditor. The CI chaos jobs exercise each family
alone and the crash-recovery properties run on a lossless fabric; this
keeps the interaction surface (lossy fabric-mode negotiation while
daemons restart and cards fail) in tier-1. The fault horizon is capped
so a draw that crashes jobs faster than they finish still drains.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PAPER_POLICIES, ClusterConfig, run
from repro.experiments.common import make_workload
from repro.faults import FaultProfile
from repro.net.profile import NetProfile, PartitionSpec
from repro.obs import audit

JOBS = make_workload(("table1", 40, 42))
CONFIG = ClusterConfig(nodes=3, cycle_interval=2.0)

_partitions = st.tuples(
    st.floats(min_value=0.0, max_value=300.0),
    st.floats(min_value=5.0, max_value=200.0),
    st.sampled_from(["*", "startd:*", "startd:node1", "schedd", "negotiator",
                     "collector"]),
)


@settings(max_examples=10, deadline=None)
@given(
    policy=st.sampled_from(PAPER_POLICIES),
    card_rate=st.floats(min_value=0.0, max_value=20.0),
    loss=st.floats(min_value=0.0, max_value=0.4),
    dup=st.floats(min_value=0.0, max_value=0.4),
    partition=_partitions,
    daemon_rate=st.floats(min_value=5.0, max_value=150.0),
    fault_seed=st.integers(0, 2**16),
    net_seed=st.integers(0, 2**16),
)
def test_combined_chaos_is_audit_clean(policy, card_rate, loss, dup,
                                       partition, daemon_rate, fault_seed,
                                       net_seed):
    start, length, pattern = partition
    faults = FaultProfile.chaos(
        card_rate, daemon_crash_rate=daemon_rate, horizon_s=2000.0,
    )
    net = NetProfile.chaos(
        loss, dup=dup,
        partitions=(PartitionSpec(start, start + length, pattern),),
    )
    auditor = audit.activate()
    auditor.enter_cell("combined-chaos")
    try:
        result = run(
            JOBS, CONFIG, policy,
            faults=faults, fault_seed=fault_seed,
            net=net, net_seed=net_seed,
        )
        auditor.finish_cell()
    finally:
        audit.deactivate()
    assert auditor.violations == 0
    ids = [r.job_id for r in result.job_results]
    assert len(ids) == len(set(ids)) == len(JOBS)
    assert result.completed_jobs + result.failed_jobs == len(JOBS)
