"""The policy interface: one run path for MC, MCC, BESTFIT and MCCK.

``GOLDEN`` holds one small fixed-seed run (2 nodes, 40 Table-I jobs,
seed 42) per policy variant the experiments use, recorded with the
per-stack ``run_mc``/``run_mcc``/``run_best_fit``/``run_mcck`` functions
that :func:`repro.cluster.run` replaced. ``repr`` keeps every bit of the
makespan; completed jobs, negotiation cycles and packing decisions pin
the rest of the run.
"""

import pytest

from repro.cluster import MC, MCC, MCCK, BestFit, ClusterConfig, run
from repro.workloads import generate_table1_jobs

GOLDEN = {
    MC(): ("549.2710671415542", 40, 110, 0),
    MCC(): ("355.31120824222387", 40, 72, 0),
    MCC(memory_aware=True): ("361.0762666360152", 40, 73, 0),
    BestFit(): ("344.31288790466795", 40, 69, 0),
    MCCK(): ("364.6403836188156", 40, 73, 31),
    MCCK(thread_cap=False): ("369.5628557722637", 40, 74, 17),
    MCCK(thread_cap=False, respect_host_slots=False): (
        "369.5628557722637", 40, 74, 17,
    ),
    MCCK(value_fn="linear"): ("385.7493576122704", 40, 78, 31),
}


@pytest.fixture(scope="module")
def jobs():
    return generate_table1_jobs(40, seed=42)


@pytest.mark.parametrize("policy", list(GOLDEN), ids=repr)
def test_run_reproduces_the_recorded_golden(jobs, policy):
    result = run(jobs, ClusterConfig(nodes=2), policy)
    assert result.configuration == policy.name
    assert (
        repr(result.makespan),
        result.completed_jobs,
        result.negotiation_cycles,
        result.packing_decisions,
    ) == GOLDEN[policy]


def test_policies_are_values():
    assert MCCK() == MCCK(thread_cap=True, value_fn="paper-floored")
    assert MCC() != MCC(memory_aware=True)
    assert MC() != BestFit()  # same (empty) fields, different stacks
    assert len(set(GOLDEN)) == len(GOLDEN)


def test_scalars_carry_every_scalar_field(jobs):
    result = run(jobs[:8], ClusterConfig(nodes=2), MCC())
    cell = result.scalars()
    assert cell["makespan"] == result.makespan
    assert cell["completed_jobs"] == result.completed_jobs
    assert cell["mean_core_utilization"] == result.mean_core_utilization
    assert "job_results" not in cell and "per_device_utilization" not in cell
