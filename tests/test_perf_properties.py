"""Property tests guarding the kernel/telemetry fast paths.

Two families of invariants back the performance work:

* the bisect/prefix-sum ``StepSeries`` queries must return *bit-identical*
  floats to a naive linear walk over the segments (the pre-optimization
  implementation), on arbitrary monotone recording patterns;
* the event kernel must replay deterministically — the same seed yields
  the same simulation outcome, with and without an active fault profile.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulation import MCCK, ClusterConfig, run
from repro.faults import FaultProfile
from repro.phi.telemetry import StepSeries
from repro.workloads import generate_synthetic_jobs


# -- naive reference implementations (the pre-optimization linear code) ------


def naive_value_at(times, values, time):
    result = 0.0
    for t, v in zip(times, values):
        if t <= time:
            result = v
        else:
            break
    return result


def naive_integral(times, values, start, end):
    if end <= start or not times:
        return 0.0
    total = 0.0
    n = len(times)
    for i in range(n):
        seg_end = times[i + 1] if i + 1 < n else end
        lo = max(times[i], start)
        hi = min(seg_end, end)
        if hi > lo:
            total += values[i] * (hi - lo)
    return total


#: Recording patterns: non-negative deltas (0 → same-instant overwrite)
#: and values drawn from a small pool so equal-value compaction and
#: overwrite-reversion both occur frequently.
_series_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=7.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.25]),
    ),
    min_size=0,
    max_size=30,
)

_window_strategy = st.tuples(
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)


def _build(steps):
    """Record ``steps`` into a StepSeries and a raw segment list."""
    series = StepSeries()
    t = 0.0
    for delta, value in steps:
        t += delta
        series.record(t, value)
    return series


class TestStepSeriesMatchesNaiveWalk:
    @settings(max_examples=120, deadline=None)
    @given(_series_strategy, st.floats(min_value=-5, max_value=130))
    def test_value_at(self, steps, when):
        series = _build(steps)
        assert series.value_at(when) == naive_value_at(
            series.times, series.values, when
        )

    @settings(max_examples=150, deadline=None)
    @given(_series_strategy, _window_strategy)
    def test_integral_bit_identical(self, steps, window):
        series = _build(steps)
        start, end = sorted(window)
        expected = naive_integral(series.times, series.values, start, end)
        # Exact equality on purpose: both the prefix fast path and the
        # bisect walk accumulate the same terms in the same order.
        assert series.integral(start, end) == expected
        # A second query runs against the now-built prefix cache.
        assert series.integral(start, end) == expected

    @settings(max_examples=100, deadline=None)
    @given(_series_strategy, _window_strategy)
    def test_integral_after_more_records(self, steps, window):
        """Interleaving queries and records keeps the cache coherent."""
        series = _build(steps)
        start, end = sorted(window)
        series.integral(start, end)  # populate the prefix cache
        tail = (series.times[-1] if series.times else 0.0) + 1.0
        series.record(tail, 3.0)
        series.record(tail + 2.0, 0.0)
        expected = naive_integral(series.times, series.values, start, end)
        assert series.integral(start, end) == expected

    @settings(max_examples=100, deadline=None)
    @given(_series_strategy, _window_strategy)
    def test_mean(self, steps, window):
        series = _build(steps)
        start, end = sorted(window)
        expected = naive_integral(series.times, series.values, start, end)
        if end > start:
            assert series.mean(start, end) == expected / (end - start)
        else:
            assert series.mean(start, end) == 0.0

    def test_overwrite_reverting_to_previous_value_recompacts(self):
        series = StepSeries()
        series.record(0.0, 5.0)
        series.record(3.0, 8.0)
        series.record(3.0, 5.0)  # back to the previous segment's value
        assert series.times == [0.0]
        assert series.values == [5.0]
        assert series.integral(0.0, 10.0) == 50.0

    def test_recompaction_interacts_with_prefix_cache(self):
        series = StepSeries()
        series.record(0.0, 2.0)
        series.record(4.0, 6.0)
        assert series.integral(0.0, 4.0) == 8.0  # builds the cache
        series.record(4.0, 2.0)  # drops the breakpoint at t=4
        assert len(series) == 1
        assert series.integral(0.0, 10.0) == 20.0


# -- kernel replay determinism -----------------------------------------------


def _small_config():
    return ClusterConfig(nodes=2, slots_per_node=8, seed=97)


def _run(faults=None):
    jobs = generate_synthetic_jobs(count=40, distribution="normal", seed=11)
    kwargs = {}
    if faults is not None:
        kwargs = {"faults": faults, "fault_seed": 1311}
    return run(jobs, _small_config(), MCCK(), **kwargs)


class TestKernelReplay:
    def test_same_seed_same_outcome(self):
        first = _run()
        second = _run()
        assert first.makespan == second.makespan
        assert first.per_device_utilization == second.per_device_utilization
        assert first.job_results == second.job_results

    def test_same_seed_same_outcome_under_faults(self):
        profile = FaultProfile(
            device_fail_rate=8.0,
            device_reset_rate=4.0,
            node_crash_rate=2.0,
            job_crash_rate=8.0,
            reset_downtime_s=20.0,
            node_downtime_s=60.0,
        )
        first = _run(faults=profile)
        second = _run(faults=profile)
        assert first.faults_injected == second.faults_injected
        assert first.faults_injected > 0, "profile should actually inject"
        assert first.makespan == second.makespan
        assert first.per_device_utilization == second.per_device_utilization
        assert first.job_results == second.job_results
