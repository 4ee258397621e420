"""Smoke tests for the extension experiments (X1-X3, X7)."""

from repro.cluster import ClusterConfig
from repro.experiments import (
    ext_capacity,
    ext_multidevice,
    ext_oversubscription,
    ext_scale,
)

TINY = ClusterConfig(nodes=2)


class TestCapacitySweep:
    def test_run_and_render(self):
        result = ext_capacity.run(
            jobs=24, capacities_mb=(4096, 8192), config=TINY
        )
        assert len(result.makespans["MC"]) == 2
        assert len(result.makespans["MCCK"]) == 2
        text = ext_capacity.render(result)
        assert "4GB" in text and "8GB" in text

    def test_larger_cards_never_hurt_sharing_much(self):
        result = ext_capacity.run(
            jobs=30, capacities_mb=(4096, 16384), config=TINY
        )
        small, big = result.makespans["MCCK"]
        assert big <= 1.1 * small


class TestMultiDevice:
    def test_shapes_hold_total_cards(self):
        result = ext_multidevice.run(
            jobs=24, shapes=((2, 1), (1, 2)), config=TINY
        )
        assert len(result.makespans["MCC"]) == 2
        text = ext_multidevice.render(result)
        assert "2 nodes x 1 Phi" in text
        assert "1 nodes x 2 Phi" in text

    def test_consolidation_same_regime(self):
        result = ext_multidevice.run(
            jobs=30, shapes=((2, 1), (1, 2)), config=TINY
        )
        a, b = result.makespans["MCCK"]
        assert min(a, b) > 0
        assert max(a, b) < 2.0 * min(a, b)


class TestOversubscriptionCurve:
    def test_managed_within_budget_is_free(self):
        result = ext_oversubscription.run(ratios=(0.5, 1.0, 2.0),
                                          memory_demand_mb=(4096, 12288))
        assert result.slowdowns_managed[0] == 1.0
        assert result.slowdowns_managed[1] == 1.0
        assert result.slowdowns_managed[2] > 2.0

    def test_unmanaged_dominated_by_managed(self):
        result = ext_oversubscription.run(ratios=(1.0, 2.0),
                                          memory_demand_mb=(4096,))
        for u, m in zip(result.slowdowns_unmanaged, result.slowdowns_managed):
            assert u >= m

    def test_survival_degrades_past_capacity(self):
        result = ext_oversubscription.run(
            ratios=(1.0,), memory_demand_mb=(4096, 16384)
        )
        assert result.survival_rate[0] == 1.0
        assert result.survival_rate[1] < 1.0

    def test_render(self):
        result = ext_oversubscription.run(ratios=(1.0,),
                                          memory_demand_mb=(4096,))
        text = ext_oversubscription.render(result)
        assert "X3a" in text and "X3b" in text


class TestScaleSweep:
    def test_small_pool_row_matches_a_standalone_run(self):
        # The deterministic columns of the sweep's 8-node row equal a
        # plain 8-node run (the CI scale-smoke check at a tiny size).
        sweep = ext_scale.run(jobs=12, node_counts=(8, 16))
        alone = ext_scale.run(jobs=12, node_counts=(8,)).rows[0]
        assert [row["nodes"] for row in sweep.rows] == [8, 16]
        embedded = sweep.rows[0]
        for key in ("makespan", "completed", "cycles", "events"):
            assert embedded[key] == alone[key], key
        assert all(row["completed"] == 12 for row in sweep.rows)
        assert "X7" in ext_scale.render(sweep)
