"""Unit + property tests for the 0-1 knapsack solvers."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Item,
    brute_force,
    knapsack_1d,
    knapsack_cardinality,
    knapsack_thread_capped,
)
from repro.core import knapsack as knapsack_module


def items_of(*triples):
    return [Item(weight=w, value=v, threads=t) for w, v, t in triples]


class TestItem:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": -1, "value": 1},
            {"weight": 1, "value": -1},
            {"weight": 1, "value": 1, "threads": -1},
        ],
    )
    def test_invalid_items_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Item(**kwargs)


class TestKnapsack1D:
    def test_empty_input(self):
        result = knapsack_1d([], 1000)
        assert result.indices == ()
        assert result.total_value == 0

    def test_zero_capacity(self):
        result = knapsack_1d(items_of((100, 1.0, 0)), 10, quantum=50)
        assert result.indices == ()

    def test_single_fitting_item(self):
        result = knapsack_1d(items_of((100, 1.0, 0)), 1000, quantum=50)
        assert result.indices == (0,)
        assert result.total_weight == 100

    def test_picks_best_subset(self):
        # Capacity 100: {60,40} with value 2.0 beats {90} with value 1.5.
        items = items_of((90, 1.5, 0), (60, 1.0, 0), (40, 1.0, 0))
        result = knapsack_1d(items, 100, quantum=10)
        assert result.indices == (1, 2)
        assert result.total_value == pytest.approx(2.0)

    def test_never_exceeds_capacity(self):
        # 70 MB quantizes up to 2x50 MB, so only one item fits in 150 MB
        # under the coarse quantum; the fine quantum packs two.
        items = items_of((70, 1.0, 0), (70, 1.0, 0), (70, 1.0, 0))
        coarse = knapsack_1d(items, 150, quantum=50)
        assert coarse.total_weight <= 150
        assert coarse.count == 1
        fine = knapsack_1d(items, 150, quantum=10)
        assert fine.total_weight <= 150
        assert fine.count == 2

    def test_quantization_rounds_up(self):
        # 51 MB quantizes to 2 units of 50: two such items need 200 MB.
        items = items_of((51, 1.0, 0), (51, 1.0, 0))
        result = knapsack_1d(items, 150, quantum=50)
        assert result.count == 1

    def test_zero_value_items_not_packed(self):
        result = knapsack_1d(items_of((50, 0.0, 0)), 1000, quantum=50)
        assert result.indices == ()

    def test_oversized_item_skipped(self):
        items = items_of((2000, 5.0, 0), (100, 1.0, 0))
        result = knapsack_1d(items, 1000, quantum=50)
        assert result.indices == (1,)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            knapsack_1d([], -1)
        with pytest.raises(ValueError):
            knapsack_1d([], 100, quantum=0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),  # weight in quanta
                st.floats(min_value=0, max_value=5, allow_nan=False),
            ),
            min_size=0,
            max_size=10,
        ),
        st.integers(min_value=0, max_value=15),
    )
    def test_matches_brute_force(self, raw, capacity_units):
        items = [Item(weight=w, value=round(v, 3)) for w, v in raw]
        capacity = float(capacity_units)
        dp = knapsack_1d(items, capacity, quantum=1.0)
        reference = brute_force(items, capacity)
        assert dp.total_value == pytest.approx(reference.total_value, abs=1e-6)
        assert dp.total_weight <= capacity


class TestKnapsackCardinality:
    def test_count_bound_respected(self):
        items = items_of(*[(10, 1.0, 0)] * 6)
        result = knapsack_cardinality(items, 1000, max_items=3, quantum=10)
        assert result.count == 3

    def test_zero_max_items(self):
        result = knapsack_cardinality(items_of((10, 1.0, 0)), 100, max_items=0)
        assert result.indices == ()

    def test_negative_max_items_rejected(self):
        with pytest.raises(ValueError):
            knapsack_cardinality([], 100, max_items=-1)

    def test_prefers_valuable_items_under_count_bound(self):
        items = items_of((10, 0.1, 0), (10, 5.0, 0), (10, 3.0, 0))
        result = knapsack_cardinality(items, 1000, max_items=2, quantum=10)
        assert result.indices == (1, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.floats(min_value=0, max_value=5, allow_nan=False),
            ),
            min_size=0,
            max_size=9,
        ),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=5),
    )
    def test_matches_brute_force(self, raw, capacity_units, max_items):
        items = [Item(weight=w, value=round(v, 3)) for w, v in raw]
        capacity = float(capacity_units)
        dp = knapsack_cardinality(items, capacity, max_items=max_items, quantum=1.0)
        reference = brute_force(items, capacity, max_items=max_items)
        assert dp.total_value == pytest.approx(reference.total_value, abs=1e-6)
        assert dp.count <= max_items
        assert dp.total_weight <= capacity


class TestKnapsackThreadCapped:
    def test_thread_budget_respected(self):
        items = items_of((10, 1.0, 180), (10, 1.0, 180), (10, 1.0, 60))
        result = knapsack_thread_capped(items, 1000, thread_capacity=240, quantum=10)
        assert result.total_threads <= 240
        # Best feasible: one 180 + one 60 (240 exactly).
        assert result.count == 2

    def test_paper_zero_value_rule(self):
        # Two 240-thread jobs can never co-pack under the cap.
        items = items_of((10, 0.5, 240), (10, 0.5, 240))
        result = knapsack_thread_capped(items, 1000, thread_capacity=240, quantum=10)
        assert result.count == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            knapsack_thread_capped([], 100, thread_capacity=0)
        with pytest.raises(ValueError):
            knapsack_thread_capped([], 100, thread_capacity=240, thread_quantum=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.floats(min_value=0, max_value=5, allow_nan=False),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=0,
            max_size=9,
        ),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_brute_force(self, raw, capacity_units, thread_units):
        items = [Item(weight=w, value=round(v, 3), threads=t) for w, v, t in raw]
        capacity = float(capacity_units)
        thread_capacity = thread_units
        dp = knapsack_thread_capped(
            items, capacity, thread_capacity=thread_capacity,
            quantum=1.0, thread_quantum=1,
        )
        reference = brute_force(items, capacity, thread_capacity=thread_capacity)
        assert dp.total_value == pytest.approx(reference.total_value, abs=1e-6)
        assert dp.total_threads <= thread_capacity
        assert dp.total_weight <= capacity


class TestBruteForce:
    def test_too_many_items_rejected(self):
        with pytest.raises(ValueError):
            brute_force([Item(1, 1)] * 21, 100)

    def test_empty_set_feasible(self):
        result = brute_force([], 10)
        assert result.indices == ()


class TestQuantizationGrid:
    """The ceil-weights / floor-capacity inconsistency (regression).

    The seed paired ceil-quantized weights with a floor-quantized
    capacity, so an item that exactly fits was unpackable whenever the
    capacity was not a quantum multiple.
    """

    def test_exact_fit_item_packable(self):
        # ISSUE example: item = capacity = 75 MB, quantum = 50.
        result = knapsack_1d([Item(75, 1.0)], 75, quantum=50)
        assert result.indices == (0,)

    def test_exact_fit_under_all_solvers(self):
        items = [Item(75, 1.0, threads=8)]
        assert knapsack_1d(items, 75, quantum=50).indices == (0,)
        assert knapsack_cardinality(items, 75, 4, quantum=50).indices == (0,)
        capped = knapsack_thread_capped(items, 75, 240, quantum=50)
        assert capped.indices == (0,)

    def test_partial_quantum_never_admits_overweight(self):
        # Capacity 55, quantum 50: floor grid W=1. Two 30 MB items would
        # be overweight (60 > 55) and must not both pack.
        result = knapsack_1d([Item(30, 1.0), Item(30, 1.0)], 55, quantum=50)
        assert result.count == 1
        assert result.total_weight <= 55

    def test_sub_quantum_capacity_packs_one_fitting_item(self):
        # Capacity 40 < quantum 50: exactly one fitting item may pack.
        items = [Item(30, 1.0), Item(30, 2.0), Item(45, 5.0)]
        result = knapsack_1d(items, 40, quantum=50)
        assert result.indices == (1,)  # best single fitting item

    def test_thread_grid_exact_fit(self):
        # 3 threads under a thread quantum of 4 with budget 3: the old
        # floor/ceil mismatch excluded the job outright.
        items = [Item(10, 1.0, threads=3)]
        result = knapsack_thread_capped(
            items, 1000, thread_capacity=3, quantum=10, thread_quantum=4
        )
        assert result.indices == (0,)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=12, allow_nan=False),
                st.floats(min_value=0, max_value=5, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=0, max_value=15, allow_nan=False),
        st.floats(min_value=0.3, max_value=7, allow_nan=False),
    )
    def test_feasible_and_single_fit(self, raw, capacity, quantum):
        """Arbitrary (non-grid) weights: never overweight, and any item
        that truly fits is packable alone."""
        items = [Item(weight=w, value=round(v, 3)) for w, v in raw]
        result = knapsack_1d(items, capacity, quantum=quantum)
        assert result.total_weight <= capacity + 1e-9
        for item in items:
            if item.weight <= capacity and item.value > 0:
                alone = knapsack_1d([item], capacity, quantum=quantum)
                assert alone.indices == (0,)


class TestPropertyCrossCheck:
    """All three solvers vs brute_force on quantum-grid weights with
    non-multiple capacities, zero-weight / zero-value items included."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),  # weight in quanta
                st.floats(min_value=0, max_value=5, allow_nan=False),
                st.integers(min_value=0, max_value=3),  # threads in quanta
            ),
            min_size=0,
            max_size=9,
        ),
        st.floats(min_value=0, max_value=12, allow_nan=False),  # non-multiple
        st.floats(min_value=0.5, max_value=3, allow_nan=False),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=4),
    )
    def test_all_solvers_match_brute_force(
        self, raw, capacity_units, quantum, max_items, thread_units, thread_quantum
    ):
        # Weights/threads on the quantum grid keep the DP exact even when
        # the capacities are not grid multiples. Snapping the capacity to
        # 6 decimals keeps it off the float knife-edge: it is either an
        # exact grid multiple (where an exact-fit set's float sum can
        # exceed `capacity_units * quantum` by an ulp — absorbed by the
        # reference's fit_tolerance) or at least 1e-6 quanta away from
        # any feasibility boundary, where both solvers agree exactly.
        capacity_units = round(capacity_units, 6)
        items = [
            Item(
                weight=w * quantum,
                value=round(v, 3),
                threads=t * thread_quantum,
            )
            for w, v, t in raw
        ]
        capacity = capacity_units * quantum
        thread_capacity = thread_units * thread_quantum

        plain = knapsack_1d(items, capacity, quantum=quantum)
        reference = brute_force(items, capacity, fit_tolerance=1e-9)
        assert plain.total_value == pytest.approx(
            reference.total_value, abs=1e-6
        )
        assert plain.total_weight <= capacity + 1e-9

        card = knapsack_cardinality(
            items, capacity, max_items=max_items, quantum=quantum
        )
        reference = brute_force(
            items, capacity, max_items=max_items, fit_tolerance=1e-9
        )
        assert card.total_value == pytest.approx(
            reference.total_value, abs=1e-6
        )
        assert card.count <= max_items
        assert card.total_weight <= capacity + 1e-9

        capped = knapsack_thread_capped(
            items,
            capacity,
            thread_capacity=thread_capacity,
            quantum=quantum,
            thread_quantum=thread_quantum,
        )
        reference = brute_force(
            items, capacity, thread_capacity=thread_capacity,
            fit_tolerance=1e-9,
        )
        assert capped.total_value == pytest.approx(
            reference.total_value, abs=1e-6
        )
        assert capped.total_threads <= thread_capacity
        assert capped.total_weight <= capacity + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.floats(min_value=0, max_value=5, allow_nan=False),
                st.integers(min_value=0, max_value=8),
            ),
            min_size=0,
            max_size=9,
        ),
        st.integers(min_value=0, max_value=12),
    )
    def test_unconstrained_dimensions_agree_with_1d(self, raw, capacity_units):
        """A slack count bound / thread budget must not change the optimum."""
        items = [Item(weight=w, value=round(v, 3), threads=t) for w, v, t in raw]
        capacity = float(capacity_units)
        plain = knapsack_1d(items, capacity, quantum=1.0)
        card = knapsack_cardinality(
            items, capacity, max_items=len(items), quantum=1.0
        )
        capped = knapsack_thread_capped(
            items, capacity, thread_capacity=1000, quantum=1.0, thread_quantum=1
        )
        assert card.total_value == pytest.approx(plain.total_value, abs=1e-6)
        assert capped.total_value == pytest.approx(plain.total_value, abs=1e-6)


def _solve_both_paths(solve):
    """Run ``solve`` on the class-profile path and on the forced per-item
    path; also return the class plans the first run made (``None`` = the
    exactness guard fell back)."""
    plans = []
    original = knapsack_module._class_plan

    def spy(*args):
        plan = original(*args)
        plans.append(plan)
        return plan

    with mock.patch.object(knapsack_module, "_class_plan", spy):
        by_class = solve()
    with mock.patch.object(knapsack_module, "_class_plan", lambda *args: None):
        by_item = solve()
    return by_class, by_item, plans


# A few (weight quanta, value in sixteenths, thread quanta) classes, drawn
# from many times: the heavy duplication the class path exists for.
_palette = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=32),
        st.integers(min_value=0, max_value=4),
    ),
    min_size=1,
    max_size=4,
)


class TestClassRangeProfiles:
    """Range profiles by equivalence class must make the same decisions as
    the per-item DP: identical indices, not just an equal optimum."""

    @settings(max_examples=150, deadline=None)
    @given(
        _palette,
        st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=40),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=12),
    )
    # A zero-weight class is saturated only when its threads run out.
    @example([(0, 1, 2), (0, 0, 0), (0, 1, 1)], [0, 0, 0, 0, 2], 0, 3)
    def test_thread_capped_indices_identical(
        self, palette, picks, capacity_units, thread_units
    ):
        items = [
            Item(weight=w * 50.0, value=v / 16, threads=t * 4)
            for w, v, t in (palette[p % len(palette)] for p in picks)
        ]
        by_class, by_item, plans = _solve_both_paths(
            lambda: knapsack_thread_capped(
                items, capacity_units * 50.0, thread_capacity=thread_units * 4
            )
        )
        assert by_class.indices == by_item.indices
        assert None not in plans

    @settings(max_examples=150, deadline=None)
    @given(
        _palette,
        st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=40),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=1, max_value=10),
    )
    def test_cardinality_indices_identical(
        self, palette, picks, capacity_units, max_items
    ):
        items = [
            Item(weight=w * 50.0, value=v / 16)
            for w, v, _ in (palette[p % len(palette)] for p in picks)
        ]
        by_class, by_item, plans = _solve_both_paths(
            lambda: knapsack_cardinality(
                items, capacity_units * 50.0, max_items=max_items
            )
        )
        assert by_class.indices == by_item.indices
        assert None not in plans

    def test_solo_floored_class_stays_on_class_path(self):
        # Table-I threads under the 240-thread cap: Eq. 1 gives 60 -> 15/16
        # and 180 -> 7/16 (dyadic); the floored 240-thread jobs are worth
        # 0.05, which no float sum holds exactly — but they can never
        # share a card with another job, so the guard need not count them.
        mix = [(1000.0, 15 / 16, 60), (1500.0, 7 / 16, 180), (500.0, 0.05, 240)]
        items = [Item(*mix[i % 3]) for i in range(30)]
        by_class, by_item, plans = _solve_both_paths(
            lambda: knapsack_thread_capped(items, 8192.0, thread_capacity=240)
        )
        assert by_class.indices == by_item.indices
        assert by_class.count > 0
        assert len(plans) == 1 and plans[0] is not None

    def test_non_dyadic_values_fall_back(self):
        # 0.1 and 0.3 are not sums of powers of two, and both classes can
        # share the card, so a class-path sum could round differently.
        mix = [(500.0, 0.1, 4), (700.0, 0.3, 8)]
        items = [Item(*mix[i % 2]) for i in range(20)]
        by_class, by_item, plans = _solve_both_paths(
            lambda: knapsack_thread_capped(items, 4000.0, thread_capacity=240)
        )
        assert by_class.indices == by_item.indices
        assert plans == [None]
