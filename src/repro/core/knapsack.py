"""0-1 knapsack solvers for coprocessor packing.

The paper models every Xeon Phi as a knapsack whose capacity is the
card's physical memory, packs jobs (items, weight = declared memory)
with the standard dynamic-programming method, and exploits the fact that
memory requests quantize well: "if jobs can request memory in increments
of 50 MB, then w is 8GB/50MB = 160", making the DP effectively linear in
the number of jobs (§IV-C).

Three exact solvers are provided:

* :func:`knapsack_1d` — the paper's plain memory-capacity DP;
* :func:`knapsack_cardinality` — memory x item-count DP, used to respect
  a node's host-slot bound (one job per Condor slot);
* :func:`knapsack_thread_capped` — memory x thread DP, realizing the
  paper's "knapsack value is zero when total threads exceed hardware"
  rule as a hard second dimension;

plus :func:`brute_force` for property-testing the DPs on small inputs.

Memory model
------------
The solvers recover the chosen subset with Hirschberg-style
divide-and-conquer backtracking instead of a dense ``n x W (x K)``
``take`` tensor: each recursion level runs value-only forward DPs over
both item halves, finds the capacity split between them, and recurses.
The geometric shrinking of the halves keeps total work at ~2x a single
forward DP (still O(n·W) / O(n·W·K)), while live memory drops from
O(n·W·K) to O(W·K·log n) — independent of the queue length, which is
what lets the Fig. 4 hot path repack against 10k–100k pending jobs.

Class range profiles
--------------------
The 2-D solvers compute a range's value profile per equivalence class:
items with equal (quantized weight, quantized threads or count, value)
are counted in the range, and each class costs one 0-1 update per
binary-split pseudo-item (1, 2, 4, … copies) instead of one per item.
Classes dominated by a class whose every fitting copy is in the range
are skipped. Table-I jobs fall into a handful of classes, so a Table II
MCCK cell runs about 50 times fewer DP updates. The split tree, the
first-index argmax and the closed forms are unchanged, so the decisions
are too and no mapping from classes back to items is needed. (Among
equal items the D&C takes the *last* members of a partly taken class:
the first-index argmax hands ties the smallest left capacity. All 867
such classes in the seed-42 Table II MCCK solves do.) The profiles are
bitwise those of the per-item DP only when every sum the DP forms is
exact in float64, so each solve is guarded: values of classes that can
share a feasible set (all but the *solo* ones, ``w + min w > W`` or
``k + min k > K``) must be dyadic enough that their usable total times
the largest denominator stays below 2**52. The 0.05-floored 240-thread
jobs are solo under a 240-thread cap. A solve that fails the guard runs
the per-item DP.

Quantization
------------
Weights and capacity are quantized on a *consistent* grid: weights round
up (``ceil``) and the capacity rounds down, but an item whose true
weight fits the true capacity while straddling the capacity's partial
trailing quantum is clamped to the quantized capacity. Such an item
occupies ``(quantum·W, capacity]``, so nothing but zero-weight items can
truly share the knapsack with it — clamping keeps it packable alone
without ever admitting an overweight packing. (Previously an item with
``weight == capacity`` was silently unpackable whenever the capacity was
not a quantum multiple.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..sim import profile as _profile

#: The paper's memory quantum: "increments of 50MB".
DEFAULT_QUANTUM_MB = 50.0

_TIE_EPS = 1e-12


@dataclass(frozen=True)
class Item:
    """One packable job: declared memory (MB), value, declared threads."""

    weight: float
    value: float
    threads: int = 0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.value < 0:
            raise ValueError("value must be non-negative")
        if self.threads < 0:
            raise ValueError("threads must be non-negative")


@dataclass(frozen=True)
class PackResult:
    """Solution of one knapsack: chosen item indices and totals."""

    indices: tuple[int, ...]
    total_value: float
    total_weight: float
    total_threads: int

    @property
    def count(self) -> int:
        return len(self.indices)


def _quantize(weight: float, quantum: float) -> int:
    """Conservative (round-up) quantization of a weight."""
    return int(math.ceil(weight / quantum - 1e-12))


def _consistent_grid(
    raw: Sequence[float], capacity: float, quantum: float
) -> tuple[int, list[int]]:
    """Quantize ``capacity`` and per-item weights on one grid.

    Returns ``(W, weights)`` such that

    * any item with true weight <= capacity gets a quantized weight <= W
      (it stays packable alone), and
    * any packing feasible in quantized arithmetic is feasible in true
      weights (never overweight).

    Items that cannot fit even alone get weight ``W + 1``.
    """
    W = int(math.floor(capacity / quantum + 1e-12))
    weights: list[int] = []
    if W == 0:
        # Sub-quantum capacity: any two fitting positive-weight items may
        # still be truly overweight, so admit at most one at a time.
        W = 1 if capacity > 0 else 0
        for w in raw:
            if w <= 0:
                weights.append(0)
            elif w <= capacity:
                weights.append(1)
            else:
                weights.append(W + 1)
        return W, weights
    if len(raw) >= 32:
        # Vectorized quantization for large queues. np.ceil on float64
        # performs the identical IEEE operation to math.ceil, so the
        # result matches the scalar path bit for bit.
        arr = np.asarray(raw, dtype=float)
        q = np.ceil(arr / quantum - 1e-12).astype(np.int64)
        q[(q > W) & (arr <= capacity)] = W
        return W, q.tolist()
    for w in raw:
        q = _quantize(w, quantum)
        if q > W and w <= capacity:
            # Exact fit inside the capacity's partial trailing quantum:
            # the item occupies (quantum*W, capacity], so only zero-weight
            # items can truly join it — clamping to W is overweight-safe.
            q = W
        weights.append(q)
    return W, weights


def _result(items: Sequence[Item], chosen: list[int]) -> PackResult:
    chosen_sorted = tuple(sorted(chosen))
    return PackResult(
        indices=chosen_sorted,
        total_value=sum(items[i].value for i in chosen_sorted),
        total_weight=sum(items[i].weight for i in chosen_sorted),
        total_threads=sum(items[i].threads for i in chosen_sorted),
    )


# -- value-only forward DPs (no take tensors) --------------------------------


def _dp_values_1d(
    weights: Sequence[int], values: Sequence[float], lo: int, hi: int, W: int
) -> np.ndarray:
    """Best value of items[lo:hi] at every capacity 0..W ("at most" semantics)."""
    dp = np.zeros(W + 1)
    if hi - lo == 1:
        # Single item: the DP profile is a step function — fill directly
        # instead of paying the generic add/maximum pair.
        w, v = weights[lo], values[lo]
        if v > 0 and w <= W:
            dp[w:] = v
        return dp
    if hi - lo == 2:
        # Two items: three plateau fills reproduce the generic loop's
        # cell values exactly (va + vb dominates both single values, and
        # the sums are computed by the same float additions).
        wa, va = weights[lo], values[lo]
        wb, vb = weights[lo + 1], values[lo + 1]
        fa = va > 0 and wa <= W
        fb = vb > 0 and wb <= W
        if fa:
            dp[wa:] = va
        if fb:
            if fa:
                np.maximum(dp[wb:], vb, out=dp[wb:])
                if wa + wb <= W:
                    dp[wa + wb :] = va + vb
            else:
                dp[wb:] = vb
        return dp
    for i in range(lo, hi):
        w, v = weights[i], values[i]
        if w > W or v <= 0:
            continue
        if w == 0:
            dp += v
        else:
            # The addition materializes a temp from the pre-update dp, so
            # the in-place maximum keeps 0-1 (not unbounded) semantics.
            np.maximum(dp[w:], dp[: W + 1 - w] + v, out=dp[w:])
    return dp


def _dp_values_2d(
    weights: Sequence[int],
    costs: Sequence[int],
    values: Sequence[float],
    lo: int,
    hi: int,
    W: int,
    K: int,
    plan: Optional[tuple[np.ndarray, list]],
) -> np.ndarray:
    """2-D variant: second dimension is item count or quantized threads.

    With a class ``plan`` (see :func:`_class_plan`) ranges of three or
    more items are profiled per class instead of per item.
    """
    dp = np.zeros((W + 1, K + 1))
    if hi - lo == 1:
        w, k, v = weights[lo], costs[lo], values[lo]
        if v > 0 and w <= W and k <= K:
            dp[w:, k:] = v
        return dp
    if hi - lo == 2:
        # Two-item plateau fills; see _dp_values_1d.
        wa, ka, va = weights[lo], costs[lo], values[lo]
        wb, kb, vb = weights[lo + 1], costs[lo + 1], values[lo + 1]
        fa = va > 0 and wa <= W and ka <= K
        fb = vb > 0 and wb <= W and kb <= K
        if fa:
            dp[wa:, ka:] = va
        if fb:
            if fa:
                np.maximum(dp[wb:, kb:], vb, out=dp[wb:, kb:])
                if wa + wb <= W and ka + kb <= K:
                    dp[wa + wb :, ka + kb :] = va + vb
            else:
                dp[wb:, kb:] = vb
        return dp
    if plan is not None:
        ids, classes = plan
        counts = np.bincount(ids[lo:hi], minlength=len(classes) + 1).tolist()
        present = []
        saturated = []
        for (w, k, v), n in zip(classes, counts):
            if not n:
                continue
            fit = _copies_that_fit(w, k, W, K)
            if fit:
                present.append((w, k, v, min(n, fit)))
                if n >= fit:
                    saturated.append((w, k, v))
        # Skip the classes a saturated class strictly dominates.
        kept = []
        for entry in present:
            w, k, v, _ = entry
            for a, b, c in saturated:
                if a <= w and b <= k and c >= v and (a < w or b < k or c > v):
                    break
            else:
                kept.append(entry)
        if not kept:
            return dp
        # Into the all-zero profile, j copies of the first class are worth
        # j * v from (j * w, j * k) on: a staircase of plain fills (j * v
        # is exact by the guard below).
        w, k, v, n = kept[0]
        for j in range(1, n + 1):
            dp[j * w :, j * k :] = j * v
        for w, k, v, n in kept[1:]:
            # Binary splitting: pseudo-items of 1, 2, 4, ... copies reach
            # every copy count 0..n with one 0-1 update each.
            size = 1
            while n > 0:
                take = size if size < n else n
                _dp_update_2d(dp, take * w, take * k, take * v, W, K)
                n -= take
                size *= 2
        return dp
    for i in range(lo, hi):
        w, k, v = weights[i], costs[i], values[i]
        if w > W or k > K or v <= 0:
            continue
        _dp_update_2d(dp, w, k, v, W, K)
    return dp


def _copies_that_fit(w: int, k: int, W: int, K: int) -> float:
    """Copies of a (w, k) item that fit capacity (W, K); inf if w = k = 0."""
    return min(W // w if w else math.inf, K // k if k else math.inf)


def _dp_update_2d(dp: np.ndarray, w: int, k: int, v: float, W: int, K: int) -> None:
    """One 0-1 item update of a 2-D value profile, in place."""
    if w == 0 and k == 0:
        dp += v
    else:
        # The addition materializes a temp from the pre-update dp, so the
        # in-place maximum keeps 0-1 (not unbounded) semantics.
        tail = dp[w:, k:]
        np.maximum(tail, dp[: W + 1 - w, : K + 1 - k] + v, out=tail)


# -- equivalence-class range profiles ----------------------------------------
#
# A range's value profile is the best total value of a subset of its
# items at every capacity, so it depends only on the multiset of items in
# the range. Jobs cluster on a few (quantized MB, quantized threads,
# value) classes, so _dp_values_2d counts each class's items in the range
# and runs one 0-1 update per binary-split pseudo-item (1, 2, 4, ...
# copies) instead of one per item. Counts are clamped to the copies that
# can fit the range's capacity, min(count, W // w, K // k).
#
# A class whose count reaches that clamp is *saturated*: no packing
# within the capacity can use more copies than the range holds. Then a
# class it dominates (weight and cost no smaller, value no larger) adds
# nothing to the profile, because every copy of the dominated class in a
# packing can swap for an unused saturated copy without losing value or
# feasibility. Such classes are skipped; in Table-I mixes they are most
# of the classes in a range.
#
# The two update orders form different float sums, so the profiles are
# bitwise identical only when every sum the DP can form is exact. A
# *solo* class (w + minw > W or k + mink > K) never shares a feasible set
# with another positive item: its value is only ever added to a zero cell
# and needs no check (this keeps the 0.05-floored 240-thread jobs of the
# thread-capped DP on the class path). Every other sum is a multiple of
# 1/D, D the largest power-of-two denominator among the non-solo values,
# and at most their usable total, so it is exact when that total times D
# stays below 2**52. A solve failing the check runs the per-item DP.


def _class_plan(
    weights: Sequence[int],
    costs: Sequence[int],
    values: Sequence[float],
    W: int,
    K: int,
    minw: int,
    mink: int,
) -> Optional[tuple[np.ndarray, list[tuple[int, int, float]]]]:
    """Group a 2-D solve's items into classes, or ``None`` if inexact.

    Returns ``(ids, classes)``: ``classes[c]`` is ``(w, k, v)``
    and ``ids[i]`` is item i's class, or ``len(classes)`` for an item no
    DP update ever adds (zero value or unfittable).
    """
    keys = list(zip(weights, costs, values))
    slot: dict[tuple[int, int, float], int] = {}
    classes: list[tuple[int, int, float]] = []
    for key in dict.fromkeys(keys):
        w, k, v = key
        if v <= 0 or w > W or k > K:
            slot[key] = -1
            continue
        if not math.isfinite(v):
            return None
        slot[key] = len(classes)
        classes.append(key)
    ids = np.array([slot[key] for key in keys], dtype=np.intp)
    ids[ids < 0] = len(classes)
    counts = np.bincount(ids, minlength=len(classes) + 1).tolist()
    exact = []
    for (w, k, v), usable in zip(classes, counts):
        if w + minw > W or k + mink > K:
            continue  # solo
        usable = min(usable, _copies_that_fit(w, k, W, K))
        exact.append((usable, *v.as_integer_ratio()))
    if exact:
        denom = max(den for _, _, den in exact)
        if sum(u * num * (denom // den) for u, num, den in exact) >= 2**52:
            return None
    return ids, classes


# -- divide-and-conquer reconstruction ---------------------------------------
#
# All-fit shortcut. At any recursion node, if the positive-value items in
# [lo, hi) *collectively* fit the residual capacity, the optimal subset
# is exactly those items (dropping one strictly loses its value; adding
# non-positive items never gains), and that is also precisely what the
# divide-and-conquer would return: the value profile over the positive
# items of a half only reaches its full-value plateau at capacities >=
# the half's total positive weight, so the first-index argmax split hands
# each half enough capacity for *all* its positive items and the
# induction closes at the leaves. Unfittable items carry quantized
# weight W + 1, which keeps any window containing one above the residual
# capacity — the shortcut can never admit them. Prefix sums over the
# positive-value items make the check O(1) per node.


def _positive_prefix(weights: Sequence[int], values: Sequence[float]) -> list[int]:
    """Prefix sums of quantized weight over positive-value items only."""
    prefix = [0] * (len(weights) + 1)
    total = 0
    for i, (w, v) in enumerate(zip(weights, values)):
        if v > 0:
            total += w
        prefix[i + 1] = total
    return prefix


def _min_positive(weights: Sequence[int], values: Sequence[float], default: int) -> int:
    """Smallest quantized weight among positive-value items.

    ``default`` (capacity + 1) is returned when no item has positive
    value, which makes the caller's none-fits prune always fire — the
    optimal subset of a window with no positive items is empty.
    """
    best = default
    for w, v in zip(weights, values):
        if v > 0 and w < best:
            best = w
    return best


def _backtrack_1d(
    weights: Sequence[int],
    values: Sequence[float],
    prefix_w: Sequence[int],
    minw: int,
    lo: int,
    hi: int,
    W: int,
    chosen: list[int],
) -> None:
    """Append the optimal subset of items[lo:hi] at capacity W to ``chosen``."""
    if lo >= hi or W < minw:
        # minw is the cheapest positive item anywhere, so no positive
        # item in this window can fit either — the subtree is empty.
        return
    if prefix_w[hi] - prefix_w[lo] <= W:
        chosen.extend(i for i in range(lo, hi) if values[i] > 0)
        return
    if hi - lo == 1:
        if values[lo] > 0 and weights[lo] <= W:
            chosen.append(lo)
        return
    if hi - lo == 2:
        # Closed form for a two-item node that failed the all-fit check
        # (so both together never fit): take the lone fitting item, or
        # the more valuable of the two; the argmax's first-index rule
        # resolves an exact value tie in favour of the *second* item
        # (index (0, …) wins the flat argmax). Mirrors the D&C exactly.
        a, b = lo, lo + 1
        fa = values[a] > 0 and weights[a] <= W
        fb = values[b] > 0 and weights[b] <= W
        if fa and (not fb or values[a] > values[b]):
            chosen.append(a)
        elif fb:
            chosen.append(b)
        return
    if hi - lo == 3:
        # Three-item node: find the D&C capacity split without arrays.
        # The combined profile left(m) + right(W - m) is piecewise
        # constant: the single-item left profile steps up at m = wa, and
        # the pair right profile steps down just past m = W - w for each
        # right-subset weight w. Every constant run starts at one of
        # those breakpoints, so evaluating only the breakpoints (in
        # ascending order) yields both the maximum and the argmax's
        # first flat index — exactly what the array argmax returns.
        wa, va = weights[lo], values[lo]
        wb, vb = weights[lo + 1], values[lo + 1]
        wc, vc = weights[lo + 2], values[lo + 2]
        pa = va > 0
        pb = vb > 0
        pc = vc > 0
        pair = vb + vc

        def _combined(m: int) -> float:
            cap = W - m
            best = 0.0
            if pb and wb <= cap:
                best = vb
            if pc and wc <= cap and vc > best:
                best = vc
            if pb and pc and wb + wc <= cap and pair > best:
                best = pair
            return va + best if (pa and wa <= m) else best

        cps = sorted(
            {
                p
                for p in (0, wa, W - wb + 1, W - wc + 1, W - wb - wc + 1)
                if 0 <= p <= W
            }
        )
        vals = [_combined(m) for m in cps]
        split = cps[vals.index(max(vals))]
        _backtrack_1d(weights, values, prefix_w, minw, lo, lo + 1, split, chosen)
        _backtrack_1d(
            weights, values, prefix_w, minw, lo + 1, hi, W - split, chosen
        )
        return
    mid = (lo + hi) // 2
    left = _dp_values_1d(weights, values, lo, mid, W)
    right = _dp_values_1d(weights, values, mid, hi, W)
    # Optimal split of the capacity between the halves ("at most"
    # semantics makes both profiles monotone, so one pass suffices).
    left += right[::-1]
    split = int(left.argmax())
    _backtrack_1d(weights, values, prefix_w, minw, lo, mid, split, chosen)
    _backtrack_1d(weights, values, prefix_w, minw, mid, hi, W - split, chosen)


def _backtrack_2d(
    weights: Sequence[int],
    costs: Sequence[int],
    values: Sequence[float],
    prefix_w: Sequence[int],
    prefix_k: Sequence[int],
    minw: int,
    mink: int,
    lo: int,
    hi: int,
    W: int,
    K: int,
    chosen: list[int],
    plan: Optional[tuple[np.ndarray, list]],
) -> None:
    if lo >= hi or W < minw or K < mink:
        # No positive item anywhere is cheap enough for this residual
        # capacity (in one of the dimensions), so the subtree is empty.
        return
    if (
        prefix_w[hi] - prefix_w[lo] <= W
        and prefix_k[hi] - prefix_k[lo] <= K
    ):
        chosen.extend(i for i in range(lo, hi) if values[i] > 0)
        return
    if hi - lo == 1:
        if values[lo] > 0 and weights[lo] <= W and costs[lo] <= K:
            chosen.append(lo)
        return
    if hi - lo == 2:
        # Two-item closed form (see _backtrack_1d); the all-fit check
        # already failed, so the pair can never be taken together.
        a, b = lo, lo + 1
        fa = values[a] > 0 and weights[a] <= W and costs[a] <= K
        fb = values[b] > 0 and weights[b] <= W and costs[b] <= K
        if fa and (not fb or values[a] > values[b]):
            chosen.append(a)
        elif fb:
            chosen.append(b)
        return
    if hi - lo == 3:
        # Three-item node without arrays (see _backtrack_1d): the
        # combined profile is constant on rectangles whose corners are
        # the step breakpoints of either half, so a lexicographic scan
        # of the breakpoint grid reproduces the array argmax exactly.
        wa, ka, va = weights[lo], costs[lo], values[lo]
        wb, kb, vb = weights[lo + 1], costs[lo + 1], values[lo + 1]
        wc, kc, vc = weights[lo + 2], costs[lo + 2], values[lo + 2]
        pa = va > 0
        pb = vb > 0
        pc = vc > 0
        pair = vb + vc

        def _combined(m: int, k: int) -> float:
            wcap = W - m
            kcap = K - k
            best = 0.0
            if pb and wb <= wcap and kb <= kcap:
                best = vb
            if pc and wc <= wcap and kc <= kcap and vc > best:
                best = vc
            if (
                pb
                and pc
                and wb + wc <= wcap
                and kb + kc <= kcap
                and pair > best
            ):
                best = pair
            return va + best if (pa and wa <= m and ka <= k) else best

        cps_m = sorted(
            {
                p
                for p in (0, wa, W - wb + 1, W - wc + 1, W - wb - wc + 1)
                if 0 <= p <= W
            }
        )
        cps_k = sorted(
            {
                p
                for p in (0, ka, K - kb + 1, K - kc + 1, K - kb - kc + 1)
                if 0 <= p <= K
            }
        )
        grid = [(_combined(m, k), m, k) for m in cps_m for k in cps_k]
        best_v = max(v for v, _, _ in grid)
        _, m, k = next(t for t in grid if t[0] == best_v)
        _backtrack_2d(
            weights, costs, values, prefix_w, prefix_k, minw, mink,
            lo, lo + 1, m, k, chosen, plan,
        )
        _backtrack_2d(
            weights, costs, values, prefix_w, prefix_k, minw, mink,
            lo + 1, hi, W - m, K - k, chosen, plan,
        )
        return
    mid = (lo + hi) // 2
    left = _dp_values_2d(weights, costs, values, lo, mid, W, K, plan)
    right = _dp_values_2d(weights, costs, values, mid, hi, W, K, plan)
    # Flipping both axes of a C-contiguous array reverses its flat
    # buffer, so the combine runs as a single 1-D strided add instead of
    # a 2-D reversed iteration (same element pairing, same additions).
    flat = left.reshape(-1)
    flat += right.reshape(-1)[::-1]
    m, k = divmod(int(flat.argmax()), K + 1)
    _backtrack_2d(
        weights, costs, values, prefix_w, prefix_k, minw, mink,
        lo, mid, m, k, chosen, plan,
    )
    _backtrack_2d(
        weights, costs, values, prefix_w, prefix_k, minw, mink,
        mid, hi, W - m, K - k, chosen, plan,
    )


def _solve_2d(
    items: Sequence[Item],
    weights: Sequence[int],
    costs: Sequence[int],
    W: int,
    K: int,
) -> PackResult:
    """Optimal subset under quantized weight W and second-dimension K."""
    n = len(items)
    values = [item.value for item in items]
    chosen: list[int] = []
    prefix_w = _positive_prefix(weights, values)
    prefix_k = _positive_prefix(costs, values)
    minw = _min_positive(weights, values, W + 1)
    mink = _min_positive(costs, values, K + 1)
    plan = None
    if (
        n > 3
        and W >= minw
        and K >= mink
        and (prefix_w[n] > W or prefix_k[n] > K)
    ):
        # The root neither prunes, packs everything nor takes a closed
        # form, so range profiles will run: plan them by class.
        plan = _class_plan(weights, costs, values, W, K, minw, mink)
        prof = _profile.ACTIVE
        if prof is not None:
            if plan is None:
                prof.fallback_solves += 1
            else:
                prof.class_solves += 1
                prof.class_items += n
                prof.classes += len(plan[1])
    _backtrack_2d(
        weights, costs, values, prefix_w, prefix_k, minw, mink,
        0, n, W, K, chosen, plan,
    )
    return _result(items, chosen)


# -- public solvers -----------------------------------------------------------


def knapsack_1d(
    items: Sequence[Item],
    capacity: float,
    quantum: float = DEFAULT_QUANTUM_MB,
) -> PackResult:
    """The paper's DP: maximize total value within the memory capacity.

    O(n * w) time with w = capacity / quantum (vectorized over the
    capacity axis with NumPy), O(w * log n) live memory.
    """
    _validate(capacity, quantum)
    if len(items) == 0:
        return _result(items, [])
    W, weights = _consistent_grid(
        [item.weight for item in items], capacity, quantum
    )
    values = [item.value for item in items]
    chosen: list[int] = []
    prefix_w = _positive_prefix(weights, values)
    minw = _min_positive(weights, values, W + 1)
    _backtrack_1d(weights, values, prefix_w, minw, 0, len(items), W, chosen)
    return _result(items, chosen)


def knapsack_cardinality(
    items: Sequence[Item],
    capacity: float,
    max_items: int,
    quantum: float = DEFAULT_QUANTUM_MB,
) -> PackResult:
    """Memory-capacity DP with a hard bound on the number of items.

    The extra dimension models the host-slot limit: a node can only run
    as many concurrent jobs as it has free Condor slots.
    """
    _validate(capacity, quantum)
    if max_items < 0:
        raise ValueError("max_items must be non-negative")
    n = len(items)
    K = min(max_items, n)
    if n == 0 or K == 0:
        return _result(items, [])
    W, weights = _consistent_grid(
        [item.weight for item in items], capacity, quantum
    )
    # Every item occupies one host slot.
    return _solve_2d(items, weights, [1] * n, W, K)


def knapsack_thread_capped(
    items: Sequence[Item],
    capacity: float,
    thread_capacity: int,
    quantum: float = DEFAULT_QUANTUM_MB,
    thread_quantum: int = 4,
) -> PackResult:
    """Memory x thread DP: packings exceeding the thread budget are
    infeasible (the literal reading of the paper's zero-value rule)."""
    _validate(capacity, quantum)
    if thread_capacity <= 0:
        raise ValueError("thread_capacity must be positive")
    if thread_quantum <= 0:
        raise ValueError("thread_quantum must be positive")
    n = len(items)
    if n == 0:
        return _result(items, [])
    W, weights = _consistent_grid(
        [item.weight for item in items], capacity, quantum
    )
    T, threads = _consistent_grid(
        [float(item.threads) for item in items],
        float(thread_capacity),
        float(thread_quantum),
    )
    return _solve_2d(items, weights, threads, W, T)


def brute_force(
    items: Sequence[Item],
    capacity: float,
    max_items: Optional[int] = None,
    thread_capacity: Optional[int] = None,
    fit_tolerance: float = 0.0,
) -> PackResult:
    """Exhaustive reference solver (exact weights, no quantization).

    Exponential — for tests on small instances only. ``fit_tolerance``
    admits sets overweight by at most that much: when weights are
    ``k * quantum`` floats, an exact-fit set's sum can exceed capacity
    by an ulp that the grid-exact DPs (correctly) never see.
    """
    n = len(items)
    if n > 20:
        raise ValueError("brute_force is limited to 20 items")
    best: Optional[PackResult] = None
    for mask in range(1 << n):
        chosen = [i for i in range(n) if mask >> i & 1]
        weight = sum(items[i].weight for i in chosen)
        if weight > capacity + fit_tolerance:
            continue
        if max_items is not None and len(chosen) > max_items:
            continue
        threads = sum(items[i].threads for i in chosen)
        if thread_capacity is not None and threads > thread_capacity:
            continue
        value = sum(items[i].value for i in chosen)
        if best is None or value > best.total_value + _TIE_EPS:
            best = PackResult(tuple(chosen), value, weight, threads)
    assert best is not None  # the empty set is always feasible
    return best


def _validate(capacity: float, quantum: float) -> None:
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    if quantum <= 0:
        raise ValueError("quantum must be positive")
