"""Outside-in span tracing: wrap each layer's entry points, attribute time.

The traced run replaces a fixed set of functions in the library's
modules with timing wrappers for the duration of a ``with Tracer():``
block, and restores them on exit. Nothing in ``src/`` knows about it.
Each call records one span ``(layer, start, end, parent)`` in memory;
:meth:`Tracer.layer_times` turns a cell's spans into per-layer *self*
times (a span's duration minus the time its child spans cover), so the
layers plus the cell's own uncovered time sum to the cell's duration.

Where a layer is entered matters for reading the numbers:

* ``core.pack`` is ``DevicePacker.pack`` and ``core.knapsack`` the three
  solvers it calls, wrapped under the names ``repro.core.packer``
  imports. The scheduler's own queue walk runs inside sim events and so
  lands in ``sim``.
* ``condor.classad`` is ``symmetric_match`` as the negotiator imports
  it; ``condor.negotiator`` is ``Negotiator.negotiate_once``.
* ``sim`` is ``Environment.run``: its self time is the kernel plus every
  process body (startd, node, MPSS, fabric delivery) not wrapped here.
* ``net`` covers ``MessageFabric.send`` only; retransmits and deliveries
  run later as kernel events.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro.condor import negotiator as _negotiator
from repro.condor.negotiator import Negotiator
from repro.condor.recovery import JobQueueLog
from repro.condor.schedd import Schedd
from repro.core import packer as _packer
from repro.core.packer import DevicePacker
from repro.cosmic.middleware import Cosmic
from repro.net.fabric import MessageFabric
from repro.phi import contention as _contention
from repro.sim import Environment

#: The cell's root span; its self time is the unattributed remainder.
CELL = "cell"

#: Every traced layer, in report order.
LAYERS = (
    "core.pack",
    "core.knapsack",
    "condor.classad",
    "condor.negotiator",
    "condor.schedd",
    "condor.recovery",
    "cosmic",
    "phi.contention",
    "net",
    "sim",
)


def _targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    targets = [
        (_packer, name, "core.knapsack")
        for name in ("knapsack_1d", "knapsack_cardinality", "knapsack_thread_capped")
    ]
    targets += [
        (Negotiator, "negotiate_once", "condor.negotiator"),
        (Environment, "run", "sim"),
        (MessageFabric, "send", "net"),
    ]
    targets += [
        (Schedd, name, "condor.schedd")
        for name in sorted(vars(Schedd))
        if name == "pending" or name.startswith(("qedit", "mark_"))
    ]
    targets += [
        (JobQueueLog, name, "condor.recovery")
        for name in sorted(vars(JobQueueLog))
        if name.startswith("log_") or name == "checkpoint"
    ]
    targets += [
        (Cosmic, name, "cosmic")
        for name in ("admit_job", "release_job", "acquire", "release")
    ]
    targets += [
        (cls, "rate", "phi.contention")
        for cls in vars(_contention).values()
        if isinstance(cls, type)
        and cls.__module__ == _contention.__name__
        and "rate" in vars(cls)
    ]
    return targets


class Tracer:
    """Span recorder; a context manager that installs the wrappers."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: ``(layer, start, end, parent_index)``; ``None`` while open.
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        #: Per-call observations beside the spans.
        self.pack_items: list[int] = []
        self.pack_cache_hits = 0
        self.matches_true = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, name, layer in _targets():
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))
        self._saved.append((DevicePacker, "pack", DevicePacker.pack))
        DevicePacker.pack = self._wrap_pack(DevicePacker.pack)
        self._saved.append((_negotiator, "symmetric_match", _negotiator.symmetric_match))
        _negotiator.symmetric_match = self._wrap_match(_negotiator.symmetric_match)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (layer, start, clock(), parent)
                stack.pop()

        return traced

    def _wrap_pack(self, fn: Callable) -> Callable:
        traced = self._wrap("core.pack", fn)

        def pack(packer, jobs, *args, **kwargs):
            hits = packer.packing_cache_hits
            result = traced(packer, jobs, *args, **kwargs)
            self.pack_items.append(len(jobs))
            self.pack_cache_hits += packer.packing_cache_hits - hits
            return result

        return pack

    def _wrap_match(self, fn: Callable) -> Callable:
        traced = self._wrap("condor.classad", fn)

        def symmetric_match(*args, **kwargs):
            matched = traced(*args, **kwargs)
            if matched:
                self.matches_true += 1
            return matched

        return symmetric_match

    # -- recording -------------------------------------------------------

    def cell(self, fn: Callable, *args):
        """Call ``fn(*args)`` under a fresh root span named :data:`CELL`."""
        self.reset()
        return self._wrap(CELL, fn)(*args)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.pack_items.clear()
        self.pack_cache_hits = 0
        self.matches_true = 0

    # -- attribution -----------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Self seconds per layer; the :data:`CELL` entry is unattributed."""
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        times = dict.fromkeys((CELL,) + LAYERS, 0.0)
        for index, (layer, start, end, _parent) in enumerate(self.spans):
            times[layer] += (end - start) - covered[index]
        return times

    def calls(self) -> dict[str, int]:
        counts = dict.fromkeys(LAYERS, 0)
        for layer, *_ in self.spans:
            if layer != CELL:
                counts[layer] += 1
        return counts

    def durations_ms(self, layer: str) -> list[float]:
        """Wall duration of every span of ``layer``, in milliseconds."""
        return [
            (end - start) * 1e3
            for name, start, end, _parent in self.spans
            if name == layer
        ]

    def cell_seconds(self) -> float:
        layer, start, end, _parent = self.spans[0]
        assert layer == CELL
        return end - start

    def write_tsv(self, path) -> None:
        """Dump the spans: layer, start and end in µs from the cell start, parent."""
        origin = self.spans[0][1]
        with open(path, "w") as out:
            out.write("index\tlayer\tstart_us\tend_us\tparent\n")
            for index, (layer, start, end, parent) in enumerate(self.spans):
                out.write(
                    f"{index}\t{layer}\t{(start - origin) * 1e6:.3f}\t"
                    f"{(end - origin) * 1e6:.3f}\t{parent}\n"
                )
