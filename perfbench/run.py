"""Standing end-to-end benchmark of the simulator, with per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-mcck --seed 42 --seconds 40 --trace 0

One process runs one workload as a closed loop with a single client:
set up a cell, run it to completion, check its outcome, repeat, until
``--seconds`` of measuring are used (at least :data:`MIN_CELLS` cells).
Host time (set-up, cell) and simulated results (completed jobs) are
reported apart. Host times are medians over the run's cells, in
reference-host seconds (see ``calibrate.py``); the unscaled bands are in
the report.

``--trace 0`` reports the end-to-end metrics from untraced cells.
``--trace 1`` alternates untraced and traced cells and reports the
per-layer metrics: self time, calls and work counts for each layer
(see ``spans.py``), plus the tracing overhead.

Every cell's outcome digest is compared with the reference stored in
``references.json`` for that workload and seed; for a seed without one,
every cell of the run must agree with the first. An operation is one
simulated job driven to its terminal state; a job counts as failed when
it is left unfinished, or when its cell raised or its digest did not
match (then every job of the cell fails). Jobs that the simulated faults
make fail after their retries are a correct outcome, counted in
``jobs_completed_frac``, not in ``failed``.

The second-to-last stdout line is a report with the quartiles of every
timed metric, the host fingerprint, the reference used and the simulated
outcome (makespan, utilisation); the last line is the result. The exit
code is 0 only when every outcome checked out.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import noise

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SPAN_DIR = HERE / "out"

#: Cells a run measures at the least, whatever ``--seconds`` says.
MIN_CELLS = 3
#: Set-ups a run times at the least (extra ones are cheap and discarded).
MIN_SETUPS = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "cell_s": "s",
    "peak_rss_mb": "MB",
    "jobs_completed_frac": "frac",
}

PER_LAYER_UNITS = {
    "core.pack.calls": "count",
    "core.pack.s": "s",
    "core.pack.ms_p50": "ms",
    "core.pack.ms_ptail": "ms",
    "core.pack.ptail": "pct",
    "core.pack.samples": "count",
    "core.pack.items_mean": "count",
    "core.pack.cache_hit_frac": "frac",
    "core.knapsack.calls": "count",
    "core.knapsack.s": "s",
    "condor.classad.evals": "count",
    "condor.classad.s": "s",
    "condor.classad.match_frac": "frac",
    "condor.negotiator.cycles": "count",
    "condor.negotiator.self_s": "s",
    "condor.negotiator.cycle_ms_p50": "ms",
    "condor.negotiator.cycle_ms_ptail": "ms",
    "condor.negotiator.cycle_ptail": "pct",
    "condor.negotiator.cycle_samples": "count",
    "condor.schedd.calls": "count",
    "condor.schedd.s": "s",
    "condor.schedd.requeues": "count",
    "condor.recovery.wal_appends": "count",
    "condor.recovery.wal_s": "s",
    "condor.recovery.replayed": "count",
    "cosmic.calls": "count",
    "cosmic.s": "s",
    "cosmic.offloads_gated": "count",
    "phi.contention.calls": "count",
    "phi.contention.s": "s",
    "net.sends": "count",
    "net.send_s": "s",
    "net.retransmits": "count",
    "net.delivered_frac": "frac",
    "faults.injected": "count",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.us_per_event": "us",
    "workloads.generate_s": "s",
    "cluster.build_s": "s",
    "unattributed_s": "s",
    "traced_cell_s": "s",
    "trace_overhead_frac": "frac",
}

#: Per-layer time metric -> the span layer whose self time it reports.
SELF_TIME_METRICS = {
    "core.pack.s": "core.pack",
    "core.knapsack.s": "core.knapsack",
    "condor.classad.s": "condor.classad",
    "condor.negotiator.self_s": "condor.negotiator",
    "condor.schedd.s": "condor.schedd",
    "condor.recovery.wal_s": "condor.recovery",
    "cosmic.s": "cosmic",
    "phi.contention.s": "phi.contention",
    "net.send_s": "net",
    "sim.self_s": "sim",
    "unattributed_s": "cell",
}


class SetupError(Exception):
    """The checkout lacks the program the benchmark measures."""


def load_program() -> None:
    """Put this checkout's ``src/`` first on the path and import from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported repro from {repro.__file__}, not {package}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class OutcomeCheck:
    """Counts attempted and failed jobs against the expected digest."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.expected = reference["digest"] if reference else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outcome) -> None:
        self.attempted += outcome.jobs
        if self.expected is None:
            self.expected = outcome.digest
        if outcome.digest != self.expected:
            self.failed += outcome.jobs
            self.problems.append(
                f"digest {outcome.digest[:12]} != expected {self.expected[:12]} "
                f"(makespan {outcome.makespan_s!r}, "
                f"{outcome.completed}/{outcome.jobs} completed)"
            )
        elif outcome.unfinished:
            self.failed += outcome.unfinished
            self.problems.append(f"{outcome.unfinished} jobs left unfinished")

    def record_error(self, jobs: int, error: BaseException) -> None:
        self.attempted += jobs
        self.failed += jobs
        self.problems.append(f"cell raised {type(error).__name__}: {error}")

    @property
    def correct(self) -> bool:
        return not self.problems and self.attempted > 0


def fingerprint() -> dict:
    """Host and code identity, so a result can be traced to where it ran."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
    }


def _git_commit():
    """HEAD of the checkout read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool, references: dict):
    """Run cells of ``workload`` for ``seconds``; returns (result, report)."""
    import calibrate
    import cells
    import spans

    check = OutcomeCheck(references.get(workload.name, {}).get(str(seed)))
    # Timed sections as (perf_counter window, probe-clock seconds...),
    # scaled to reference-host seconds once every probe has run.
    setups: list[tuple] = []
    untraced: list[tuple] = []
    traced: list[tuple] = []
    last = None
    with calibrate.HostSpeed() as speed:
        tracer = spans.Tracer(clock=speed.clock)
        start = perf_counter()

        def timed_setup():
            gc.collect()
            began = perf_counter()
            cell = cells.setup(workload, seed, clock=speed.clock)
            setups.append(((began, perf_counter()), cell.generate_s, cell.build_s))
            return cell

        while True:
            run_traced = trace and len(untraced) > len(traced)
            try:
                cell = timed_setup()
                gc.collect()
                began, clock_began = perf_counter(), speed.clock()
                if run_traced:
                    with tracer:
                        outcome = tracer.cell(cells.run, cell)
                else:
                    outcome = cells.run(cell)
            except Exception as error:  # one failed cell fails the run
                traceback.print_exc(file=sys.stderr)
                check.record_error(workload.jobs, error)
                break
            window = (began, perf_counter())
            elapsed = speed.clock() - clock_began
            del cell
            check.record(outcome)
            last = outcome
            if run_traced:
                traced.append((
                    window,
                    _layer_cell(tracer, outcome),
                    tracer.durations_ms("core.pack"),
                    tracer.durations_ms("condor.negotiator"),
                ))
            else:
                untraced.append((window, elapsed))
            done = len(untraced) + len(traced)
            per_cell = (perf_counter() - start) / done
            enough = len(traced) > 0 if trace else done >= MIN_CELLS
            if enough and perf_counter() - start + per_cell > seconds:
                break
        if not check.problems:
            while len(setups) < MIN_SETUPS:
                timed_setup()

    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "host": fingerprint(),
        "reference": (
            "stored" if check.reference else "none: cells checked against the first"
        ),
        "digest": check.expected,
        "outcome": last and {
            "makespan_s": last.makespan_s,
            "core_util": last.core_util,
            "completed": last.completed,
            "jobs": last.jobs,
        },
        "problems": check.problems,
        "cells": {"untraced": len(untraced), "traced": len(traced)},
    }
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {},
    }
    if check.problems:
        return result, report

    samples: dict[str, list[float]] = defaultdict(list)
    for window, generate, build in setups:
        factor = speed.factor(*window)
        samples["setup_s"].append((generate + build) * factor)
        samples["setup_clock_s"].append(generate + build)
        samples["workloads.generate_s"].append(generate * factor)
        samples["cluster.build_s"].append(build * factor)
    for window, elapsed in untraced:
        samples["cell_s"].append(elapsed * speed.factor(*window))
        samples["cell_clock_s"].append(elapsed)
    samples["probe_s"] = [seconds for _at, seconds in speed.probes]
    report["bands"] = bands = {
        name: noise.band(values) for name, values in samples.items()
    }
    if trace:
        traced_cells = [
            _scaled(values, pack_ms, cycle_ms, speed.factor(*window))
            for window, values, pack_ms, cycle_ms in traced
        ]
        values = _per_layer(traced_cells, bands)
        units = PER_LAYER_UNITS
        print(_attribution_table(values), file=sys.stderr)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_tsv(SPAN_DIR / f"{workload.name}-seed{seed}.spans.tsv")
    else:
        values = {
            "setup_s": bands["setup_s"]["median"],
            "cell_s": bands["cell_s"]["median"],
            "peak_rss_mb": peak_rss_mb(),
            "jobs_completed_frac": last.completed / last.jobs,
        }
        units = END_TO_END_UNITS
    result["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    return result, report


def _layer_cell(tracer, outcome) -> dict:
    """Per-layer numbers of one traced cell, times in probe-clock seconds."""
    times = tracer.layer_times()
    calls = tracer.calls()
    counters = outcome.counters
    items = tracer.pack_items
    evals = calls["condor.classad"]
    attempts = counters["net.attempts"]
    values = {
        metric: times[layer] for metric, layer in SELF_TIME_METRICS.items()
    }
    values.update({
        "traced_cell_s": tracer.cell_seconds(),
        "core.pack.calls": calls["core.pack"],
        "core.pack.items_mean": sum(items) / len(items) if items else 0.0,
        "core.pack.cache_hit_frac": (
            tracer.pack_cache_hits / len(items) if items else 0.0
        ),
        "core.knapsack.calls": calls["core.knapsack"],
        "condor.classad.evals": evals,
        "condor.classad.match_frac": tracer.matches_true / evals if evals else 0.0,
        "condor.negotiator.cycles": outcome.negotiation_cycles,
        "condor.schedd.calls": calls["condor.schedd"],
        "condor.schedd.requeues": counters["condor.schedd.requeues"],
        "condor.recovery.wal_appends": counters["condor.recovery.wal_appends"],
        "condor.recovery.replayed": counters["condor.recovery.replayed"],
        "cosmic.calls": calls["cosmic"],
        "cosmic.offloads_gated": counters["cosmic.offloads_gated"],
        "phi.contention.calls": calls["phi.contention"],
        "net.sends": calls["net"],
        "net.retransmits": counters["net.retransmits"],
        "net.delivered_frac": (
            counters["net.delivered"] / attempts if attempts else 0.0
        ),
        "faults.injected": counters["faults.injected"],
        "sim.events": counters["sim.events"],
    })
    return values


def _scaled(values: dict, pack_ms, cycle_ms, factor: float):
    """A traced cell's numbers with every host time scaled by ``factor``."""
    values = dict(values)
    for metric in list(SELF_TIME_METRICS) + ["traced_cell_s"]:
        values[metric] *= factor
    events = values["sim.events"]
    values["sim.us_per_event"] = values["sim.self_s"] / events * 1e6 if events else 0.0
    return (
        values,
        [ms * factor for ms in pack_ms],
        [ms * factor for ms in cycle_ms],
    )


def _per_layer(traced_cells, bands) -> dict:
    """The per-layer metrics of the run's median traced cell.

    One cell, not a median per layer, so that the layer self times and
    ``unattributed_s`` sum exactly to ``traced_cell_s``. Counts repeat
    exactly from cell to cell (the digest check holds the simulated run
    fixed); the bands in the report give each time's spread, and the
    latency tails pool the spans of every traced cell.
    """
    cells = [values for values, _pack, _cycle in traced_cells]
    for metric in list(SELF_TIME_METRICS) + ["traced_cell_s"]:
        bands[metric] = noise.band([cell[metric] for cell in cells])
    ordered = sorted(cells, key=lambda cell: cell["traced_cell_s"])
    values = dict(ordered[(len(ordered) - 1) // 2])
    values["workloads.generate_s"] = bands["workloads.generate_s"]["median"]
    values["cluster.build_s"] = bands["cluster.build_s"]["median"]
    values["trace_overhead_frac"] = (
        bands["traced_cell_s"]["median"] / bands["cell_s"]["median"] - 1.0
    )
    for prefix, index in (("core.pack.", 1), ("condor.negotiator.cycle_", 2)):
        tail = noise.tail([ms for cell in traced_cells for ms in cell[index]])
        values[prefix + "ms_p50"] = tail["p50"]
        values[prefix + "ms_ptail"] = tail["value"]
        values[prefix + "ptail"] = tail["pct"]
        values[prefix + "samples"] = tail["n"]
    return values


def _attribution_table(values: dict) -> str:
    total = values["traced_cell_s"]
    rows = [f"{'layer self time':<28}{'s':>10}{'share':>9}"]
    for metric in SELF_TIME_METRICS:
        seconds = values[metric]
        rows.append(f"{metric:<28}{seconds:>10.4f}{seconds / total:>9.1%}")
    rows.append(f"{'traced_cell_s':<28}{total:>10.4f}")
    return "\n".join(rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except (SetupError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import cells

    workload = cells.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(cells.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    references = json.loads(REFERENCES.read_text())
    result, report = measure(
        workload, args.seed, args.seconds, bool(args.trace), references
    )
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
