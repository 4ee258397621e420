"""Regenerate ``references.json``: the outcome of each workload at each seed.

The references pin the simulated outcome a benchmark run must reproduce.
Regenerate them only in a change that means to alter simulated outcomes,
and say so in that change; a speed-up or a simplification must pass
against the references as they are.

Usage (from the repository root)::

    python3 perfbench/update_references.py --seeds 42 7
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 7])
    args = parser.parse_args(argv)
    run.load_program()
    import cells

    references = (
        json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    )
    for workload in cells.WORKLOADS.values():
        stored = references.setdefault(workload.name, {})
        for seed in args.seeds:
            outcome = cells.run(cells.setup(workload, seed))
            if outcome.unfinished:
                raise SystemExit(
                    f"{workload.name} seed {seed}: {outcome.unfinished} jobs "
                    "unfinished; not a valid reference"
                )
            stored[str(seed)] = outcome.summary()
            print(workload.name, seed, outcome.summary(), file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
