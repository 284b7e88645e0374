"""Record ``reference.json``: every workload's virtual-time outputs for
each input draw of the default seed, as the simulator computes them
now.

Run from the repository root: ``python3 perfbench/record_reference.py``.
Re-record only when a change is meant to alter what the simulator
computes; the benchmark fails any operation whose output on the
default seed differs from this file.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._prepare_imports()
    from workloads import WORKLOADS, Phases

    doc = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name, workload in sorted(WORKLOADS.items()):
        draws = doc["workloads"][name] = {}
        for draw in range(run.DRAWS):
            it = workload(run.draw_seed(run.DEFAULT_SEED, draw), Phases())
            if any(it.failed.values()):
                print(f"{name}: refusing to record a failing run: "
                      f"{it.problems}", file=sys.stderr)
                return 1
            draws[str(draw)] = it.outputs
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
