"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bcast_fattree --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds``, cycling
through ``DRAWS`` input draws made from the seed, and reports the
end-to-end metrics of BENCHMARK.json as medians over the iterations.
``--trace 1`` runs the first draw once untraced (exact per-layer
counts, set-up timers) and then traced (per-layer self time), and
reports the per-layer metrics.  ``--workload all`` runs every workload
in turn.

Every iteration is checked: receivers get each byte exactly once,
publishes complete, the invariant monitor stays clean, a repeated draw
computes the same outputs and counts, and on the default seed every
virtual-time output equals ``reference.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

#: The seed whose outputs ``reference.json`` pins.
DEFAULT_SEED = 0
#: Kept out of every tuning run; later claims must also hold on it.
HELD_OUT_SEED = 90_017
#: A run cycles through this many input draws made from its seed, so
#: its medians cover several draws of the workload, not one.
DRAWS = 4


def draw_seed(seed: int, draw: int) -> int:
    """The seed of one input draw; seeds never share a draw."""
    return seed * DRAWS + draw


def _prepare_imports() -> None:
    """Make the simulator importable from this checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: simulator sources not found under {SRC}")
    if not os.path.isfile(BENCHMARK):
        raise SystemExit(f"error: {BENCHMARK} not found")
    sys.path.insert(0, SRC)


def load_spec() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per section of BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def load_reference() -> Dict[str, Dict[str, object]]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def check(iterations, reference: Optional[Dict[str, object]]) -> List[str]:
    """Fail the operations whose outputs or counts differ from the first
    iteration of the same draw (same inputs, so they must not), or whose
    outputs differ from the reference; returns every failed check."""
    problems: List[str] = []
    firsts: Dict[int, object] = {}
    for n, it in enumerate(iterations):
        first = firsts.setdefault(it.draw, it)
        if it is not first and it.counts != first.counts:
            diff = sorted(k for k in it.counts
                          if it.counts[k] != first.counts.get(k))
            for key in it.ops:
                it.fail(key, f"iteration {n} counts differ: {diff}")
        want = None if reference is None else reference.get(str(it.draw), {})
        for key in it.ops:
            got = _canonical(it.outputs.get(key))
            if it is not first and got != _canonical(first.outputs.get(key)):
                it.fail(key, f"iteration {n} output differs from the "
                        "first run of its draw")
            if want is not None and got != _canonical(want.get(key)):
                it.fail(key, f"iteration {n} output differs from the "
                        "reference")
        problems.extend(it.problems)
    return problems


def _tally(iterations) -> Tuple[int, int]:
    attempted = sum(sum(it.ops.values()) for it in iterations)
    failed = sum(sum(it.failed.values()) for it in iterations)
    return attempted, failed


def _enough(start: float, runs: int, seconds: float) -> bool:
    """Stop before an iteration that would end past the budget."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / runs > seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int,
            seconds: float) -> Tuple[Dict[str, float], list]:
    """The untraced run: end-to-end metrics as medians."""
    from workloads import WORKLOADS, Phases

    run = WORKLOADS[workload]
    iterations = []
    start = perf_counter()
    while True:
        draw = len(iterations) % DRAWS
        gc.collect()
        it = run(draw_seed(seed, draw), Phases())
        it.draw = draw
        iterations.append(it)
        if _enough(start, len(iterations), seconds):
            break
    metrics = {
        "wall_s": statistics.median(it.wall_s for it in iterations),
        "setup_s": statistics.median(it.setup_s for it in iterations),
        "goodput_MBps": statistics.median(
            it.payload_bytes / it.wall_s / 1e6 for it in iterations),
        "peak_rss_MB": _peak_rss_mb(),
    }
    return metrics, iterations


def trace(workload: str, seed: int,
          seconds: float) -> Tuple[Dict[str, float], list]:
    """One untraced iteration for exact counts and set-up timers, then
    traced iterations for per-layer self time, all on the first draw."""
    from repro.apps.cluster import Cluster
    from repro.core.fabric import CepheusFabric
    from tracer import Stopwatch, Tracer
    from workloads import SCHEMES, WORKLOADS, Phases

    run = WORKLOADS[workload]
    start = perf_counter()
    gc.collect()
    with Stopwatch(((Cluster, "fat_tree_cluster", "topology.build_s"),
                    (CepheusFabric, "register_sync",
                     "fabric.register_s"))) as watch:
        base = run(draw_seed(seed, 0), Phases())
    iterations = [base]
    self_s: Dict[str, float] = {}
    walls: List[float] = []
    while True:
        gc.collect()
        with Tracer() as tracer:
            it = run(draw_seed(seed, 0), Phases(tracer))
        iterations.append(it)
        walls.append(it.wall_s)
        for name, value in tracer.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + value
        if _enough(start, len(iterations), seconds):
            break
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json"))

    n = len(walls)
    metrics: Dict[str, float] = dict(base.counts)
    metrics.update({name: total / n for name, total in self_s.items()})
    metrics.update(watch.totals)
    for scheme in SCHEMES:
        metrics[f"collectives.{scheme}.run_s"] = base.run_s.get(scheme, 0.0)
    traced_wall = sum(walls) / n
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.unattributed_s"] = traced_wall - sum(
        total / n for total in self_s.values())
    metrics["trace.overhead"] = traced_wall / base.wall_s
    return metrics, iterations


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 reference: Optional[Dict[str, Dict[str, object]]] = None
                 ) -> Dict[str, object]:
    """Run one workload; returns the result object printed last.

    ``reference`` defaults to ``reference.json`` on the default seed
    and to no reference on any other seed.
    """
    spec = load_spec()["per_layer" if traced else "end_to_end"]
    if reference is None and seed == DEFAULT_SEED:
        reference = load_reference()
    wl_reference = None if reference is None else reference[workload]
    metrics, iterations = (trace if traced else measure)(
        workload, seed, seconds)
    problems = check(iterations, wl_reference)
    attempted, failed = _tally(iterations)
    if set(metrics) != set(spec):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: produced "
            f"{sorted(set(metrics) ^ set(spec))}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name]}
                    for name in spec},
        "problems": problems,
    }


def _report(workload: str, result: Dict[str, object]) -> None:
    for problem in result["problems"][:20]:
        print(f"{workload}: FAILED {problem}", file=sys.stderr)
    print(f"# {workload}")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':42s} {frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")


def main(argv: Optional[List[str]] = None) -> int:
    _prepare_imports()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _report(name, result)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
