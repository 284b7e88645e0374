"""Self-tests showing that the benchmark can fail.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
Each test runs one short iteration of ``lossy_incast``, the cheapest
workload.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._prepare_imports()

from workloads import Iteration  # noqa: E402

WORKLOAD = "lossy_incast"


def _bound(name: str) -> float:
    with open(run.BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def _value(result, name: str) -> float:
    return result["metrics"][name]["value"]


def test_slowed_switch_receive_trips_wall_bound():
    from repro.net.switch import Switch

    base = run.run_workload(WORKLOAD, 1, 1, traced=False)
    receive = Switch.receive

    def slow_receive(self, pkt, in_port):
        until = perf_counter() + 10e-6
        while perf_counter() < until:
            pass
        return receive(self, pkt, in_port)

    Switch.receive = slow_receive
    try:
        slowed = run.run_workload(WORKLOAD, 1, 1, traced=False)
    finally:
        Switch.receive = receive
    assert base["correct"] and slowed["correct"]
    assert _value(slowed, "wall_s") > _value(base, "wall_s") * (
        1 + _bound("wall_s"))
    assert _value(slowed, "goodput_MBps") < _value(base, "goodput_MBps") * (
        1 - _bound("goodput_MBps"))


def test_perturbed_reference_raises_failed_frac():
    reference = run.load_reference()
    clean = run.run_workload(WORKLOAD, run.DEFAULT_SEED, 1, traced=False,
                             reference=reference)
    assert clean["correct"] and clean["failed"] == 0

    perturbed = copy.deepcopy(reference)
    perturbed[WORKLOAD]["0"]["flow2"]["fct_s"] *= 1 + 1e-9
    result = run.run_workload(WORKLOAD, run.DEFAULT_SEED, 1, traced=False,
                              reference=perturbed)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("flow2" in p and "reference" in p for p in result["problems"])


def _iteration(counts, outputs) -> Iteration:
    return Iteration(1.0, 1.0, ops={"a": 2, "b": 1}, failed={},
                     payload_bytes=1, outputs=outputs, counts=counts)


def test_determinism_check_fails_diverging_iterations():
    same = [_iteration({"x": 1}, {"a": 1.0, "b": 2.0}) for _ in range(2)]
    assert run.check(same, None) == []
    assert run._tally(same) == (6, 0)

    outputs = [_iteration({"x": 1}, {"a": 1.0, "b": 2.0}),
               _iteration({"x": 1}, {"a": 1.0, "b": 2.5})]
    assert run.check(outputs, None)
    assert run._tally(outputs) == (6, 1)

    counts = [_iteration({"x": 1}, {"a": 1.0, "b": 2.0}),
              _iteration({"x": 2}, {"a": 1.0, "b": 2.0})]
    assert run.check(counts, None)
    assert run._tally(counts) == (6, 3)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_refuses_to_run_without_the_simulator(tmp_path, trace):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
