"""Deterministic chaos campaigns over the Cepheus fabric.

The reliability machinery of the paper (§III-D aggregation rules, §V-C
loss tolerance, §V-D failure handling) is exactly the code most likely
to rot silently: a subtle bug in feedback aggregation or a failure
repair path does not move a throughput number.  This module attacks it
the way Jepsen attacks databases — randomized failure schedules, run
under the :class:`~repro.check.InvariantMonitor`, with deterministic
seeds and a greedy shrinker that reduces any failing trial to a minimal
reproducer:

* a **schedule** is generated up front from a seeded RNG: a list of
  *incidents* (link cuts, switch black-holes, host disconnects, loss
  windows — each with a failure and a repair time) plus a per-message
  *source plan* (mid-run §III-E source switching);
* a **trial** is a pure function of (config, schedule): build a fresh
  cluster, register one multicast group, post the message sequence
  while the incidents fire, and record deliveries + invariant
  violations.  Two runs of the same trial are bit-for-bit identical;
* a **campaign** runs N trials through the shared campaign engine
  (:mod:`repro.harness.campaign`); every failing trial is shrunk by
  greedily dropping incidents and trailing messages while the failure
  persists, and the minimal schedule is dumped as a JSON reproducer
  that ``cepheus-repro chaos replay`` re-executes.

A ``mutate`` knob arms the :data:`repro.transport.qp.psn_tx_hook` fault
hook inside a trial, deliberately corrupting the protocol — the smoke
tests use it to prove the monitor (and the shrinker) actually detect
violations rather than vacuously passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import constants
from repro.check import InvariantMonitor
from repro.collectives import CepheusBcast
from repro.harness.campaign import (CampaignConfig, CampaignKind,
                                    build_cluster, enumerate_targets,
                                    install_incident, post_at_offset)
from repro.net.failures import FailureInjector
from repro.transport import qp as qp_state

__all__ = ["ChaosConfig", "Incident", "Schedule", "generate_schedule",
           "run_trial", "CHAOS"]


@dataclass(frozen=True)
class ChaosConfig(CampaignConfig):
    """Parameters of one chaos campaign (all trials share these)."""

    topo: str = "star"           # "star" | "fat_tree"
    hosts: int = 6               # star size / fat-tree hosts_limit
    k: int = 4                   # fat-tree arity
    messages: int = 3            # broadcasts per trial (sequential)
    msg_packets: int = 8         # packets per broadcast (size = n * MTU)
    incidents: int = 2           # failure incidents per trial
    horizon: float = 0.04        # virtual seconds of traffic per trial
    loss_rate: float = 0.0       # baseline random loss on every switch
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    deployment: str = "inline"   # accelerator style: inline | lookaside | source_routed
    mutate: Optional[str] = None  # "psn-skip" arms the PSN fault hook


@dataclass(frozen=True)
class Incident:
    """One failure + its repair.  ``target`` is a JSON-able address:

    * ``["link", switch_name, port]`` — a switch-to-switch link
    * ``["host", ip]`` — a host's access link
    * ``["switch", switch_name]`` — a whole-switch black hole
    * ``["loss", switch_name, rate]`` — a transient loss window
    """

    kind: str
    target: Tuple
    at: float
    repair_at: float

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "target": list(self.target),
                "at": self.at, "repair_at": self.repair_at}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Incident":
        return cls(kind=d["kind"], target=tuple(d["target"]),
                   at=d["at"], repair_at=d["repair_at"])


@dataclass(frozen=True)
class Schedule:
    """Everything a trial does besides the config: pure data, JSON-able.

    ``offsets[i]`` is the earliest start (relative to traffic start) of
    message *i*; the trial posts it at ``max(offset, previous message
    completion)``, which spreads the messages across the horizon so the
    incidents actually overlap transfers (and the idle windows between
    them, which stress posting into a severed fabric).
    """

    trial_seed: int
    sources: Tuple[int, ...]          # source host of message i
    offsets: Tuple[float, ...]        # earliest start of message i
    incidents: Tuple[Incident, ...]

    def to_dict(self) -> Dict[str, object]:
        return {"trial_seed": self.trial_seed,
                "sources": list(self.sources),
                "offsets": list(self.offsets),
                "incidents": [i.to_dict() for i in self.incidents]}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "Schedule":
        return cls(trial_seed=d["trial_seed"],
                   sources=tuple(d["sources"]),
                   offsets=tuple(d.get("offsets", [0.0] * len(d["sources"]))),
                   incidents=tuple(Incident.from_dict(i)
                                   for i in d["incidents"]))


# ---------------------------------------------------------------------------
# schedule generation
# ---------------------------------------------------------------------------

def generate_schedule(cfg: ChaosConfig, rng) -> Schedule:
    """Draw one randomized-but-reproducible trial schedule."""
    trial_seed = rng.randrange(1 << 31)
    # shape-only; state is discarded
    cluster = build_cluster(cfg, 0, cfg.deployment)
    hosts = cluster.topo.host_ips
    sources = tuple(rng.choice(hosts) for _ in range(cfg.messages))
    h = cfg.horizon
    # First message starts immediately; later ones spread over the same
    # window the incidents are drawn from, so failures land both mid-
    # transfer and in the idle gaps where the next post hits a dead
    # fabric.
    offsets = (0.0,) + tuple(sorted(
        round(rng.uniform(0.05, 0.55) * h, 9)
        for _ in range(cfg.messages - 1)))
    pool = enumerate_targets(cluster)
    n = min(cfg.incidents, len(pool))
    incidents = []
    for raw in rng.sample(pool, n):
        if raw[0] == "loss":
            raw = raw + (round(rng.uniform(0.05, 0.3), 4),)
        at = round(rng.uniform(0.05, 0.55) * h, 9)
        repair_at = round(at + rng.uniform(0.05, 0.2) * h, 9)
        incidents.append(Incident(kind=raw[0], target=raw,
                                  at=at, repair_at=repair_at))
    incidents.sort(key=lambda i: (i.at, i.target))
    return Schedule(trial_seed=trial_seed, sources=sources,
                    offsets=offsets, incidents=tuple(incidents))


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

def run_trial(cfg: ChaosConfig, schedule: Schedule,
              trial_index: int = 0,
              coverage=None) -> Dict[str, object]:
    """Execute one trial; returns a JSON-able, deterministic record.

    ``coverage`` (a :class:`repro.check.CoverageMap`) arms a
    :class:`repro.check.CoverageCollector` for the trial, keyed by the
    config's deployment — the fuzzer and the stage-coverage regression
    tests use it; plain campaigns skip the instrumentation cost.
    """
    cluster = build_cluster(cfg, schedule.trial_seed, cfg.deployment)
    sim = cluster.sim
    monitor = InvariantMonitor()
    monitor.attach_cluster(cluster)
    collector = None
    if coverage is not None:
        from repro.check import CoverageCollector
        collector = CoverageCollector(sim.bus, cfg.deployment, coverage)
    saved_hook = qp_state.psn_tx_hook
    try:
        members = list(cluster.host_ips)
        algo = CepheusBcast(cluster, members)
        algo.prepare()
        injector = FailureInjector(cluster.topo)
        start = sim.now
        for inc in schedule.incidents:
            install_incident(cluster, injector, inc, start)

        if cfg.mutate == "psn-skip":
            # Corrupt the wire: every PSN at/after the middle of message
            # two is shifted up by one, leaving a hole the receivers can
            # never fill.  The monitor must flag `psn-contiguity`.
            skip_at = cfg.msg_packets + max(1, cfg.msg_packets // 2)
            qp_state.psn_tx_hook = (
                lambda qp, psn: psn + 1 if psn >= skip_at else psn)
        elif cfg.mutate is not None:
            raise ValueError(f"unknown mutation {cfg.mutate!r}")

        size = cfg.msg_packets * constants.MTU_BYTES
        deliveries: Dict[int, int] = {ip: 0 for ip in members}
        for ip in members:
            def on_msg(mid, sz, now, meta, _ip=ip) -> None:
                deliveries[_ip] += 1
            algo.qps[ip].on_message = on_msg

        state = {"completed": 0, "done_times": []}

        def post_next() -> None:
            i = state["completed"]
            src = schedule.sources[i]
            if algo.group.current_source != src:
                algo.set_source(src)

            def on_done(mid: int, now: float) -> None:
                state["completed"] += 1
                state["done_times"].append(now - start)
                i_next = state["completed"]
                if i_next < len(schedule.sources):
                    post_at_offset(sim, start, schedule.offsets[i_next],
                                   post_next)

            algo.qps[src].post_send(size, on_complete=on_done)

        post_next()
        sim.run(until=start + cfg.horizon, max_events=20_000_000)

        # All incidents repair before the horizon, so the fabric must be
        # structurally whole again — sweep with connectivity required.
        monitor.check_mft_consistency(cluster.fabric, expect_connected=True,
                                      injector=injector)

        # Liveness: every message completed, and every member delivered
        # each message it was not itself the source of.
        expected = len(schedule.sources)
        per_member_ok = all(
            deliveries[ip] == sum(1 for s in schedule.sources if s != ip)
            for ip in members)
        delivered_all = state["completed"] == expected and per_member_ok
        violations = [v.to_dict() for v in monitor.violations]
        return {
            "trial": trial_index,
            "trial_seed": schedule.trial_seed,
            "schedule": schedule.to_dict(),
            "expected_messages": expected,
            "completed_messages": state["completed"],
            "done_times_us": [round(t * 1e6, 3) for t in state["done_times"]],
            "deliveries": {str(ip): deliveries[ip] for ip in members},
            "events": sim.events_run,
            "checked": monitor.events_checked,
            "active_failures_at_end": injector.active_failures,
            "violations": violations,
            "delivered_all": delivered_all,
            "failing": bool(violations) or not delivered_all,
        }
    finally:
        qp_state.psn_tx_hook = saved_hook
        if collector is not None:
            collector.add_violations(monitor.violations)
            collector.detach()
        monitor.detach()


CHAOS = CampaignKind(
    name="chaos", reproducer_kind="cepheus-chaos-reproducer",
    config_cls=ChaosConfig, schedule_cls=Schedule,
    generate=generate_schedule, run_trial=run_trial,
    shrink_axes=("incidents",), trailing=("sources",),
    record_fields=("violations", "delivered_all"),
    mutations=("psn-skip",))
