"""Deterministic membership-churn campaigns over the Cepheus fabric.

The dynamic-membership machinery (incremental MRP deltas, aggregate
re-evaluation on LEAVE/PRUNE, the leaf-driven failure detector) is
control-plane code racing against in-flight data — exactly the kind of
logic a throughput number never exercises.  This module stresses it the
same way :mod:`repro.harness.chaos` stresses the loss-recovery paths:

* a **schedule** is drawn up front from a seeded RNG: a list of
  membership *events* (JOINs of fresh hosts, voluntary LEAVEs, and
  receiver *crashes* — the host's access link is cut and never
  repaired, so only the failure detector can unstick the group) plus
  message offsets that interleave broadcasts with the churn;
* a **trial** is a pure function of (config, schedule): build a fresh
  cluster, register the initial group, start the failure detector, post
  the message sequence while members come and go, and record per-member
  deliveries + invariant violations.  Exactly-once delivery is asserted
  for every member of the *final* epoch (departed members legitimately
  miss the tail of an in-flight message);
* a **campaign** runs N seeded trials through the shared campaign engine
  (:mod:`repro.harness.campaign`); failing trials are greedily shrunk
  (drop churn events, then trailing messages) into JSON reproducers
  that ``cepheus-repro churn replay`` re-executes.

The ``mutate="no-detector"`` knob disables the failure detector: a
schedule containing a crash must then stall (the dead receiver pins the
min-AckPSN aggregate forever) — the smoke tests use it to prove the
campaign detects real liveness bugs rather than vacuously passing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro import constants
from repro.check import InvariantMonitor
from repro.collectives import CepheusBcast
from repro.harness.campaign import (CampaignConfig, CampaignKind,
                                    build_cluster, post_at_offset)
from repro.net.failures import FailureInjector

__all__ = ["ChurnConfig", "ChurnEvent", "ChurnSchedule",
           "generate_churn_schedule", "run_churn_trial", "CHURN"]


@dataclass(frozen=True)
class ChurnConfig(CampaignConfig):
    """Parameters of one churn campaign (all trials share these)."""

    topo: str = "star"            # "star" | "fat_tree"
    hosts: int = 8                # star size / fat-tree hosts_limit
    k: int = 4                    # fat-tree arity
    initial_members: int = 5      # group size at registration (from hosts[0])
    messages: int = 4             # broadcasts per trial (sequential)
    msg_packets: int = 8          # packets per broadcast (size = n * MTU)
    joins: int = 2                # JOIN events per trial
    leaves: int = 1               # voluntary LEAVE events per trial
    crashes: int = 1              # receiver crashes per trial (never repaired)
    horizon: float = 0.04         # virtual seconds per trial
    loss_rate: float = 0.0        # baseline random loss on every switch
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    detector_interval: float = 150e-6
    detector_misses: int = 3
    coalesce_window: Optional[float] = None  # batch deltas per window (s)
    mutate: Optional[str] = None  # "no-detector" disables failure pruning


@dataclass(frozen=True)
class ChurnEvent:
    """One membership change at virtual time ``at`` (relative to the
    traffic start).  ``kind`` is ``join`` / ``leave`` / ``crash``."""

    kind: str
    ip: int
    at: float

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "ip": self.ip, "at": self.at}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ChurnEvent":
        return cls(kind=d["kind"], ip=d["ip"], at=d["at"])


@dataclass(frozen=True)
class ChurnSchedule:
    """Pure, JSON-able trial input: message offsets + churn events.

    The leader (``hosts[0]``) is the source of every message — LEAVE and
    PRUNE are forbidden for the current source, so churn targets are
    always plain receivers.
    """

    trial_seed: int
    offsets: Tuple[float, ...]
    events: Tuple[ChurnEvent, ...]

    def to_dict(self) -> Dict[str, object]:
        return {"trial_seed": self.trial_seed,
                "offsets": list(self.offsets),
                "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ChurnSchedule":
        return cls(trial_seed=d["trial_seed"],
                   offsets=tuple(d["offsets"]),
                   events=tuple(ChurnEvent.from_dict(e)
                                for e in d["events"]))


# ---------------------------------------------------------------------------
# schedule generation
# ---------------------------------------------------------------------------

def generate_churn_schedule(cfg: ChurnConfig, rng) -> ChurnSchedule:
    """Draw one randomized-but-reproducible churn schedule."""
    trial_seed = rng.randrange(1 << 31)
    cluster = build_cluster(cfg, 0)   # shape-only; state is discarded
    hosts = list(cluster.topo.host_ips)
    if cfg.initial_members < 2 or cfg.initial_members > len(hosts):
        raise ValueError(f"initial_members={cfg.initial_members} out of "
                         f"range for {len(hosts)} hosts")
    initial = hosts[:cfg.initial_members]
    outsiders = hosts[cfg.initial_members:]
    h = cfg.horizon

    events: List[ChurnEvent] = []
    joiners = rng.sample(outsiders, min(cfg.joins, len(outsiders)))
    for ip in joiners:
        events.append(ChurnEvent("join", ip, round(rng.uniform(0.05, 0.45) * h, 9)))
    # Removals come from the initial non-leader members and never shrink
    # the group below 2 (the joiners may not have arrived yet when a
    # removal fires, so they don't count toward the floor).
    removable = list(initial[1:])
    budget = max(0, cfg.initial_members - 2)
    n_leave = min(cfg.leaves, budget, len(removable))
    n_crash = min(cfg.crashes, budget - n_leave, len(removable) - n_leave)
    victims = rng.sample(removable, n_leave + n_crash)
    for ip in victims[:n_leave]:
        events.append(ChurnEvent("leave", ip, round(rng.uniform(0.05, 0.45) * h, 9)))
    for ip in victims[n_leave:]:
        # Crashes land early so the detector sees post-crash traffic.
        events.append(ChurnEvent("crash", ip, round(rng.uniform(0.05, 0.30) * h, 9)))
    events.sort(key=lambda e: (e.at, e.kind, e.ip))

    offsets = [0.0] + sorted(
        round(rng.uniform(0.05, 0.5) * h, 9)
        for _ in range(cfg.messages - 1))
    if events and cfg.messages > 1:
        # Guarantee at least one message posted after the last churn
        # event: a crash during total silence is undetectable by a
        # missed-feedback detector (and uninteresting).
        tail = round(max(e.at for e in events) + 0.05 * h, 9)
        offsets[-1] = max(offsets[-1], tail)
    return ChurnSchedule(trial_seed=trial_seed, offsets=tuple(offsets),
                         events=tuple(events))


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

def run_churn_trial(cfg: ChurnConfig, schedule: ChurnSchedule,
                    trial_index: int = 0) -> Dict[str, object]:
    """Execute one churn trial; returns a JSON-able deterministic record."""
    cluster = build_cluster(cfg, schedule.trial_seed)
    sim = cluster.sim
    fabric = cluster.fabric
    monitor = InvariantMonitor()
    monitor.attach_cluster(cluster)
    try:
        hosts = list(cluster.host_ips)
        initial = hosts[:cfg.initial_members]
        leader = initial[0]
        algo = CepheusBcast(cluster, initial, leader)
        algo.prepare()
        full_records = sum(a.mrp_records_installed
                           for a in fabric.accelerators.values())

        mm = fabric.membership(algo.group,
                               coalesce_window=cfg.coalesce_window)
        if cfg.mutate is None:
            mm.start_failure_detector(interval=cfg.detector_interval,
                                      misses=cfg.detector_misses)
        elif cfg.mutate != "no-detector":
            raise ValueError(f"unknown mutation {cfg.mutate!r}")

        injector = FailureInjector(cluster.topo)
        start = sim.now
        size = cfg.msg_packets * constants.MTU_BYTES
        deliveries: Dict[int, int] = {}
        expected: Dict[int, int] = {}
        crashed: Set[int] = set()

        def wire(ip: int) -> None:
            deliveries.setdefault(ip, 0)
            expected.setdefault(ip, 0)

            def on_msg(mid, sz, now, meta, _ip=ip) -> None:
                deliveries[_ip] += 1
            algo.group.members[ip].on_message = on_msg

        for ip in initial:
            if ip != leader:
                wire(ip)

        # -- churn events -------------------------------------------------
        def do_join(ip: int) -> None:
            qp = cluster.ctx(ip).create_qp()
            mm.join(ip, qp)
            wire(ip)

        def do_leave(ip: int) -> None:
            if ip in algo.group.members and not mm.has_inflight(ip):
                mm.leave(ip)

        def do_crash(ip: int) -> None:
            sw, port = cluster.topo.leaf_of(ip)
            injector.fail_link(sw, port)   # never repaired
            crashed.add(ip)

        actions = {"join": do_join, "leave": do_leave, "crash": do_crash}
        for ev in schedule.events:
            sim.schedule(start + ev.at - sim.now, actions[ev.kind], ev.ip)

        # -- traffic ------------------------------------------------------
        state = {"completed": 0, "done_times": []}
        src_qp = algo.group.members[leader]

        def post_next() -> None:
            # Snapshot who is owed this message: every current member
            # except the source and receivers already known dead.  A
            # joiner whose delta is still in flight counts — the JOIN
            # PSN sync guarantees it recovers everything posted from the
            # moment it was admitted.
            for ip in algo.group.members:
                if ip != leader and ip not in crashed:
                    expected[ip] += 1

            def on_done(mid: int, now: float) -> None:
                state["completed"] += 1
                state["done_times"].append(now - start)
                i_next = state["completed"]
                if i_next < len(schedule.offsets):
                    post_at_offset(sim, start, schedule.offsets[i_next],
                                   post_next)

            src_qp.post_send(size, on_complete=on_done)

        post_next()
        sim.run(until=start + cfg.horizon, max_events=20_000_000)
        mm.stop_failure_detector()

        # Crashed receivers must have been pruned out of the group (the
        # failure detector's whole job); once they are, every MDT port
        # sits on a live link again and the structural sweep can demand
        # connectivity despite the unrepaired access links.
        unpruned = sorted(ip for ip in crashed if ip in algo.group.members)
        if not unpruned:
            monitor.check_mft_consistency(fabric, expect_connected=True,
                                          injector=injector)
        else:
            monitor.check_mft_consistency(fabric, injector=injector)

        final_members = [ip for ip in algo.group.members if ip != leader]
        mismatched = sorted(
            ip for ip in final_members
            if deliveries.get(ip, 0) != expected.get(ip, 0))
        violations = [v.to_dict() for v in monitor.violations]
        failing = (bool(violations)
                   or state["completed"] < cfg.messages
                   or not src_qp.send_idle
                   or bool(mismatched)
                   or bool(unpruned)
                   or bool(mm.delta_failures))
        delta_records = sum(a.mrp_records_installed
                            for a in fabric.accelerators.values()) - full_records
        removed_records = sum(a.mrp_records_removed
                              for a in fabric.accelerators.values())
        return {
            "trial": trial_index,
            "trial_seed": schedule.trial_seed,
            "schedule": schedule.to_dict(),
            "expected_messages": cfg.messages,
            "completed_messages": state["completed"],
            "done_times_us": [round(t * 1e6, 3) for t in state["done_times"]],
            "deliveries": {str(ip): deliveries[ip] for ip in sorted(deliveries)},
            "expected": {str(ip): expected[ip] for ip in sorted(expected)},
            "final_members": sorted(algo.group.members),
            "final_epoch": algo.group.epoch,
            "epoch_log": [list(e) for e in mm.epoch_log],
            "pruned": sorted(mm.pruned),
            "unpruned_crashes": unpruned,
            "mismatched": mismatched,
            "delta_failures": [list(f) for f in mm.delta_failures],
            "full_records": full_records,
            "delta_records": delta_records,
            "removed_records": removed_records,
            "events": sim.events_run,
            "checked": monitor.events_checked,
            "violations": violations,
            "failing": failing,
        }
    finally:
        monitor.detach()


CHURN = CampaignKind(
    name="churn", reproducer_kind="cepheus-churn-reproducer",
    config_cls=ChurnConfig, schedule_cls=ChurnSchedule,
    generate=generate_churn_schedule, run_trial=run_churn_trial,
    shrink_axes=("events",), trailing=("offsets",),
    record_fields=("violations", "mismatched", "completed_messages"),
    mutations=("no-detector",),
    # A trial fails when fewer than cfg.messages complete, so a schedule
    # shrunk to fewer messages runs (and is packaged) with a config
    # that expects exactly that many.
    fit=lambda cfg, s: replace(cfg, messages=len(s.offsets)))
