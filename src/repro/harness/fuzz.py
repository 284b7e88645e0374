"""Coverage-guided protocol fuzzing with differential deployment oracles.

The chaos (:mod:`repro.harness.chaos`) and churn
(:mod:`repro.harness.churn`) campaigns sample failure schedules blindly
from a seed; this module closes the loop the way fuzzbench-style
fuzzers do — schedules that reach *new behavior* are kept in a corpus
and mutated further, so the campaign spends its budget on the
schedules that exercise the most protocol surface:

* a **FuzzSchedule** is the union of both harnesses' inputs: a chaos
  incident list (link cuts, switch black-holes, loss windows), a churn
  op list (JOINs of outsiders, voluntary LEAVEs), a per-message source
  plan (§III-E source switching) and message offsets — pure JSON-able
  data;
* a **trial** runs the *same* schedule once per accelerator deployment
  (inline, look-aside, source-routed) under the
  :class:`~repro.check.InvariantMonitor` and a
  :class:`~repro.check.CoverageCollector`; behavioral coverage is the
  union of stage-verdict, channel-transition, feedback-decision, drop
  and violation keys across the deployments;
* two **differential oracles** run per trial: (a) every *stable*
  receiver (an initial member never targeted by churn) must see a
  byte-identical ``(message, psn, payload)`` delivery sequence in all
  deployments — replication state may live inline in the switch, on a
  look-aside FPGA, or in Elmo-style source headers, but the wire
  contract cannot change; (b) per-message completion times must stay
  within tolerance of the analytic model — no faster than the wire
  serialization bound, and (for quiescent schedules) no slower than
  ``jct_slack`` times the §II JCT model, which catches silent
  retransmission storms that deliver correct bytes late;
* the **fuzz loop** replays the corpus first (deterministic coverage
  baseline), then spends the remaining budget mutating corpus entries
  (incident add/remove/retime/retarget, churn op splice/drop/burst,
  offset jitter, Poisson arrival replan, source retarget, reseed)
  and crossing pairs over
  (seed-respecting: the child keeps one parent's ``trial_seed``).
  Schedules reaching new coverage join the corpus; failing schedules
  are shrunk and packaged by the shared campaign engine
  (:mod:`repro.harness.campaign`) into JSON reproducers that
  ``cepheus-repro fuzz replay`` re-executes.

Everything is deterministic: trials are pure functions of
(config, schedule), the corpus evolves identically for a given seed,
and coverage signatures are order-independent SHA-256 digests — two
``fuzz run`` invocations produce bit-for-bit identical documents, and
``--jobs`` parallel corpus replay yields the same signature as the
sequential one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro import constants
from repro.analytic.models import NetModel, cepheus_jct
from repro.apps.cluster import Cluster
from repro.check import CoverageCollector, CoverageMap, InvariantMonitor
from repro.collectives import CepheusBcast
from repro.core.accelerator import DEPLOYMENTS
from repro.errors import TopologyError
from repro.harness.campaign import (CampaignConfig, CampaignKind,
                                    build_cluster, enumerate_targets,
                                    install_incident, package_failure,
                                    post_at_offset, read_input, trial_rng)
from repro.harness.chaos import Incident
from repro.harness.churn import ChurnEvent
from repro.net.failures import FailureInjector
from repro.transport.spray import (LaneHealthMonitor, LaneReassembler,
                                   LaneSprayer)

__all__ = [
    "FuzzConfig", "FuzzSchedule", "generate_fuzz_schedule",
    "mutate_schedule", "crossover_schedules", "run_fuzz_trial",
    "run_fuzz", "load_corpus", "save_corpus", "replay_corpus", "FUZZ",
]

CORPUS_KIND = "cepheus-fuzz-input"

#: Mutation operator names, in the deterministic order the loop draws
#: from.  Kept module-level so the self-tests can assert the menu.
MUTATIONS: Tuple[str, ...] = (
    "incident-add", "incident-remove", "incident-retime",
    "incident-retarget", "churn-splice", "churn-drop",
    "offset-jitter", "source-retarget", "reseed",
    "publish-poisson", "churn-burst", "lane-kill",
)


@dataclass(frozen=True)
class FuzzConfig(CampaignConfig):
    """Parameters shared by every trial of one fuzzing session."""

    topo: str = "star"            # "star" | "fat_tree"
    hosts: int = 8                # star size / fat-tree hosts_limit
    k: int = 4                    # fat-tree arity
    initial_members: int = 6      # group size at registration
    messages: int = 3             # broadcasts per trial (sequential)
    msg_packets: int = 8          # packets per broadcast (size = n * MTU)
    incidents_max: int = 2        # cap on chaos incidents per schedule
    joins_max: int = 1            # cap on JOIN churn ops per schedule
    leaves_max: int = 1           # cap on LEAVE churn ops per schedule
    horizon: float = 0.04         # virtual seconds per trial
    loss_rate: float = 0.0        # baseline random loss on every switch
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    deployments: Tuple[str, ...] = DEPLOYMENTS
    jct_slack: float = 5.0        # throughput-oracle ceiling multiplier
    paths: int = 1                # MRC lanes per group (k-path spraying)
    lane_stall_timeout: float = 1e-3  # dead-lane declaration threshold

    def __post_init__(self) -> None:
        # JSON hands the deployment list back as a list.
        object.__setattr__(self, "deployments", tuple(self.deployments))


@dataclass(frozen=True)
class FuzzSchedule:
    """One fuzzing input: chaos incidents + churn ops + source plan.

    The validity contract (enforced by :func:`_sanitize`, which every
    generator/mutator runs through):

    * sources are initial members; churn never targets a source or the
      leader (``hosts[0]``), so the §III-E rotation stays legal;
    * joiners are outsiders (hosts beyond the initial membership), one
      JOIN per ip; leavers are distinct non-source initial members;
    * incident repairs land by ``0.75 * horizon`` so recovery has tail
      room before the liveness check, and churn ops land by
      ``0.6 * horizon`` so their MRP deltas settle;
    * ``lane_kills`` (``(lane, at, repair_at)``; meaningful only when
      ``cfg.paths > 1``) sever one lane's *exclusive* uplink so the
      sprayer's failover re-spray path runs under fuzz; at most
      ``paths - 1`` lanes are ever killed, one per lane, and with
      k lanes all sources collapse onto the leader (§III-E source
      switching is single-lane).  The field is omitted from the
      canonical dict when empty, so every pre-lane corpus entry keeps
      its content hash.
    """

    trial_seed: int
    sources: Tuple[int, ...]
    offsets: Tuple[float, ...]
    incidents: Tuple[Incident, ...]
    churn: Tuple[ChurnEvent, ...]
    lane_kills: Tuple[Tuple[int, float, float], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "trial_seed": self.trial_seed,
            "sources": list(self.sources),
            "offsets": list(self.offsets),
            "incidents": [i.to_dict() for i in self.incidents],
            "churn": [e.to_dict() for e in self.churn]}
        if self.lane_kills:
            d["lane_kills"] = [list(k) for k in self.lane_kills]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FuzzSchedule":
        return cls(trial_seed=d["trial_seed"],
                   sources=tuple(d["sources"]),
                   offsets=tuple(d["offsets"]),
                   incidents=tuple(Incident.from_dict(i)
                                   for i in d["incidents"]),
                   churn=tuple(ChurnEvent.from_dict(e)
                               for e in d.get("churn", [])),
                   lane_kills=tuple(
                       (int(l), float(a), float(r))
                       for l, a, r in d.get("lane_kills", [])))

    def content_hash(self) -> str:
        """Canonical digest; names corpus files and dedupes entries."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# schedule shape
# ---------------------------------------------------------------------------

class _Shape:
    """Topology facts every generator/mutator needs (computed once)."""

    def __init__(self, cfg: FuzzConfig) -> None:
        cluster = build_cluster(cfg, 0, cfg.deployments[0])
        hosts = list(cluster.topo.host_ips)
        if cfg.initial_members < 2 or cfg.initial_members > len(hosts):
            raise ValueError(f"initial_members={cfg.initial_members} out of "
                             f"range for {len(hosts)} hosts")
        self.hosts = hosts
        self.initial = hosts[:cfg.initial_members]
        self.leader = self.initial[0]
        self.outsiders = hosts[cfg.initial_members:]
        self.targets = enumerate_targets(cluster)


def _draw_churn_time(cfg: FuzzConfig, offsets: Tuple[float, ...],
                     rng) -> float:
    """Half the draws land within a transfer-scale window of a message
    post, where a join/leave delta races the in-flight aggregate —
    uniform draws would almost never hit the microsecond-wide transfer
    inside a millisecond-scale horizon."""
    h = cfg.horizon
    if offsets and rng.random() < 0.5:
        base = rng.choice(offsets)
        window = (cfg.msg_packets * constants.MTU_BYTES * 8.0
                  / constants.LINK_BANDWIDTH_BPS) * 8.0
        at = base + rng.uniform(-window, window)
        return round(min(max(at, 0.0), 0.6 * h), 9)
    return round(rng.uniform(0.05, 0.5) * h, 9)


def _draw_incident(cfg: FuzzConfig, shape: _Shape, rng) -> Incident:
    raw = rng.choice(shape.targets)
    if raw[0] == "loss":
        raw = raw + (round(rng.uniform(0.05, 0.3), 4),)
    h = cfg.horizon
    at = round(rng.uniform(0.05, 0.55) * h, 9)
    repair_at = round(at + rng.uniform(0.05, 0.2) * h, 9)
    return Incident(kind=raw[0], target=raw, at=at, repair_at=repair_at)


def _draw_lane_kill(cfg: FuzzConfig, rng) -> Tuple[int, float, float]:
    h = cfg.horizon
    lane = rng.randrange(cfg.paths)
    at = round(rng.uniform(0.05, 0.4) * h, 9)
    repair_at = round(at + rng.uniform(0.1, 0.25) * h, 9)
    return (lane, at, repair_at)


def _sanitize(cfg: FuzzConfig, shape: _Shape,
              schedule: FuzzSchedule) -> FuzzSchedule:
    """Clamp a schedule onto the validity contract (see class doc)."""
    h = cfg.horizon
    if cfg.paths > 1:
        # Source switching is single-lane (§III-E); with k lanes the
        # leader sources every message.
        sources = tuple(shape.leader for _ in schedule.sources)
    else:
        sources = tuple(s if s in shape.initial else shape.leader
                        for s in schedule.sources)
    lane_kills: List[Tuple[int, float, float]] = []
    if cfg.paths > 1:
        killed = set()
        for lane, at, repair_at in schedule.lane_kills:
            lane = int(lane) % cfg.paths
            # Never kill every lane: the re-spray needs a survivor.
            if lane in killed or len(killed) >= cfg.paths - 1:
                continue
            killed.add(lane)
            at = min(max(at, 0.0), round(0.55 * h, 9))
            repair_at = min(max(repair_at, at + 1e-6), round(0.75 * h, 9))
            lane_kills.append((lane, round(at, 9), round(repair_at, 9)))
        lane_kills.sort()
    protected = set(sources) | {shape.leader}
    joined, left = set(), set()
    churn: List[ChurnEvent] = []
    for ev in schedule.churn:
        at = min(max(ev.at, 0.0), round(0.6 * h, 9))
        if ev.kind == "join":
            if ev.ip in shape.outsiders and ev.ip not in joined:
                joined.add(ev.ip)
                churn.append(replace(ev, at=at))
        elif ev.kind == "leave":
            if (ev.ip in shape.initial and ev.ip not in protected
                    and ev.ip not in left):
                left.add(ev.ip)
                churn.append(replace(ev, at=at))
        # crashes need the failure detector; the fuzzer stays on the
        # join/leave subset where liveness is unconditional.
    churn.sort(key=lambda e: (e.at, e.kind, e.ip))
    incidents = []
    targeted = set()
    for inc in schedule.incidents:
        if len(incidents) >= cfg.incidents_max:
            break
        # One incident per device: duplicate targets would interleave
        # fail/repair pairs on the same switch or link.
        ident = (inc.kind, inc.target[1])
        if ident in targeted:
            continue
        targeted.add(ident)
        at = min(max(inc.at, 0.0), round(0.55 * h, 9))
        repair_at = min(max(inc.repair_at, at + 1e-6), round(0.75 * h, 9))
        incidents.append(replace(inc, at=at, repair_at=repair_at))
    incidents.sort(key=lambda i: (i.at, i.target))
    offsets = (0.0,) + tuple(sorted(
        round(min(max(o, 0.0), 0.6 * h), 9)
        for o in schedule.offsets[1:len(sources)]))
    offsets = offsets + (0.0,) * (len(sources) - len(offsets))
    return replace(schedule, sources=sources, offsets=offsets,
                   incidents=tuple(incidents), churn=tuple(churn),
                   lane_kills=tuple(lane_kills))


def generate_fuzz_schedule(cfg: FuzzConfig, rng,
                           shape: Optional[_Shape] = None) -> FuzzSchedule:
    """Draw one randomized-but-reproducible fuzzing input."""
    shape = shape or _Shape(cfg)
    trial_seed = rng.randrange(1 << 31)
    h = cfg.horizon
    sources = tuple(rng.choice(shape.initial) for _ in range(cfg.messages))
    offsets = (0.0,) + tuple(sorted(
        round(rng.uniform(0.05, 0.55) * h, 9)
        for _ in range(cfg.messages - 1)))
    incidents = tuple(_draw_incident(cfg, shape, rng)
                      for _ in range(rng.randint(0, cfg.incidents_max)))
    churn: List[ChurnEvent] = []
    for ip in rng.sample(shape.outsiders,
                         min(rng.randint(0, cfg.joins_max),
                             len(shape.outsiders))):
        churn.append(ChurnEvent("join", ip,
                                _draw_churn_time(cfg, offsets, rng)))
    candidates = [ip for ip in shape.initial[1:] if ip not in sources]
    for ip in rng.sample(candidates,
                         min(rng.randint(0, cfg.leaves_max),
                             len(candidates))):
        churn.append(ChurnEvent("leave", ip,
                                _draw_churn_time(cfg, offsets, rng)))
    # Guarded so a paths=1 config consumes exactly the pre-lane rng
    # draw sequence (the committed corpus depends on it).
    lane_kills: Tuple[Tuple[int, float, float], ...] = ()
    if cfg.paths > 1:
        lane_kills = tuple(_draw_lane_kill(cfg, rng)
                           for _ in range(rng.randint(0, 1)))
    return _sanitize(cfg, shape, FuzzSchedule(
        trial_seed=trial_seed, sources=sources, offsets=offsets,
        incidents=incidents, churn=tuple(churn), lane_kills=lane_kills))


# ---------------------------------------------------------------------------
# mutation + crossover
# ---------------------------------------------------------------------------

def mutate_schedule(cfg: FuzzConfig, schedule: FuzzSchedule, rng,
                    shape: Optional[_Shape] = None) -> FuzzSchedule:
    """Apply one random mutation operator; always returns a valid input."""
    shape = shape or _Shape(cfg)
    op = rng.choice(MUTATIONS)
    h = cfg.horizon
    incidents = list(schedule.incidents)
    churn = list(schedule.churn)
    if op == "incident-add":
        incidents.append(_draw_incident(cfg, shape, rng))
    elif op == "incident-remove" and incidents:
        incidents.pop(rng.randrange(len(incidents)))
    elif op == "incident-retime" and incidents:
        i = rng.randrange(len(incidents))
        inc = incidents[i]
        at = round(inc.at + rng.uniform(-0.15, 0.15) * h, 9)
        incidents[i] = replace(
            inc, at=at,
            repair_at=round(at + rng.uniform(0.05, 0.2) * h, 9))
    elif op == "incident-retarget" and incidents:
        i = rng.randrange(len(incidents))
        fresh = _draw_incident(cfg, shape, rng)
        incidents[i] = replace(fresh, at=incidents[i].at,
                               repair_at=incidents[i].repair_at)
    elif op == "churn-splice":
        kind = rng.choice(("join", "leave"))
        pool = (shape.outsiders if kind == "join"
                else [ip for ip in shape.initial[1:]
                      if ip not in schedule.sources])
        if pool:
            churn.append(ChurnEvent(
                kind, rng.choice(pool),
                _draw_churn_time(cfg, schedule.offsets, rng)))
    elif op == "churn-drop" and churn:
        churn.pop(rng.randrange(len(churn)))
    elif op == "offset-jitter" and len(schedule.offsets) > 1:
        offs = list(schedule.offsets)
        i = rng.randrange(1, len(offs))
        offs[i] = round(offs[i] + rng.uniform(-0.1, 0.1) * h, 9)
        return _sanitize(cfg, shape, replace(schedule, offsets=tuple(offs)))
    elif op == "source-retarget":
        srcs = list(schedule.sources)
        srcs[rng.randrange(len(srcs))] = rng.choice(shape.initial)
        return _sanitize(cfg, shape, replace(schedule, sources=tuple(srcs)))
    elif op == "reseed":
        return _sanitize(cfg, shape, replace(
            schedule, trial_seed=rng.randrange(1 << 31)))
    elif op == "publish-poisson" and len(schedule.offsets) > 1:
        # Open-loop arrival replan (the broker-fabric workload shape,
        # :mod:`repro.harness.openloop`): the uniform message spread
        # becomes exponential inter-arrivals, so mutated inputs explore
        # Poisson bursts — back-to-back posts whose aggregates overlap.
        mean_gap = (0.6 * h) / len(schedule.offsets)
        offs, t = [0.0], 0.0
        for _ in range(len(schedule.offsets) - 1):
            t += rng.expovariate(1.0 / mean_gap)
            offs.append(round(t, 9))
        return _sanitize(cfg, shape, replace(schedule, offsets=tuple(offs)))
    elif op == "churn-burst":
        # Hot-topic churn clustering: one join+leave pair inside a
        # coalescing-window-scale gap, so the two MRP deltas race each
        # other (and any delta batching) instead of landing settled.
        taken = {e.ip for e in churn}
        joins = [ip for ip in shape.outsiders if ip not in taken]
        leaves = [ip for ip in shape.initial[1:]
                  if ip not in schedule.sources and ip not in taken]
        if joins and leaves:
            at = _draw_churn_time(cfg, schedule.offsets, rng)
            gap = round(rng.uniform(1e-6, 5e-4), 9)
            churn.append(ChurnEvent("join", rng.choice(joins), at))
            churn.append(ChurnEvent("leave", rng.choice(leaves),
                                    round(at + gap, 9)))
    elif op == "lane-kill" and cfg.paths > 1:
        # Add a kill for an unkilled lane, or retime an existing one;
        # a paths=1 config makes this operator a sanitized no-op.
        kills = list(schedule.lane_kills)
        if kills and rng.random() < 0.5:
            i = rng.randrange(len(kills))
            lane = kills[i][0]
            _, at, repair_at = _draw_lane_kill(cfg, rng)
            kills[i] = (lane, at, repair_at)
        else:
            kills.append(_draw_lane_kill(cfg, rng))
        return _sanitize(cfg, shape, replace(
            schedule, incidents=tuple(incidents), churn=tuple(churn),
            lane_kills=tuple(kills)))
    return _sanitize(cfg, shape, replace(
        schedule, incidents=tuple(incidents), churn=tuple(churn)))


def crossover_schedules(cfg: FuzzConfig, a: FuzzSchedule, b: FuzzSchedule,
                        rng, shape: Optional[_Shape] = None) -> FuzzSchedule:
    """Seed-respecting crossover: the child keeps parent ``a``'s
    ``trial_seed`` and source/offset plan, and mixes the failure and
    churn material of both parents."""
    shape = shape or _Shape(cfg)
    pool = list(a.incidents) + list(b.incidents)
    n = min(len(pool), cfg.incidents_max)
    incidents = tuple(rng.sample(pool, rng.randint(0, n)) if pool else ())
    churn = tuple(b.churn if rng.random() < 0.5 else a.churn)
    return _sanitize(cfg, shape, replace(
        a, incidents=incidents, churn=churn))


# ---------------------------------------------------------------------------
# one trial: three deployments + differential oracles
# ---------------------------------------------------------------------------

def _install_lane_kills(cluster: Cluster, injector: FailureInjector,
                        schedule: FuzzSchedule, leader: int,
                        initial: List[int], cfg: FuzzConfig, start: float,
                        coverage: CoverageMap, deployment: str) -> None:
    """Schedule each lane kill on that lane's *exclusive* uplink.

    Star topologies (and fat-trees narrower than the lane count) have
    no lane-exclusive link to cut — the kill is skipped, but the
    outcome still lands in coverage so the loop can tell the two
    schedules apart.
    """
    sim = cluster.sim
    try:
        uplinks = cluster.topo.lane_uplinks(leader, initial, cfg.paths)
    except TopologyError:
        coverage.add(f"lanekill/{deployment}/no-exclusive-uplink")
        return

    def repair(sw, port) -> None:
        try:
            injector.repair_link(sw, port)
        except TopologyError:
            pass  # a chaos incident repairing the same link won the race

    for lane, at, repair_at in schedule.lane_kills:
        sw, port = uplinks[lane]
        sim.schedule(start + at - sim.now, injector.fail_link, sw, port)
        sim.schedule(start + repair_at - sim.now, repair, sw, port)
    coverage.add(f"lanekill/{deployment}/installed")


def _run_one_deployment(cfg: FuzzConfig, schedule: FuzzSchedule,
                        deployment: str,
                        coverage: CoverageMap) -> Dict[str, object]:
    """Execute the schedule under one deployment; feeds ``coverage``."""
    cluster = build_cluster(cfg, schedule.trial_seed, deployment)
    sim = cluster.sim
    fabric = cluster.fabric
    monitor = InvariantMonitor()
    monitor.attach_cluster(cluster)
    collector = CoverageCollector(sim.bus, deployment, coverage)
    try:
        hosts = list(cluster.host_ips)
        initial = hosts[:cfg.initial_members]
        leader = initial[0]
        algo = CepheusBcast(cluster, initial, leader, paths=cfg.paths,
                            lane_stall_timeout=cfg.lane_stall_timeout)
        algo.prepare()
        mm = fabric.membership(algo.group)
        injector = FailureInjector(cluster.topo)
        start = sim.now
        for inc in schedule.incidents:
            install_incident(cluster, injector, inc, start)
        if cfg.paths > 1 and schedule.lane_kills:
            _install_lane_kills(cluster, injector, schedule, leader,
                                initial, cfg, start, coverage, deployment)
        if cfg.paths > 1:
            # Spray delivery rides qp.on_message; the reassemblers also
            # publish "lane_complete" for the reassembly-gap invariant.
            for ip in initial:
                if ip == leader:
                    continue
                reasm = LaneReassembler(ip, lambda sid, total, now: None,
                                        bus=sim.bus)
                reasm.attach([algo.group.lane_members[lane][ip]
                              for lane in range(cfg.paths)])

        def do_join(ip: int) -> None:
            qp = cluster.ctx(ip).create_qp()
            if cfg.paths > 1:
                lane_qps = [qp] + [cluster.ctx(ip).create_qp()
                                   for _ in range(cfg.paths - 1)]
                reasm = LaneReassembler(ip, lambda sid, total, now: None,
                                        bus=sim.bus)
                reasm.attach(lane_qps)
                mm.join(ip, qp, lane_qps=lane_qps)
            else:
                mm.join(ip, qp)

        def do_leave(ip: int) -> None:
            if ip in algo.group.members and not mm.has_inflight(ip):
                mm.leave(ip)

        actions = {"join": do_join, "leave": do_leave}
        for ev in schedule.churn:
            sim.schedule(start + ev.at - sim.now, actions[ev.kind], ev.ip)

        # Per-receiver delivery log for the payload oracle.  msg_id is a
        # process-global counter, so deployments see different raw ids
        # for the same message — normalize to the schedule ordinal.
        # With k lanes the log is keyed ``(ip, lane)`` and normalized by
        # spray id instead (sub-message msg_ids differ per lane).
        mid_order: Dict[int, int] = {}
        sid_order: Dict[int, int] = {}
        seq: Dict[object, List[Tuple[int, int, int]]] = {}

        def on_deliver(qp, pkt) -> None:
            meta = pkt.meta
            if isinstance(meta, tuple) and meta and meta[0] == "lane-spray":
                seq.setdefault((qp.nic.ip, meta[2]), []).append(
                    (sid_order.get(meta[1], -1), pkt.psn, pkt.payload))
            else:
                seq.setdefault(qp.nic.ip, []).append(
                    (mid_order.get(pkt.msg_id, -1), pkt.psn, pkt.payload))

        sim.bus.subscribe("deliver", on_deliver)

        size = cfg.msg_packets * constants.MTU_BYTES
        state = {"completed": 0, "durations": []}
        dead_carry: Set[int] = set()

        def post_next() -> None:
            i = state["completed"]
            src = schedule.sources[i]
            if algo.group.current_source != src:
                algo.set_source(src)
            posted_at = sim.now

            def on_done(mid: int, now: float) -> None:
                state["completed"] += 1
                state["durations"].append(now - posted_at)
                i_next = state["completed"]
                if i_next < len(schedule.sources):
                    post_at_offset(sim, start, schedule.offsets[i_next],
                                   post_next)

            if cfg.paths > 1:
                lane_qps = [algo.group.lane_members[lane][src]
                            for lane in range(cfg.paths)]
                sprayer = LaneSprayer(sim, lane_qps, bus=sim.bus)
                # A lane declared dead stays dead for the trial — the
                # failover contract is per-spray, not a repair detector.
                sprayer.dead |= dead_carry
                health = LaneHealthMonitor(
                    sim, sprayer, interval=cfg.rto,
                    stall_timeout=cfg.lane_stall_timeout,
                    on_dead=lambda lane, _now: dead_carry.add(lane))

                def spray_done(sid: int, now: float) -> None:
                    health.stop()
                    on_done(sid, now)

                sprayer.on_complete = spray_done
                sid = sprayer.spray(size)
                sid_order[sid] = i
                health.start()
            else:
                mid = algo.qps[src].post_send(size, on_complete=on_done)
                mid_order[mid] = i

        post_next()
        sim.run(until=start + cfg.horizon, max_events=20_000_000)
        sim.bus.unsubscribe("deliver", on_deliver)

        # All incidents repair and all churn deltas land before the
        # horizon: the fabric must be structurally whole again.
        monitor.check_mft_consistency(fabric, expect_connected=True,
                                      injector=injector)
        violations = [v.to_dict() for v in monitor.violations]
        collector.add_violations(violations)
        for op, _ip, _why in mm.delta_failures:
            coverage.add(f"mmdelta/{deployment}/{op}/failed")
        if cfg.paths > 1:
            source_idle = all(
                algo.group.lane_members[lane][s].send_idle
                for s in set(schedule.sources)
                for lane in range(cfg.paths))
        else:
            source_idle = all(algo.qps[s].send_idle
                              for s in set(schedule.sources))
        return {
            "deployment": deployment,
            "completed": state["completed"],
            "durations": list(state["durations"]),
            "seq": seq,
            "source_idle": source_idle,
            "delta_failures": [list(f) for f in mm.delta_failures],
            "violations": violations,
            "events": sim.events_run,
        }
    finally:
        collector.detach()
        monitor.detach()


def _net_model(cfg: FuzzConfig) -> Tuple[NetModel, int]:
    """Analytic model + MDT depth matching the fuzz topologies."""
    if cfg.topo == "star":
        return NetModel(hops=1), 1
    return NetModel(hops=5), 4


def run_fuzz_trial(cfg: FuzzConfig, schedule: FuzzSchedule,
                   trial_index: int = 0) -> Dict[str, object]:
    """Run the schedule under every deployment and apply both oracles.

    Returns a JSON-able, fully deterministic record: per-deployment
    summaries, the unified coverage key list + signature, and a
    ``fail_reasons`` list (empty when the trial passes).
    """
    coverage = CoverageMap()
    runs = [_run_one_deployment(cfg, schedule, dep, coverage)
            for dep in cfg.deployments]
    reasons: List[str] = []
    expected = len(schedule.sources)
    for run in runs:
        dep = run["deployment"]
        for v in run["violations"]:
            reasons.append(f"invariant:{dep}:{v['invariant']}")
        if run["completed"] < expected or not run["source_idle"]:
            reasons.append(f"liveness:{dep}:{run['completed']}/{expected}")
        # A failed membership delta is only a bug on a healthy fabric;
        # with incidents in play, a join/leave racing a severed link is
        # *supposed* to exhaust its retries (the outcome still lands in
        # coverage as an mmdelta/ key).
        if run["delta_failures"] and not schedule.incidents:
            reasons.append(f"delta-failure:{dep}")

    # Oracle (a): byte-identical delivery sequences across deployments
    # for every stable receiver.  Only meaningful when every deployment
    # finished — an incomplete run already failed liveness above, and
    # its truncated sequences would double-report the same root cause.
    # Lane kills exempt the trial: failover re-spray timing (and hence
    # the post-kill lane assignment of every byte) is legitimately
    # deployment-dependent; the reassembly invariant still guards
    # exactly-once coverage inside each deployment.
    def _ip_of(key) -> int:
        return key[0] if isinstance(key, tuple) else key

    churned = {e.ip for e in schedule.churn}
    hosts_in_group = ({_ip_of(k) for k in runs[0]["seq"]} if runs else ())
    stable = sorted(ip for ip in hosts_in_group if ip not in churned)
    stable_set = set(stable)
    size = cfg.msg_packets * constants.MTU_BYTES
    all_complete = all(r["completed"] == expected and r["source_idle"]
                       for r in runs)
    if all_complete and len(runs) > 1 and not schedule.lane_kills:
        base = runs[0]
        for run in runs[1:]:
            keys = set(base["seq"]) | set(run["seq"])
            for key in sorted(keys):
                if _ip_of(key) not in stable_set:
                    continue
                if run["seq"].get(key, []) != base["seq"].get(key, []):
                    reasons.append(
                        f"diff-payload:{base['deployment']}"
                        f"vs{run['deployment']}:{key}")
        owed = {ip: sum(cfg.msg_packets
                        for s in schedule.sources if s != ip)
                for ip in stable}
        for run in runs:
            got_by_ip: Dict[int, int] = {}
            for key, deliveries in run["seq"].items():
                ip = _ip_of(key)
                got_by_ip[ip] = got_by_ip.get(ip, 0) + len(deliveries)
            for ip in stable:
                got = got_by_ip.get(ip, 0)
                if got != owed[ip]:
                    reasons.append(
                        f"delivery-count:{run['deployment']}:{ip}:"
                        f"{got}/{owed[ip]}")

    # Oracle (b): throughput within tolerance of the analytic model.
    # Floor always (nothing beats wire serialization); ceiling only for
    # quiescent schedules where the §II JCT model is the contract.
    net, depth = _net_model(cfg)
    floor = net.wire(size)
    quiescent = (not schedule.incidents and not schedule.churn
                 and not schedule.lane_kills and cfg.loss_rate == 0.0)
    ceiling = cfg.jct_slack * cepheus_jct(size, cfg.initial_members,
                                          net, mdt_depth=depth)
    for run in runs:
        for i, dur in enumerate(run["durations"]):
            if dur < floor:
                reasons.append(
                    f"throughput-floor:{run['deployment']}:msg{i}")
            if quiescent and dur > ceiling:
                reasons.append(
                    f"throughput-ceiling:{run['deployment']}:msg{i}")

    return {
        "trial": trial_index,
        "schedule": schedule.to_dict(),
        "schedule_hash": schedule.content_hash(),
        "coverage": coverage.to_list(),
        "coverage_signature": coverage.signature(),
        "deployments": [{
            "deployment": r["deployment"],
            "completed": r["completed"],
            "durations_us": [round(d * 1e6, 3) for d in r["durations"]],
            "source_idle": r["source_idle"],
            "violations": r["violations"],
            "events": r["events"],
        } for r in runs],
        "stable_receivers": stable,
        "fail_reasons": sorted(reasons),
        "failing": bool(reasons),
    }


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------

def run_fuzz(cfg: FuzzConfig, seed: int, budget_trials: int,
             corpus: Optional[List[FuzzSchedule]] = None,
             shrink: bool = True) -> Dict[str, object]:
    """Coverage-guided fuzzing session; deterministic for (cfg, seed,
    budget, corpus).

    The first trials replay the given corpus (its coverage is the
    baseline); the rest of the budget mutates corpus entries biased
    toward recent coverage finds, crosses pairs over, or draws fresh
    schedules.  The returned document carries the evolved corpus so
    callers can persist it with :func:`save_corpus`.
    """
    shape = _Shape(cfg)
    corpus = list(corpus or [])
    seen = {s.content_hash() for s in corpus}
    global_cov = CoverageMap()
    records: List[Dict[str, object]] = []
    reproducers: List[Dict[str, object]] = []
    new_entries: List[FuzzSchedule] = []
    for t in range(budget_trials):
        rng = trial_rng(seed, t)
        if t < len(corpus):
            schedule = corpus[t]
            origin = "corpus"
        elif corpus and rng.random() < 0.6:
            parent = rng.choice(corpus)
            schedule = mutate_schedule(cfg, parent, rng, shape)
            origin = "mutate"
        elif len(corpus) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(corpus, 2)
            schedule = crossover_schedules(cfg, a, b, rng, shape)
            origin = "crossover"
        else:
            schedule = generate_fuzz_schedule(cfg, rng, shape)
            origin = "generate"
        record = run_fuzz_trial(cfg, schedule, trial_index=t)
        fresh = global_cov.add_all(record["coverage"])
        h = schedule.content_hash()
        admitted = bool(fresh) and h not in seen
        if admitted:
            corpus.append(schedule)
            new_entries.append(schedule)
            seen.add(h)
        records.append({
            "trial": t,
            "origin": origin,
            "schedule_hash": h,
            "new_coverage": len(fresh),
            "admitted": admitted,
            "coverage_signature": record["coverage_signature"],
            "fail_reasons": record["fail_reasons"],
            "failing": record["failing"],
        })
        if record["failing"]:
            reproducers.append(package_failure(FUZZ, cfg, schedule, t,
                                               shrink))
    return {
        "config": cfg.to_dict(),
        "seed": seed,
        "budget_trials": budget_trials,
        "records": records,
        "coverage_keys": len(global_cov),
        "coverage_signature": global_cov.signature(),
        "corpus_size": len(corpus),
        "corpus_hashes": sorted(s.content_hash() for s in corpus),
        "new_corpus_entries": [s.to_dict() for s in new_entries],
        "failing_trials": [r["trial"] for r in records if r["failing"]],
        "reproducers": reproducers,
        "_corpus": corpus,   # stripped by the CLI before serialization
    }


# ---------------------------------------------------------------------------
# corpus persistence + replay
# ---------------------------------------------------------------------------

def save_corpus(dirpath: str, cfg: FuzzConfig,
                schedules: List[FuzzSchedule]) -> List[str]:
    """Write each schedule as ``input-<hash12>.json``; skips entries
    already on disk.  Returns the paths written."""
    os.makedirs(dirpath, exist_ok=True)
    written = []
    for s in schedules:
        path = os.path.join(dirpath, f"input-{s.content_hash()[:12]}.json")
        if os.path.exists(path):
            continue
        doc = {"kind": CORPUS_KIND, "config": cfg.to_dict(),
               "schedule": s.to_dict()}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def load_corpus(dirpath: str) -> List[Tuple[FuzzConfig, FuzzSchedule]]:
    """Load every corpus input, sorted by filename for determinism."""
    entries = []
    if not os.path.isdir(dirpath):
        return entries
    for name in sorted(os.listdir(dirpath)):
        if not name.endswith(".json"):
            continue
        entry = read_input(FUZZ, os.path.join(dirpath, name), CORPUS_KIND)
        if entry is not None:
            entries.append(entry)
    return entries


def _replay_entry(doc: Dict[str, object]) -> Dict[str, object]:
    """Worker for parallel corpus replay (module-level: picklable)."""
    cfg = FuzzConfig.from_dict(doc["config"])
    schedule = FuzzSchedule.from_dict(doc["schedule"])
    record = run_fuzz_trial(cfg, schedule)
    return {"schedule_hash": record["schedule_hash"],
            "coverage": record["coverage"],
            "coverage_signature": record["coverage_signature"],
            "fail_reasons": record["fail_reasons"],
            "failing": record["failing"]}


def replay_corpus(dirpath: str, jobs: int = 1) -> Dict[str, object]:
    """Re-run every corpus input; the unified coverage signature is
    identical whatever ``jobs`` is (set union is order-independent)."""
    entries = load_corpus(dirpath)
    docs = [{"config": c.to_dict(), "schedule": s.to_dict()}
            for c, s in entries]
    if jobs > 1 and len(docs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_replay_entry, docs))
    else:
        results = [_replay_entry(d) for d in docs]
    unified = CoverageMap()
    for r in results:
        unified.add_all(r["coverage"])
    return {
        "corpus_dir": dirpath,
        "inputs": len(results),
        "records": [{k: v for k, v in r.items() if k != "coverage"}
                    for r in results],
        "coverage_keys": len(unified),
        "coverage_signature": unified.signature(),
        "failing": sorted(r["schedule_hash"] for r in results
                          if r["failing"]),
    }


FUZZ = CampaignKind(
    name="fuzz", reproducer_kind="cepheus-fuzz-reproducer",
    config_cls=FuzzConfig, schedule_cls=FuzzSchedule,
    generate=generate_fuzz_schedule, run_trial=run_fuzz_trial,
    shrink_axes=("incidents", "churn", "lane_kills"),
    trailing=("sources", "offsets"), record_fields=("fail_reasons",))
