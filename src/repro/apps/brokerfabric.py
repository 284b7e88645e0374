"""Broker fabric: a pub/sub deployment under open-loop load (§I).

The paper motivates Cepheus with Kafka-style publish-subscribe: topics
with large subscriber sets, continuous subscription churn, and brokers
whose egress bandwidth is the fan-out bottleneck.  :mod:`repro.apps.
pubsub` models one broker publishing closed-loop; this module scales
that to a *fabric*: many topics over a multi-rack cluster, each topic
backed by its own MDT multicast group, driven by the open-loop engine
(:mod:`repro.harness.openloop`) so the delivery-latency tail is an
honest queueing measurement rather than a one-deep echo test.

One trial is a pure function of (config, schedule):

* build the cluster, create every topic (per-topic MFT registration is
  setup, excluded from the measured window like every scheme's
  connection establishment);
* replay the schedule's three pre-drawn op streams — Poisson publishes
  on Zipf-popular topics, subscription toggles (incremental MRP deltas,
  optionally coalesced), and background unicast cross-traffic;
* record per-delivery latency into a seeded reservoir
  (:class:`~repro.net.telemetry.LatencyStats`) and report the SLO
  surface: p50/p99/p999 delivery latency, **delivery amplification**
  (broker egress bytes per payload byte — 1.0 is perfect multicast;
  MRP control packets ride the same NIC and are charged honestly), and
  **control-plane overhead** (MRP deltas + confirms per membership op).

A delta failure trips the topic's safeguard monitor (§V-D) — recorded
as a fallback event and a failing trial, never a hang.  Campaigns,
greedy shrinking, and JSON reproducers come from the shared campaign
engine (:mod:`repro.harness.campaign`); ``cepheus-repro broker replay``
re-executes a reproducer bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import constants
from repro.apps.pubsub import Broker
from repro.check import InvariantMonitor
from repro.core.fallback import SafeguardMonitor
from repro.harness.campaign import CampaignConfig, CampaignKind, build_cluster
from repro.harness.openloop import (
    ChurnOp, CrossOp, OpenLoopSchedule, PublishOp, generate_churn_stream,
    generate_cross_stream, generate_publish_stream, schedule_ops,
)
from repro.net.telemetry import LatencyStats

__all__ = [
    "BrokerFabricConfig", "BrokerFabricSchedule",
    "generate_brokerfabric_schedule", "run_brokerfabric_trial", "BROKER",
]


@dataclass(frozen=True)
class BrokerFabricConfig(CampaignConfig):
    """Parameters of one broker-fabric campaign."""

    topo: str = "fat_tree"        # "star" | "fat_tree"
    hosts: int = 16               # star size / fat-tree hosts_limit
    k: int = 4                    # fat-tree arity
    topics: int = 6               # topic count (topic 0 is the hottest)
    min_subscribers: int = 3      # initial subscriber-set draw, per topic
    max_subscribers: int = 8
    msg_size: int = 65536         # publish payload bytes
    publish_rate: float = 60000.0  # Poisson publish arrivals / s (fabric-wide)
    zipf_alpha: float = 0.9       # topic popularity skew
    churn_rate: float = 2000.0    # subscription toggles / s
    cross_rate: float = 4000.0    # background unicast transfers / s
    cross_size: int = 131072      # bytes per cross-traffic transfer
    horizon: float = 0.02         # measured window (virtual s)
    drain: float = 0.02           # extra time for in-flight tails
    coalesce_window: Optional[float] = None   # MRP delta batching (s)
    loss_rate: float = 0.0
    rto: float = 200e-6
    retransmit_mode: str = "gbn"


@dataclass(frozen=True)
class BrokerFabricSchedule:
    """Pure trial input: initial subscriber sets + the three op streams."""

    trial_seed: int
    topic_subs: Tuple[Tuple[int, ...], ...]
    ops: OpenLoopSchedule

    def to_dict(self) -> Dict[str, object]:
        return {"trial_seed": self.trial_seed,
                "topic_subs": [list(s) for s in self.topic_subs],
                "ops": self.ops.to_dict()}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "BrokerFabricSchedule":
        return cls(trial_seed=d["trial_seed"],
                   topic_subs=tuple(tuple(s) for s in d["topic_subs"]),
                   ops=OpenLoopSchedule.from_dict(d["ops"]))


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

def generate_brokerfabric_schedule(cfg: BrokerFabricConfig,
                                   rng) -> BrokerFabricSchedule:
    """Draw one randomized-but-reproducible broker-fabric schedule."""
    trial_seed = rng.randrange(1 << 31)
    cluster = build_cluster(cfg, 0)   # shape-only; state is discarded
    hosts = list(cluster.topo.host_ips)
    if len(hosts) < 3:
        raise ValueError("broker fabric needs at least 3 hosts")
    candidates = hosts[1:]             # hosts[0] is the broker
    lo = min(cfg.min_subscribers, len(candidates))
    hi = min(cfg.max_subscribers, len(candidates))
    if lo < 2:
        raise ValueError("topics need at least 2 initial subscribers")
    topic_subs = tuple(
        tuple(sorted(rng.sample(candidates, rng.randint(lo, hi))))
        for _ in range(cfg.topics))
    ops = OpenLoopSchedule(
        trial_seed=trial_seed,
        publishes=generate_publish_stream(
            rng, rate=cfg.publish_rate, horizon=cfg.horizon,
            n_topics=cfg.topics, zipf_alpha=cfg.zipf_alpha,
            size=cfg.msg_size),
        churn=generate_churn_stream(
            rng, rate=cfg.churn_rate, horizon=cfg.horizon,
            n_topics=cfg.topics, hosts=candidates,
            zipf_alpha=cfg.zipf_alpha),
        cross=generate_cross_stream(
            rng, rate=cfg.cross_rate, horizon=cfg.horizon,
            hosts=candidates, size=cfg.cross_size),
    )
    return BrokerFabricSchedule(trial_seed=trial_seed,
                                topic_subs=topic_subs, ops=ops)


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

def run_brokerfabric_trial(cfg: BrokerFabricConfig,
                           schedule: BrokerFabricSchedule,
                           trial_index: int = 0) -> Dict[str, object]:
    """Execute one open-loop trial; returns a JSON-able record."""
    cluster = build_cluster(cfg, schedule.trial_seed)
    sim = cluster.sim
    fabric = cluster.fabric
    monitor = InvariantMonitor()
    monitor.attach_cluster(cluster)
    try:
        broker_ip = cluster.host_ips[0]
        broker = Broker(cluster, broker_ip, transport="cepheus")

        # -- topics: per-topic multicast group + membership controller --
        topics = []
        mms = []
        fallbacks: List[Tuple[int, str]] = []
        for i, subs in enumerate(schedule.topic_subs):
            topic = broker.create_topic(f"topic{i:03d}", list(subs))
            group = topic._engine.group
            mm = fabric.membership(group,
                                   coalesce_window=cfg.coalesce_window)
            guard = SafeguardMonitor(
                sim, topic._engine.qps[broker_ip],
                constants.LINK_BANDWIDTH_BPS,
                on_fallback=lambda why, _i=i: fallbacks.append((_i, why)))
            mm.safeguard = guard       # trips on delta failure (§V-D)
            topics.append(topic)
            mms.append(mm)

        full_records = sum(a.mrp_records_installed
                           for a in fabric.accelerators.values())
        initial_subscriptions = sum(len(s) for s in schedule.topic_subs)

        # -- delivery measurement ---------------------------------------
        lat = LatencyStats(seed=0)
        publish_time: Dict[int, float] = {}    # msg_id -> post time
        counters = {
            "published": 0, "publish_done": 0, "deliveries": 0,
            "payload_bytes": 0, "subscribes": 0, "unsubscribes": 0,
            "churn_skipped": 0, "cross_sent": 0,
        }

        def wire(i: int, ip: int) -> None:
            # Deliveries are matched to publishes by the sender-assigned
            # msg_id, so the accounting is indifferent to join timing
            # (a joiner simply never sees pre-admission msg_ids).
            def on_msg(mid, sz, now, meta) -> None:
                t0 = publish_time.get(mid)
                if t0 is not None:
                    counters["deliveries"] += 1
                    lat.record(now - t0)
            topics[i]._engine.group.members[ip].on_message = on_msg

        for i, subs in enumerate(schedule.topic_subs):
            for ip in subs:
                wire(i, ip)

        # -- op execution -----------------------------------------------
        def publish_done(mid: int, now: float) -> None:
            counters["publish_done"] += 1

        def do_publish(op: PublishOp) -> None:
            counters["published"] += 1
            counters["payload_bytes"] += op.size
            mid = topics[op.topic]._engine.qps[broker_ip].post_send(
                op.size, on_complete=publish_done)
            publish_time[mid] = sim.now

        def do_churn(op: ChurnOp) -> None:
            group = topics[op.topic]._engine.group
            mm = mms[op.topic]
            ip = op.ip
            if ip == broker_ip or mm.has_inflight(ip):
                counters["churn_skipped"] += 1
                return
            if ip in group.members:
                if (ip == group.leader_ip or ip == group.current_source
                        or len(group.members) <= 2):
                    counters["churn_skipped"] += 1
                    return
                mm.leave(ip)
                counters["unsubscribes"] += 1
            else:
                mm.join(ip, cluster.ctx(ip).create_qp())
                wire(op.topic, ip)
                counters["subscribes"] += 1

        def do_cross(op: CrossOp) -> None:
            cluster.qp_to(op.src, op.dst).post_send(op.size)
            counters["cross_sent"] += 1

        # -- the measured window ------------------------------------------
        broker_nic = cluster.topo.nic(broker_ip)
        tx0 = broker_nic.ports[0].stats.tx_bytes
        start = sim.now
        schedule_ops(sim, start, schedule.ops.publishes, do_publish)
        schedule_ops(sim, start, schedule.ops.churn, do_churn)
        schedule_ops(sim, start, schedule.ops.cross, do_cross)
        sim.run(until=start + cfg.horizon + cfg.drain,
                max_events=50_000_000)
        for mm in mms:
            mm.flush_pending()
        sim.run(until=sim.now + cfg.drain, max_events=50_000_000)

        broker_tx = broker_nic.ports[0].stats.tx_bytes - tx0
        monitor.check_mft_consistency(fabric, expect_connected=True)

        # -- SLO surface ---------------------------------------------------
        s = lat.summary()
        payload = counters["payload_bytes"]
        membership_ops = sum(m.membership_ops for m in mms)
        deltas = sum(m.mrp_deltas_sent for m in mms)
        confirms = sum(m.mrp_confirms_rx for m in mms)
        delta_failures = [list(f) for m in mms for f in m.delta_failures]
        undrained = [t.name for t in topics
                     if not t._engine.qps[broker_ip].send_idle]
        final_subscriptions = sum(
            len(t._engine.group.members) - 1 for t in topics)
        violations = [v.to_dict() for v in monitor.violations]
        failing = (bool(violations) or bool(undrained)
                   or bool(delta_failures) or bool(fallbacks)
                   or counters["publish_done"] < counters["published"])
        return {
            "trial": trial_index,
            "trial_seed": schedule.trial_seed,
            "topics": len(topics),
            "hosts": len(cluster.host_ips),
            "initial_subscriptions": initial_subscriptions,
            "final_subscriptions": final_subscriptions,
            "published": counters["published"],
            "publish_done": counters["publish_done"],
            "deliveries": counters["deliveries"],
            "subscribes": counters["subscribes"],
            "unsubscribes": counters["unsubscribes"],
            "churn_skipped": counters["churn_skipped"],
            "cross_sent": counters["cross_sent"],
            "latency_us": {
                "count": s["count"],
                "mean": round(s["mean"] * 1e6, 3),
                "p50": round(s["p50"] * 1e6, 3),
                "p99": round(s["p99"] * 1e6, 3),
                "p999": round(s["p999"] * 1e6, 3),
                "max": round(s["max"] * 1e6, 3),
            },
            "broker_tx_bytes": broker_tx,
            "payload_bytes": payload,
            "amplification": round(broker_tx / payload, 4) if payload else 0.0,
            "membership_ops": membership_ops,
            "mrp_deltas_sent": deltas,
            "mrp_confirms_rx": confirms,
            "deltas_per_op": round(deltas / membership_ops, 4)
            if membership_ops else 0.0,
            "mrp_records_delta": sum(
                a.mrp_records_installed
                for a in fabric.accelerators.values()) - full_records,
            "delta_failures": delta_failures,
            "fallbacks": [[i, why] for i, why in fallbacks],
            "undrained_topics": undrained,
            "events": sim.events_run,
            "checked": monitor.events_checked,
            "violations": violations,
            "failing": failing,
        }
    finally:
        monitor.detach()


BROKER = CampaignKind(
    name="broker", reproducer_kind="cepheus-broker-reproducer",
    config_cls=BrokerFabricConfig, schedule_cls=BrokerFabricSchedule,
    generate=generate_brokerfabric_schedule,
    run_trial=run_brokerfabric_trial,
    shrink_axes=("ops.churn", "ops.cross"), trailing=("ops.publishes",),
    record_fields=("violations", "delta_failures", "undrained_topics"))
