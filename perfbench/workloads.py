"""The benchmark's three workloads, driven through the public API.

Each workload function runs one *iteration*: build every cluster and
register every group (set-up), then run the simulation (the measured
phase), then check what the program computed.  The seed is the only
input; the program sees only what it generates.

* ``bcast_fattree`` — the line-rate per-packet data plane (fig12):
  one multi-MB broadcast per scheme to a 64-member group on a clean
  k=8 fat-tree; Cepheus under each deployment and the Chain baseline.
  No NACKs or retransmissions and almost no CNPs: the bypass case for
  recovery and congestion-control changes.
* ``lossy_incast`` — fig13 and fig14 combined: one Cepheus broadcast
  to all 16 hosts of a k=4 fat-tree while staggered unicast flows land
  on group members, with seeded random loss at agg/core switches.  It
  exercises go-back-N, NACK aggregation, retransmission filtering, RTO
  and ECN -> CNP -> DCQCN.
* ``pubsub_openloop`` — the broker-fabric trial as it ships (invariant
  monitor attached, so packet pooling is off): Zipf topics, Poisson
  64 KB publishes, subscription churn driving live MRP deltas, and
  unicast cross-traffic, open loop in virtual time.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from layers import layer_counts
from repro.apps import Cluster, brokerfabric
from repro.check.invariants import InvariantMonitor
from repro.collectives import CepheusBcast, ChainBcast
from repro.core.accelerator import AcceleratorConfig
from repro.core.membership import MembershipManager
from repro.net import SwitchConfig

__all__ = ["Iteration", "Phases", "WORKLOADS", "capture"]

MB = 1 << 20

#: Broadcast size of ``bcast_fattree``, one broadcast per scheme.
FATTREE_BCAST_BYTES = 2 * MB
FATTREE_K = 8
FATTREE_GROUP = 64
SCHEMES = ("cepheus-inline", "cepheus-lookaside", "cepheus-source_routed",
           "chain")

#: ``lossy_incast``: the broadcast, the loss rate at agg/core switches,
#: and the unicast flows as (src index, dst index, start s, bytes).  The
#: flows converge on hosts 3 and 5, which also receive the broadcast.
INCAST_BCAST_BYTES = 16 * MB
# fig13's top quick-mode rate.  At 1e-3 the number of go-back-N
# timeouts per seed ranged from 0 to 18 and the work one seed draws
# varied by a quartile spread of 24%, wider than any usable bound.
INCAST_LOSS = 5e-4
INCAST_FLOWS = (
    (8, 3, 0.2e-3, 4 * MB),
    (12, 3, 0.4e-3, 4 * MB),
    (6, 5, 0.6e-3, 4 * MB),
    (14, 5, 0.8e-3, 4 * MB),
)


@dataclass
class Iteration:
    """What one iteration measured and computed."""

    setup_s: float
    wall_s: float
    #: operations (broadcasts, flows, publishes) per output key
    ops: Dict[str, int]
    #: operations that failed a seed-independent check, per output key
    failed: Dict[str, int]
    #: payload bytes delivered to receiver applications
    payload_bytes: int
    #: virtual-time results, per output key (reference-checked)
    outputs: Dict[str, object]
    #: exact per-layer counts
    counts: Dict[str, float]
    #: host seconds per scheme, from the benchmark's own calls
    run_s: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: which of the run's input draws this iteration ran
    draw: int = 0

    def fail(self, key: str, why: str, n: Optional[int] = None) -> None:
        """Count ``n`` (default: all) operations of ``key`` as failed."""
        n = self.ops[key] if n is None else n
        self.failed[key] = min(self.ops[key], self.failed.get(key, 0) + n)
        self.problems.append(f"{key}: {why}")


class Phases:
    """Splits an iteration into set-up and measured phase."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.t0 = perf_counter()
        self.t1: Optional[float] = None
        self.t2: Optional[float] = None

    def measure(self) -> None:
        if self.t1 is None:
            self.t1 = perf_counter()
            if self.tracer is not None:
                self.tracer.restart()

    def done(self) -> None:
        self.t2 = perf_counter()

    @property
    def setup_s(self) -> float:
        return self.t1 - self.t0

    @property
    def wall_s(self) -> float:
        return self.t2 - self.t1


@contextmanager
def capture():
    """Collect every Cluster, MembershipManager and InvariantMonitor
    built inside the block, for the per-layer counts."""
    found: Dict[type, list] = {Cluster: [], MembershipManager: [],
                               InvariantMonitor: []}
    saved = []

    def recording(init: Callable, bucket: list) -> Callable:
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            bucket.append(self)
        return __init__

    for cls, bucket in found.items():
        saved.append((cls, cls.__dict__["__init__"]))
        cls.__init__ = recording(cls.__dict__["__init__"], bucket)
    try:
        yield found
    finally:
        for cls, init in saved:
            cls.__init__ = init


def _counts(found) -> Dict[str, float]:
    return layer_counts(found[Cluster], found[MembershipManager],
                        found[InvariantMonitor])


def _delivered(cluster, ip: int) -> int:
    """Payload bytes the host's QPs delivered in order to the app."""
    return sum(qp.recv.bytes_delivered for qp in cluster.ctx(ip).qps)


def _payload(cluster) -> int:
    return sum(_delivered(cluster, ip) for ip in cluster.host_ips)


# ---------------------------------------------------------------------------
# bcast_fattree
# ---------------------------------------------------------------------------

def bcast_fattree(seed: int, phases: Phases) -> Iteration:
    rng = random.Random(seed)
    with capture() as found:
        algos = {}
        for scheme in SCHEMES:
            if scheme == "chain":
                cl = Cluster.fat_tree_cluster(FATTREE_K)
            else:
                deployment = scheme.split("-", 1)[1]
                cl = Cluster.fat_tree_cluster(
                    FATTREE_K,
                    accel_config=AcceleratorConfig(deployment=deployment))
            if not algos:
                members = sorted(rng.sample(list(cl.host_ips),
                                            FATTREE_GROUP))
                root = rng.choice(members)
            if scheme == "chain":
                # Chain slices = group size, as in fig12.
                algo = ChainBcast(cl, members, root, slices=FATTREE_GROUP)
            else:
                algo = CepheusBcast(cl, members, root)
            algo.prepare()
            algos[scheme] = algo

        phases.measure()
        it = Iteration(0.0, 0.0, ops={s: 1 for s in SCHEMES}, failed={},
                       payload_bytes=0, outputs={}, counts={})
        for scheme, algo in algos.items():
            t0 = perf_counter()
            try:
                res = algo.run(FATTREE_BCAST_BYTES)
            except Exception as exc:  # a broken run fails its operation
                it.fail(scheme, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                it.run_s[scheme] = perf_counter() - t0
            it.outputs[scheme] = {
                "jct_s": res.jct,
                "sender_done_s": res.sender_done,
                "recv_s": [res.recv_times.get(ip) for ip in members],
            }
        phases.done()

    for scheme, algo in algos.items():
        cl = algo.cluster
        for ip in cl.host_ips:
            want = (FATTREE_BCAST_BYTES if ip in members and ip != root
                    else 0)
            got = _delivered(cl, ip)
            if got != want:
                it.fail(scheme, f"host {ip} delivered {got} B, want {want}")
                break
        it.payload_bytes += _payload(cl)
    it.setup_s, it.wall_s = phases.setup_s, phases.wall_s
    it.counts = _counts(found)
    return it


# ---------------------------------------------------------------------------
# lossy_incast
# ---------------------------------------------------------------------------

def lossy_incast(seed: int, phases: Phases) -> Iteration:
    with capture() as found:
        cl = Cluster.fat_tree_cluster(4, switch_config=SwitchConfig(seed=seed))
        cl.topo.set_loss_rate(INCAST_LOSS, layers=("agg", "core"))
        sim = cl.sim
        hosts = list(cl.host_ips)
        algo = CepheusBcast(cl, hosts)
        algo.prepare()
        flows = []
        for i, (s, d, start, size) in enumerate(INCAST_FLOWS):
            src, dst = hosts[s], hosts[d]
            flows.append((f"flow{i}", cl.qp_to(src, dst), cl.qp_to(dst, src),
                          start, size))

        phases.measure()
        keys = ["bcast"] + [f[0] for f in flows]
        it = Iteration(0.0, 0.0, ops={k: 1 for k in keys}, failed={},
                       payload_bytes=0, outputs={}, counts={})
        fct: Dict[str, float] = {}
        t0 = sim.now
        for key, tx, rx, start, size in flows:
            def on_message(mid, nbytes, now, meta, _key=key, _start=start):
                fct[_key] = now - t0 - _start
            rx.on_message = on_message
            sim.schedule(start, lambda _tx=tx, _size=size: _tx.post_send(_size))
        try:
            res = algo.run(INCAST_BCAST_BYTES)
            it.outputs["bcast"] = {
                "jct_s": res.jct,
                "sender_done_s": res.sender_done,
                "recv_s": [res.recv_times.get(ip) for ip in hosts],
            }
        except Exception as exc:  # a broken run fails every operation
            for key in keys:
                it.fail(key, f"{type(exc).__name__}: {exc}")
        phases.done()

    for key, tx, rx, start, size in flows:
        if key in fct and rx.recv.bytes_delivered == size:
            it.outputs[key] = {"fct_s": fct[key]}
        else:
            it.fail(key, f"delivered {rx.recv.bytes_delivered} B of {size}")
    for ip in hosts:
        want = (INCAST_BCAST_BYTES if ip != algo.root else 0) + sum(
            size for _, _, rx, _, size in flows if rx.nic.ip == ip)
        got = _delivered(cl, ip)
        if got != want:
            it.fail("bcast", f"host {ip} delivered {got} B, want {want}")
            break
    it.payload_bytes = _payload(cl)
    it.setup_s, it.wall_s = phases.setup_s, phases.wall_s
    it.counts = _counts(found)
    return it


# ---------------------------------------------------------------------------
# pubsub_openloop
# ---------------------------------------------------------------------------

def pubsub_config():
    # Every topic starts with 16 subscribers, so the work a seed draws
    # depends on its publish count, not on which topics came out large.
    return brokerfabric.BrokerFabricConfig(
        topo="fat_tree", k=8, hosts=64, topics=32,
        min_subscribers=16, max_subscribers=16,
        publish_rate=40_000.0, churn_rate=40_000.0, horizon=0.005)


#: Trial-record fields that count events rather than results: they may
#: change when the event core does the same work with fewer events.
_EVENT_COUNT_FIELDS = ("events", "checked")


def pubsub_openloop(seed: int, phases: Phases) -> Iteration:
    cfg = pubsub_config()
    with capture() as found:
        schedule = brokerfabric.generate_brokerfabric_schedule(
            cfg, random.Random(seed))
        # The trial builds its cluster and topics, then hands the op
        # streams to schedule_ops: the first call starts the measured
        # window.
        schedule_ops = brokerfabric.schedule_ops

        def first_op(*args, **kwargs):
            phases.measure()
            return schedule_ops(*args, **kwargs)

        brokerfabric.schedule_ops = first_op
        try:
            rec = brokerfabric.run_brokerfabric_trial(cfg, schedule)
        except Exception as exc:  # a broken trial fails every operation
            phases.measure()
            phases.done()
            ops = len(schedule.ops.publishes) + len(schedule.ops.cross)
            it = Iteration(phases.setup_s, phases.wall_s, ops={"trial": ops},
                           failed={}, payload_bytes=0, outputs={}, counts={})
            it.fail("trial", f"{type(exc).__name__}: {exc}")
            it.counts = _counts(found)
            return it
        finally:
            brokerfabric.schedule_ops = schedule_ops
        phases.done()

    published = rec["published"]
    it = Iteration(phases.setup_s, phases.wall_s,
                   ops={"trial": published + rec["cross_sent"]}, failed={},
                   payload_bytes=0, outputs={}, counts={})
    if rec["publish_done"] != published:
        it.fail("trial", f"{published - rec['publish_done']} publishes "
                "never completed", published - rec["publish_done"])
    for why in ("violations", "undrained_topics", "delta_failures",
                "fallbacks"):
        if rec[why]:
            it.fail("trial", f"{len(rec[why])} {why}")
    cluster = found[Cluster][-1]
    it.payload_bytes = _payload(cluster)
    want = rec["deliveries"] * cfg.msg_size + rec["cross_sent"] * cfg.cross_size
    if it.payload_bytes != want:
        it.fail("trial", f"delivered {it.payload_bytes} B, want {want}")
    it.outputs["trial"] = {k: v for k, v in rec.items()
                           if k not in _EVENT_COUNT_FIELDS}
    it.counts = _counts(found)
    return it


WORKLOADS: Dict[str, Callable[[int, Phases], Iteration]] = {
    "bcast_fattree": bcast_fattree,
    "lossy_incast": lossy_incast,
    "pubsub_openloop": pubsub_openloop,
}
