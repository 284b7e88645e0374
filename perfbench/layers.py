"""The layer map: which repro modules form each layer, which of their
functions the traced run wraps, which per-layer metrics each layer
reports, and which end-to-end metric each should move on which
workload.

Later changes cite layers and metrics by the names used here.  The
counts come from per-object counters after an untraced iteration, so
they are exact and repeat on every run of one seed; ``*.self_s`` comes
from the traced run (see ``tracer.py``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

__all__ = ["Layer", "LAYERS", "COUNTS", "SELF_TIME_LAYERS", "layer_counts"]


@dataclass(frozen=True)
class Layer:
    """One layer of the simulator as the benchmark measures it."""

    name: str
    modules: Tuple[str, ...]
    #: ``(module, class, methods)`` wrapped by the traced run: the
    #: public entry points plus the handlers the event core dispatches.
    traced: Tuple[Tuple[str, str, Tuple[str, ...]], ...]
    metrics: Tuple[str, ...]
    moves: str
    where: str


LAYERS: Tuple[Layer, ...] = (
    Layer("simulator", ("net.simulator",),
          (("repro.net.simulator", "Simulator", ("run",)),),
          ("simulator.events", "simulator.events_per_pkt",
           "simulator.self_s"),
          "wall_s on all workloads",
          "per-packet cost dominates in bcast_fattree"),
    Layer("port", ("net.port", "net.pfc"),
          (("repro.net.port", "Port",
            ("enqueue", "_on_tx_done", "send_control", "set_paused")),
           ("repro.net.pfc", "PfcManager",
            ("on_enqueue", "on_dequeue", "handle_frame"))),
          ("port.tx_pkts", "port.ecn_marks", "port.drops",
           "pfc.pause_frames", "port.self_s"),
          "wall_s",
          "bcast_fattree (idle-port tx-done); ECN only in lossy_incast"),
    Layer("switch", ("net.switch",),
          (("repro.net.switch", "Switch", ("receive", "emit")),),
          ("switch.rx_pkts", "switch.forwarded", "switch.random_drops",
           "switch.self_s"),
          "wall_s",
          "unicast forwarding in bcast_fattree (Chain); drops only in "
          "lossy_incast"),
    Layer("pipeline", ("net.pipeline",),
          (("repro.net.pipeline", "Pipeline", ("run", "resume")),),
          ("pipeline.self_s",),
          "wall_s",
          "every classified packet; stage bodies are charged to their "
          "owning layer"),
    Layer("accelerator", ("core.accelerator", "core.mft"),
          (("repro.core.accelerator", "CepheusAccelerator",
            ("process", "_resume", "stage_admit", "stage_lookaside_detour",
             "stage_mrp", "stage_sp_forward", "stage_mft_lookup",
             "stage_reduce", "stage_track_source", "stage_replicate",
             "stage_bridge", "stage_feedback")),),
          ("accelerator.data_in", "accelerator.replicas_out",
           "accelerator.retx_filtered", "accelerator.self_s"),
          "wall_s, goodput_MBps",
          "Cepheus runs of bcast_fattree, pubsub_openloop; Chain bypasses "
          "it"),
    Layer("feedback", ("core.feedback",),
          (("repro.core.feedback", "FeedbackEngine",
            ("on_ack", "on_nack", "on_cnp", "reevaluate")),),
          ("feedback.acks_in", "feedback.acks_out", "feedback.ack_fanin",
           "feedback.nacks_in", "feedback.nacks_out", "feedback.cnps_in",
           "feedback.cnps_out", "feedback.self_s"),
          "wall_s",
          "ACKs in bcast_fattree; NACK/CNP only in lossy_incast"),
    Layer("nic", ("net.nic",),
          (("repro.net.nic", "Nic", ("receive", "send")),),
          ("nic.rx_pkts", "nic.self_s"),
          "wall_s",
          "all workloads"),
    Layer("roce", ("transport.roce",),
          (("repro.transport.roce", "RoceQP",
            ("post_send", "handle_packet", "_tx_one", "_on_rto")),),
          ("roce.tx_data_pkts", "roce.retx_pkts", "roce.useful_tx_ratio",
           "roce.timeouts", "roce.cnps_sent", "roce.self_s"),
          "wall_s, goodput_MBps",
          "lossy_incast; zero retransmissions in bcast_fattree"),
    Layer("dcqcn", ("transport.dcqcn",),
          (("repro.transport.dcqcn", "DcqcnRateController",
            ("on_cnp", "on_bytes_sent", "_alpha_tick", "_rate_tick")),),
          ("dcqcn.self_s",),
          "wall_s, goodput_MBps",
          "rate updates only after CNPs, i.e. in lossy_incast"),
    Layer("pool", ("net.pool",), (),
          ("pool.pkt_reused", "pool.pkt_created", "pool.pkt_reuse_ratio",
           "pool.ctx_reused", "pool.ctx_created", "pool.ctx_reuse_ratio",
           "pool.pkt_suppressed"),
          "wall_s, peak_rss_MB",
          "on in bcast_fattree; packet pool off in pubsub_openloop"),
    Layer("membership", ("core.mrp", "core.membership", "core.fabric"),
          (("repro.core.membership", "MembershipManager",
            ("join", "leave", "flush_pending", "_fd_tick")),
           ("repro.core.membership", "MembershipDelta", ("_on_timeout",)),
           ("repro.core.mrp", "MrpController",
            ("_send_mrp_packets", "_on_timeout")),
           ("repro.core.mrp", "HostControlAgent", ("_dispatch",)),
           ("repro.core.fabric", "CepheusFabric", ("register_sync",))),
          ("membership.ops", "mrp.deltas_sent", "mrp.confirms_rx",
           "mrp.records_installed", "membership.self_s",
           "fabric.register_s"),
          "setup_s everywhere; wall_s on pubsub_openloop",
          "registration only in bcast_fattree and lossy_incast"),
    Layer("topology", ("net.topology", "apps.cluster"), (),
          ("topology.build_s",),
          "setup_s, peak_rss_MB",
          "k=8 fabrics"),
    Layer("check", ("check.invariants",),
          (("repro.check.invariants", "InvariantMonitor",
            ("on_event", "on_qp_send", "on_qp_deliver",
             "on_membership_epoch", "on_lane_spray", "on_lane_complete",
             "on_feedback", "on_replicate", "check_mft_consistency")),),
          ("check.events_checked", "check.self_s"),
          "wall_s on pubsub_openloop",
          "absent elsewhere"),
    Layer("collectives", ("collectives",), (),
          ("collectives.cepheus-inline.run_s",
           "collectives.cepheus-lookaside.run_s",
           "collectives.cepheus-source_routed.run_s",
           "collectives.chain.run_s"),
          "wall_s on bcast_fattree",
          "per scheme"),
    Layer("trace", (), (),
          ("trace.overhead", "trace.wall_s", "trace.unattributed_s"),
          "none",
          "all workloads"),
)

#: Every exact count :func:`layer_counts` reports (ratios come on top).
COUNTS: Tuple[str, ...] = (
    "simulator.events", "port.tx_pkts", "port.ecn_marks", "port.drops",
    "pfc.pause_frames", "switch.rx_pkts", "switch.forwarded",
    "switch.random_drops", "accelerator.data_in", "accelerator.replicas_out",
    "accelerator.retx_filtered", "feedback.acks_in", "feedback.acks_out",
    "feedback.nacks_in", "feedback.nacks_out", "feedback.cnps_in",
    "feedback.cnps_out", "nic.rx_pkts", "roce.tx_data_pkts",
    "roce.retx_pkts", "roce.timeouts", "roce.cnps_sent", "pool.pkt_reused",
    "pool.pkt_created", "pool.pkt_suppressed", "pool.ctx_reused",
    "pool.ctx_created", "membership.ops", "mrp.deltas_sent",
    "mrp.confirms_rx", "mrp.records_installed", "check.events_checked",
)

#: Layers whose self time the traced run reports as ``<name>.self_s``.
SELF_TIME_LAYERS: Tuple[str, ...] = tuple(
    layer.name for layer in LAYERS if layer.traced)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(clusters: Iterable, managers: Iterable,
                 monitors: Iterable) -> Dict[str, float]:
    """Exact per-layer counts summed over every object an iteration
    built; ratios sit beside the counts they are made from."""
    from repro.net.switch import Switch

    c: Counter = Counter()
    for cl in clusters:
        topo = cl.topo
        sim = cl.sim
        c["simulator.events"] += sim.events_run
        devices = list(topo.switches) + list(topo.nics.values())
        for dev in devices:
            for port in dev.ports:
                st = port.stats
                c["port.tx_pkts"] += st.tx_packets
                c["port.ecn_marks"] += st.ecn_marks
                c["port.drops"] += st.drops
                # Every transmitted packet is delivered to the peer once
                # the event queue drains, so a switch's arrivals are its
                # neighbours' transmissions.
                if isinstance(port.peer_device, Switch):
                    c["switch.rx_pkts"] += st.tx_packets
        for sw in topo.switches:
            c["pfc.pause_frames"] += sw.pfc.pause_frames_sent
            c["switch.forwarded"] += sw.forwarded
            c["switch.random_drops"] += sw.random_drops
        for nic in topo.nics.values():
            c["nic.rx_pkts"] += nic.rx_packets
        if cl.fabric is not None:
            for acc in cl.fabric.accelerators.values():
                c["accelerator.data_in"] += acc.data_in
                c["accelerator.replicas_out"] += acc.replicas_out
                c["accelerator.retx_filtered"] += acc.retransmits_filtered
                c["mrp.records_installed"] += acc.mrp_records_installed
                fb = acc.feedback
                for name in ("acks_in", "acks_out", "nacks_in", "nacks_out",
                             "cnps_in", "cnps_out"):
                    c["feedback." + name] += getattr(fb, name)
        for ctx in cl.ctxs.values():
            for qp in ctx.qps:
                c["roce.tx_data_pkts"] += qp.tx_data_packets
                c["roce.retx_pkts"] += qp.retransmitted_packets
                c["roce.timeouts"] += qp.timeouts
                c["roce.cnps_sent"] += qp.cnps_sent
        pools = sim.pools
        c["pool.pkt_reused"] += pools.pkt.reused
        c["pool.pkt_created"] += pools.pkt.created
        c["pool.pkt_suppressed"] += pools.pkt.suppressed
        c["pool.ctx_reused"] += pools.ctx.reused
        c["pool.ctx_created"] += pools.ctx.created
    for mm in managers:
        c["membership.ops"] += mm.membership_ops
        c["mrp.deltas_sent"] += mm.mrp_deltas_sent
        c["mrp.confirms_rx"] += mm.mrp_confirms_rx
    for mon in monitors:
        c["check.events_checked"] += mon.events_checked

    counts: Dict[str, float] = {name: c[name] for name in COUNTS}
    counts["simulator.events_per_pkt"] = _ratio(
        c["simulator.events"], c["port.tx_pkts"])
    counts["feedback.ack_fanin"] = _ratio(
        c["feedback.acks_in"], c["feedback.acks_out"])
    counts["roce.useful_tx_ratio"] = _ratio(
        c["roce.tx_data_pkts"] - c["roce.retx_pkts"], c["roce.tx_data_pkts"])
    counts["pool.pkt_reuse_ratio"] = _ratio(
        c["pool.pkt_reused"], c["pool.pkt_reused"] + c["pool.pkt_created"])
    counts["pool.ctx_reuse_ratio"] = _ratio(
        c["pool.ctx_reused"], c["pool.ctx_reused"] + c["pool.ctx_created"])
    return counts
