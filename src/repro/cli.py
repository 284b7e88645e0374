"""Command-line interface.

Installed as the ``cepheus-repro`` console script::

    cepheus-repro experiments --only fig8,tab1   # reproduce figures
    cepheus-repro experiments --full             # paper-scale params
    cepheus-repro demo                           # 60-second tour
    cepheus-repro sweep --sizes 64,1048576 --groups 4,8 \
                        --algorithms cepheus,chain
    cepheus-repro chaos run --seed 7 --trials 5  # invariant-checked chaos
    cepheus-repro chaos replay repro.json        # re-run a reproducer
    cepheus-repro churn run --seed 11 --trials 3 # membership-churn campaign
    cepheus-repro churn replay repro.json        # re-run a churn reproducer
    cepheus-repro broker run --seed 11 --trials 3 --coalesce-window 5e-4
    cepheus-repro broker replay repro.json       # re-run a broker reproducer
    cepheus-repro fuzz run --budget-trials 50 \
                  --corpus tests/harness/corpus  # coverage-guided fuzzing
    cepheus-repro fuzz replay tests/harness/corpus --jobs 4
    cepheus-repro fuzz corpus                    # list corpus inputs
    cepheus-repro bench emit --jobs 4            # parallel run -> BENCH_quick.json
    cepheus-repro bench compare BENCH_quick.json benchmarks/baselines/BENCH_quick.json
    cepheus-repro pipeline dump --deployment lookaside  # stage chains
    cepheus-repro info                           # model constants
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import constants

__all__ = ["main"]


def _cmd_experiments(args) -> int:
    from repro.harness.runner import ALL_EXPERIMENTS, run_experiments

    names = ([n.strip() for n in args.only.split(",") if n.strip()]
             if args.only else list(ALL_EXPERIMENTS))
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    run_experiments(names, quick=not args.full, jobs=args.jobs)
    return 0


def _cmd_demo(args) -> int:
    from repro.apps import Cluster
    from repro.collectives import (BinomialTreeBcast, CepheusBcast,
                                   ChainBcast)
    from repro.harness.report import fmt_size, fmt_time

    size = args.size
    print(f"1-to-3 broadcast of {fmt_size(size)} on a 100G testbed:\n")
    rows = []
    for cls, kw in ((CepheusBcast, {}), (ChainBcast, {"slices": 4}),
                    (BinomialTreeBcast, {})):
        cluster = Cluster.testbed(4)
        algo = cls(cluster, cluster.host_ips, **kw)
        rows.append((algo.name, algo.run(size).jct))
    base = rows[0][1]
    for name, jct in rows:
        print(f"  {name:<16} {fmt_time(jct):>10}   {jct / base:5.2f}x")
    print("\nThe in-network primitive sends each byte once; the overlays "
          "re-send per hop.\nRun 'cepheus-repro experiments' for the full "
          "paper reproduction.")
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.report import format_table
    from repro.harness.sweeps import BcastSweep

    sweep = BcastSweep(
        sizes=[int(s) for s in args.sizes.split(",")],
        group_sizes=[int(g) for g in args.groups.split(",")],
        algorithms=[a.strip() for a in args.algorithms.split(",")],
    )
    print(format_table(sweep.run()))
    return 0


def _campaign(name: str):
    """The :class:`~repro.harness.campaign.CampaignKind` behind a
    campaign subcommand (imported lazily, like every handler's deps)."""
    import importlib

    module, attr = _CAMPAIGNS[name]["kind"]
    return getattr(importlib.import_module(module), attr)


def _campaign_config(kind, args):
    """Build the kind's config from the argparse namespace: every flag's
    dest is a config field name.  An empty / zero value means "off" for
    the config's optional (``None``-default) knobs."""
    import dataclasses

    mutate = getattr(args, "mutate", "")
    if mutate and mutate not in kind.mutations:
        raise SystemExit(f"unknown mutation {mutate!r} "
                         f"(available: {', '.join(kind.mutations)})")
    kw = {}
    for f in dataclasses.fields(kind.config_cls):
        if hasattr(args, f.name):
            value = getattr(args, f.name)
            kw[f.name] = (value or None) if f.default is None else value
    return kind.config_cls(**kw)


def _emit_json(doc, out: str) -> None:
    import json

    blob = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)


def _fuzz_session(cfg, args):
    """fuzz's own coverage-guided loop; returns (document, summary)."""
    from repro.harness.fuzz import load_corpus, run_fuzz, save_corpus

    corpus_in = []
    if args.corpus:
        corpus_in = [s for _, s in load_corpus(args.corpus)]
    doc = run_fuzz(cfg, seed=args.seed, budget_trials=args.budget_trials,
                   corpus=corpus_in, shrink=not args.no_shrink)
    corpus = doc.pop("_corpus")
    if args.corpus and not args.frozen_corpus:
        written = save_corpus(args.corpus, cfg, corpus)
        for path in written:
            print(f"fuzz: corpus input written to {path}", file=sys.stderr)
    return doc, (f"{args.budget_trials} trial(s), corpus {len(corpus)}, "
                 f"{doc['coverage_keys']} coverage keys "
                 f"[{doc['coverage_signature'][:12]}]")


def _cmd_campaign_run(args) -> int:
    from repro.harness.campaign import run_campaign, save_reproducers

    name = args.command
    kind = _campaign(name)
    cfg = _campaign_config(kind, args)
    if name == "fuzz":
        doc, summary = _fuzz_session(cfg, args)
    else:
        doc = run_campaign(kind, cfg, seed=args.seed, trials=args.trials,
                           shrink=not args.no_shrink)
        summary = f"{args.trials} trial(s)"
    _emit_json(doc, args.out)
    n_fail = len(doc["failing_trials"])
    print(f"{name}: {summary}, {n_fail} failing (seed={args.seed})",
          file=sys.stderr)
    if n_fail and args.repro_dir:
        for path in save_reproducers(kind, args.seed, doc["reproducers"],
                                     args.repro_dir):
            print(f"{name}: reproducer written to {path}", file=sys.stderr)
    return 3 if n_fail else 0


def _cmd_campaign_replay(args) -> int:
    import json
    import os

    from repro.harness.campaign import replay_reproducer

    name = args.command
    if name == "fuzz" and os.path.isdir(args.file):
        from repro.harness.fuzz import replay_corpus

        doc = replay_corpus(args.file, jobs=args.jobs)
        _emit_json(doc, args.out)
        print(f"fuzz: replayed {doc['inputs']} corpus input(s), "
              f"{doc['coverage_keys']} coverage keys "
              f"[{doc['coverage_signature'][:12]}], "
              f"{len(doc['failing'])} failing", file=sys.stderr)
        return 3 if doc["failing"] else 0
    try:
        record = replay_reproducer(_campaign(name), args.file)
    except (OSError, ValueError, KeyError) as exc:
        print(f"{name}: cannot replay {args.file}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True))
    if record["failing"]:
        print(f"{name}: reproducer still failing", file=sys.stderr)
        return 3
    print(f"{name}: reproducer no longer fails (fixed?)", file=sys.stderr)
    return 0


def _cmd_fuzz_corpus(args) -> int:
    from repro.harness.fuzz import load_corpus

    entries = load_corpus(args.corpus)
    if not entries:
        print(f"fuzz: no corpus inputs under {args.corpus}", file=sys.stderr)
        return 2
    print(f"corpus {args.corpus}: {len(entries)} input(s)")
    for _, s in entries:
        print(f"  {s.content_hash()[:12]}  msgs={len(s.sources)} "
              f"incidents={len(s.incidents)} churn={len(s.churn)} "
              f"seed={s.trial_seed}")
    return 0


def _cmd_bench_emit(args) -> int:
    import json

    from repro.harness.cache import DEFAULT_CACHE_DIR, ResultCache
    from repro.harness.engine import run_engine
    from repro.harness.runner import ALL_EXPERIMENTS

    names = ([n.strip() for n in args.only.split(",") if n.strip()]
             if args.only else list(ALL_EXPERIMENTS))
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    quick = not args.full
    run = run_engine(names, quick=quick, jobs=args.jobs, cache=cache,
                     stream=sys.stdout if args.verbose else _NullStream())
    out = args.out or ("BENCH_quick.json" if quick else "BENCH_full.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(run.document(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"bench: {len(names)} experiment(s) in {run.total_wall_s:.1f}s "
          f"({run.executed} executed, {run.cache_hits} cached, "
          f"jobs={args.jobs}) -> {out}", file=sys.stderr)
    return 0


class _NullStream:
    def write(self, _text: str) -> int:
        return 0

    def flush(self) -> None:
        pass


def _cmd_bench_compare(args) -> int:
    from repro.harness import bench

    try:
        current = bench.load_document(args.current)
        baseline = bench.load_document(args.baseline)
        tolerances = (bench.load_tolerances(args.tolerances)
                      if args.tolerances else None)
    except (OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    floors = {}
    for spec in args.min_events_per_sec:
        exp_id, sep, value = spec.partition("=")
        try:
            if not sep or not exp_id:
                raise ValueError(spec)
            floors[exp_id] = float(value)
        except ValueError:
            print(f"bench: bad --min-events-per-sec {spec!r} "
                  f"(expected <exp_id>=<floor>)", file=sys.stderr)
            return 2
    comp = bench.compare(
        current, baseline, tolerances,
        check_events=args.check_events,
        max_wall_drift=args.max_wall_drift if args.max_wall_drift >= 0
        else None,
        min_events_per_sec=floors or None)
    print(comp.format(verbose=args.verbose))
    if comp.ok:
        print("bench: no regressions", file=sys.stderr)
        return 0
    print(f"bench: {len(comp.regressions)} metric regression(s), "
          f"{len(comp.missing_experiments)} missing experiment(s)",
          file=sys.stderr)
    return 1


def _cmd_pipeline_dump(args) -> int:
    from repro.apps import Cluster
    from repro.core.accelerator import DEPLOYMENTS, AcceleratorConfig

    if args.deployment not in DEPLOYMENTS:
        print(f"pipeline: unknown deployment {args.deployment!r}; "
              f"valid modes: {', '.join(DEPLOYMENTS)}", file=sys.stderr)
        return 2
    accel_config = AcceleratorConfig(deployment=args.deployment)
    if args.topo == "star":
        cluster = Cluster.testbed(args.hosts, accel_config=accel_config)
    else:
        cluster = Cluster.fat_tree_cluster(args.k, accel_config=accel_config)
    switches = cluster.topo.switches
    if args.switch:
        switches = [s for s in switches if s.name == args.switch]
        if not switches:
            names = ", ".join(s.name for s in cluster.topo.switches)
            print(f"pipeline: no switch {args.switch!r} (have: {names})",
                  file=sys.stderr)
            return 2
    print(f"topology {args.topo}; deployment {args.deployment}")
    for sw in switches:
        print(f"\n{sw.name} ({sw.n_ports} ports)")
        print(f"  rx: {sw.pipeline.describe()}")
        if sw.accelerator is not None:
            accel = sw.accelerator
            print(f"  accel[{accel.cfg.deployment}]: "
                  f"{accel.pipeline.describe()}")
    return 0


def _cmd_info(args) -> int:
    print("Cepheus reproduction — model constants (repro/constants.py)\n")
    entries = [
        ("link bandwidth", f"{constants.LINK_BANDWIDTH_BPS / 1e9:.0f} Gbps"),
        ("per-hop latency", f"{constants.LINK_PROPAGATION_S * 1e9:.0f} ns"),
        ("RoCE MTU", f"{constants.MTU_BYTES} B"),
        ("RC window", f"{constants.ROCE_MAX_OUTSTANDING_PKTS} packets"),
        ("RTO", f"{constants.ROCE_RTO_S * 1e3:.1f} ms"),
        ("ECN band", f"{constants.ECN_KMIN_BYTES // 1000}-"
                     f"{constants.ECN_KMAX_BYTES // 1000} KB"),
        ("PFC XOFF/XON", f"{constants.PFC_XOFF_BYTES // 1000}/"
                         f"{constants.PFC_XON_BYTES // 1000} KB"),
        ("accelerator delay", f"{constants.ACCELERATOR_DELAY_S * 1e9:.0f} ns"),
        ("MFT per group (64p)", f"{constants.MFT_BYTES_PER_GROUP_64P} B"),
        ("MRP records/packet", str(constants.MRP_NODES_PER_PACKET)),
        ("fallback threshold", f"{constants.FALLBACK_GOODPUT_THRESHOLD:.0%}"),
    ]
    width = max(len(k) for k, _ in entries)
    for key, value in entries:
        print(f"  {key:<{width}}  {value}")
    print("\nCalibration provenance: docs/CALIBRATION.md")
    return 0


_LOSS = ("--loss-rate", {"type": float, "default": 0.0})
_REPLAY_FILE = [("file", {})]


def _horizon(default: float, what: str = "traffic"):
    return ("--horizon", {"type": float, "default": default,
                          "help": f"virtual seconds of {what} per trial"})


def _int(flag: str, default: int, **kw):
    return (flag, {"type": int, "default": default, **kw})


#: The campaign subcommands (``<name> run|replay``): where each kind's
#: :class:`~repro.harness.campaign.CampaignKind` lives, its help texts,
#: the defaults of the shared run flags, and its own run flags.  Every
#: run flag's dest is a field of the kind's config.
_CAMPAIGNS = {
    "chaos": {
        "kind": ("repro.harness.chaos", "CHAOS"),
        "help": "deterministic invariant-checked chaos campaigns",
        "run_help": "run N seeded trials, shrink any failure",
        "replay_help": "re-execute a reproducer JSON file",
        "trials": ("--trials", 5), "topo": "star", "hosts": 6,
        "doc": "campaign",
        "flags": [
            _int("--messages", 3), _int("--msg-packets", 8),
            _int("--incidents", 2), _horizon(0.04), _LOSS,
            ("--deployment", {
                "default": "inline",
                "choices": ("inline", "lookaside", "source_routed"),
                "help": "accelerator deployment style under test"}),
            ("--mutate", {"default": "",
                          "help": "arm a deliberate protocol mutation "
                                  "(e.g. psn-skip) to self-test the "
                                  "monitor"}),
        ],
        "replay_args": _REPLAY_FILE,
    },
    "churn": {
        "kind": ("repro.harness.churn", "CHURN"),
        "help": "deterministic membership-churn campaigns "
                "(incremental MRP joins/leaves, failure pruning)",
        "run_help": "run N seeded churn trials, shrink any failure",
        "replay_help": "re-execute a churn reproducer JSON file",
        "trials": ("--trials", 5), "topo": "star", "hosts": 8,
        "doc": "campaign",
        "flags": [
            _int("--members", 5, dest="initial_members",
                 help="initial group size"),
            _int("--messages", 4), _int("--msg-packets", 8),
            _int("--joins", 2), _int("--leaves", 1), _int("--crashes", 1),
            _horizon(0.04), _LOSS,
            ("--mutate", {"default": "",
                          "help": "arm a deliberate liveness mutation "
                                  "(no-detector) to self-test the "
                                  "campaign"}),
        ],
        "replay_args": _REPLAY_FILE,
    },
    "broker": {
        "kind": ("repro.apps.brokerfabric", "BROKER"),
        "help": "open-loop broker-fabric pub/sub campaigns (SLO tails, "
                "delivery amplification, MRP delta coalescing)",
        "run_help": "run N seeded open-loop trials, shrink any failure",
        "replay_help": "re-execute a broker-fabric reproducer JSON file",
        "trials": ("--trials", 3), "topo": "fat_tree", "hosts": 16,
        "doc": "campaign",
        "flags": [
            _int("--topics", 6),
            _int("--min-subs", 3, dest="min_subscribers",
                 help="initial subscribers per topic, lower bound"),
            _int("--max-subs", 8, dest="max_subscribers",
                 help="initial subscribers per topic, upper bound"),
            _int("--msg-size", 65536),
            ("--publish-rate", {"type": float, "default": 60000.0,
                                "help": "Poisson publish arrivals per "
                                        "second"}),
            ("--zipf-alpha", {"type": float, "default": 0.9,
                              "help": "topic popularity skew "
                                      "(0 = uniform)"}),
            ("--churn-rate", {"type": float, "default": 2000.0,
                              "help": "subscription toggles per second"}),
            ("--cross-rate", {"type": float, "default": 4000.0,
                              "help": "background unicast transfers per "
                                      "second"}),
            _int("--cross-size", 131072),
            _horizon(0.02, "open-loop load"),
            ("--coalesce-window", {"type": float, "default": 0.0,
                                   "help": "MRP delta coalescing window in "
                                           "seconds (0 = one delta per "
                                           "membership op)"}),
            _LOSS,
        ],
        "replay_args": _REPLAY_FILE,
    },
    "fuzz": {
        "kind": ("repro.harness.fuzz", "FUZZ"),
        "help": "coverage-guided protocol fuzzing with differential "
                "deployment oracles",
        "run_help": "coverage-guided fuzzing session over chaos/churn "
                    "schedules (every trial runs all three deployments)",
        "replay_help": "re-execute a corpus directory (deterministic "
                       "coverage signature) or one reproducer JSON file",
        "trials": ("--budget-trials", 50), "topo": "star", "hosts": 8,
        "doc": "session",
        # The CLI's fuzz defaults are smaller than FuzzConfig's.
        "flags": [
            _int("--members", 6, dest="initial_members",
                 help="initial group size"),
            _int("--messages", 3), _int("--msg-packets", 6),
            _int("--incidents-max", 2), _int("--joins-max", 1),
            _int("--leaves-max", 1), _horizon(0.03), _LOSS,
            ("--jct-slack", {"type": float, "default": 5.0,
                             "help": "throughput-oracle ceiling multiplier "
                                     "over the analytic JCT model"}),
            ("--corpus", {"default": "",
                          "help": "corpus directory: seeds the session and "
                                  "receives new coverage-reaching inputs"}),
            ("--frozen-corpus", {"action": "store_true",
                                 "help": "read the corpus but do not write "
                                         "new entries back"}),
        ],
        "replay_args": [
            ("file", {"metavar": "target",
                      "help": "corpus directory or reproducer file"}),
            _int("--jobs", 1, help="parallel replay workers (directory "
                                   "only; the signature is "
                                   "jobs-independent)"),
            ("--out", {"default": "",
                       "help": "write replay JSON here instead of stdout"}),
        ],
    },
}


def _add_campaign_flags(p: argparse.ArgumentParser, spec) -> None:
    """Register a campaign ``run`` subcommand's flags: the shared ones
    around the kind's own."""
    trials_flag, trials = spec["trials"]
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(trials_flag, type=int, default=trials)
    p.add_argument("--topo", default=spec["topo"],
                   choices=("star", "fat_tree"))
    p.add_argument("--hosts", type=int, default=spec["hosts"])
    p.add_argument("--k", type=int, default=4,
                   help="fat-tree arity (fat_tree topo only)")
    for flag, kw in spec["flags"]:
        p.add_argument(flag, **kw)
    p.add_argument("--no-shrink", action="store_true",
                   help="skip reproducer minimization")
    p.add_argument("--out", default="",
                   help=f"write {spec['doc']} JSON here instead of stdout")
    p.add_argument("--repro-dir", default="",
                   help="directory for per-failure reproducer files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cepheus-repro",
        description="Cepheus (HPCA 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments",
                           help="reproduce the paper's tables/figures")
    p_exp.add_argument("--only", default="",
                       help="comma-separated experiment ids")
    p_exp.add_argument("--full", action="store_true",
                       help="paper-scale parameters (slow)")
    p_exp.add_argument("--jobs", type=int, default=1,
                       help="experiment worker processes")
    p_exp.set_defaults(fn=_cmd_experiments)

    p_demo = sub.add_parser("demo", help="60-second broadcast comparison")
    p_demo.add_argument("--size", type=int, default=16 << 20,
                        help="message bytes (default 16 MiB)")
    p_demo.set_defaults(fn=_cmd_demo)

    p_sweep = sub.add_parser("sweep", help="custom broadcast sweep")
    p_sweep.add_argument("--sizes", default="65536,1048576")
    p_sweep.add_argument("--groups", default="4")
    p_sweep.add_argument("--algorithms", default="cepheus,binomial,chain")
    p_sweep.set_defaults(fn=_cmd_sweep)

    campaign_subs = {}
    for name, spec in _CAMPAIGNS.items():
        p_kind = sub.add_parser(name, help=spec["help"])
        kind_sub = p_kind.add_subparsers(dest=f"{name}_command",
                                         required=True)
        campaign_subs[name] = kind_sub
        p_run = kind_sub.add_parser("run", help=spec["run_help"])
        _add_campaign_flags(p_run, spec)
        p_run.set_defaults(fn=_cmd_campaign_run)
        p_replay = kind_sub.add_parser("replay", help=spec["replay_help"])
        for flag, kw in spec["replay_args"]:
            p_replay.add_argument(flag, **kw)
        p_replay.set_defaults(fn=_cmd_campaign_replay)

    p_fcorpus = campaign_subs["fuzz"].add_parser(
        "corpus", help="list the inputs of a corpus directory")
    p_fcorpus.add_argument("--corpus", default="tests/harness/corpus",
                           help="corpus directory")
    p_fcorpus.set_defaults(fn=_cmd_fuzz_corpus)

    p_bench = sub.add_parser(
        "bench", help="machine-readable benchmark runs and regression diffs")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_emit = bench_sub.add_parser(
        "emit", help="run the suite (parallel, cached) and write BENCH JSON")
    p_emit.add_argument("--full", action="store_true",
                        help="paper-scale parameters (slow)")
    p_emit.add_argument("--only", default="",
                        help="comma-separated experiment ids")
    p_emit.add_argument("--jobs", type=int, default=1,
                        help="experiment worker processes")
    p_emit.add_argument("--out", default="",
                        help="output path (default BENCH_<mode>.json)")
    p_emit.add_argument("--cache-dir", default="",
                        help="result-cache directory (default .bench_cache)")
    p_emit.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    p_emit.add_argument("--verbose", action="store_true",
                        help="also print the paper-style tables")
    p_emit.set_defaults(fn=_cmd_bench_emit)

    p_cmp = bench_sub.add_parser(
        "compare", help="diff two BENCH documents against tolerances")
    p_cmp.add_argument("current", help="BENCH JSON from the run under test")
    p_cmp.add_argument("baseline", help="committed baseline BENCH JSON")
    p_cmp.add_argument("--tolerances", default="",
                       help="tolerance JSON (default: built-in 8%% rel)")
    p_cmp.add_argument("--check-events", action="store_true",
                       help="require per-experiment simulator event "
                            "counts to match the baseline exactly")
    p_cmp.add_argument("--max-wall-drift", type=float, default=-1.0,
                       help="fail if total_wall_s exceeds the baseline "
                            "by more than this fraction (e.g. 0.10); "
                            "one-sided, off by default")
    p_cmp.add_argument("--min-events-per-sec", action="append",
                       default=[], metavar="EXP=FLOOR",
                       help="absolute simulator-throughput floor for one "
                            "experiment in the current document (e.g. "
                            "fig11=150000); repeatable; cached entries "
                            "fail the floor (their throughput is null)")
    p_cmp.add_argument("--verbose", action="store_true",
                       help="print passing metrics too")
    p_cmp.set_defaults(fn=_cmd_bench_compare)

    p_pipe = sub.add_parser(
        "pipeline", help="inspect the configured datapath stage chains")
    pipe_sub = p_pipe.add_subparsers(dest="pipeline_command", required=True)

    p_dump = pipe_sub.add_parser(
        "dump", help="print each switch's rx chain and accelerator "
                     "stage chain (inline/lookaside/source_routed)")
    p_dump.add_argument("--topo", default="star",
                        choices=("star", "fat_tree"))
    p_dump.add_argument("--hosts", type=int, default=4,
                        help="host count (star topo only)")
    p_dump.add_argument("--k", type=int, default=4,
                        help="fat-tree arity (fat_tree topo only)")
    p_dump.add_argument("--deployment", default="inline",
                        help="accelerator deployment mode "
                             "(inline, lookaside, source_routed)")
    p_dump.add_argument("--switch", default="",
                        help="only this switch (default: all)")
    p_dump.set_defaults(fn=_cmd_pipeline_dump)

    p_info = sub.add_parser("info", help="print the model constants")
    p_info.set_defaults(fn=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
