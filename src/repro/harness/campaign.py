"""The one seeded campaign engine behind the chaos, churn, broker and
fuzz harnesses.

Every harness has the same shape: a frozen config, a pure-data schedule
drawn from a seeded RNG, and a trial that is a pure function of
(config, schedule) returning a JSON-able record with a ``failing``
flag.  This module owns everything around that shape:

* **seeding** — trial *t* of a campaign with seed *s* draws its
  schedule from :func:`trial_rng`, so any trial can be regenerated in
  isolation;
* **clusters** — :func:`build_cluster` turns a config's
  ``topo/hosts/k/loss_rate/rto/retransmit_mode`` (plus an optional
  accelerator deployment) into a fresh :class:`Cluster`;
* **campaigns** — :func:`run_campaign` runs N trials; every failing
  trial goes through :func:`shrink_schedule` (greedy drops along the
  kind's shrink axes, then trailing messages) and is re-run and
  packaged as a reproducer by :func:`package_failure`;
* **reproducers** — one JSON format (``kind``, ``config``, ``schedule``
  plus the kind's record fields), written by :func:`save_reproducers`,
  read by :func:`read_input` / :func:`load_reproducer` and re-executed
  by :func:`replay_reproducer`.

A harness plugs in by declaring one :class:`CampaignKind`.  Each probe
of the shrinker is a full deterministic re-run, so a shrunk schedule is
guaranteed to reproduce its failure.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.cluster import Cluster
from repro.core.accelerator import AcceleratorConfig
from repro.net.switch import Switch, SwitchConfig
from repro.transport.roce import RoceConfig

__all__ = [
    "CampaignConfig", "CampaignKind", "trial_rng", "build_cluster",
    "enumerate_targets", "install_incident", "post_at_offset",
    "greedy_drop", "shrink_schedule", "package_failure", "run_campaign",
    "read_input", "load_reproducer", "replay_reproducer",
    "save_reproducers",
]


class CampaignConfig:
    """JSON round-trip for the frozen config dataclasses of every kind.

    ``from_dict`` ignores unknown keys, so a reproducer written by a
    newer build (with extra knobs) still loads.
    """

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, object]):
        known = cls.__dataclass_fields__
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass(frozen=True)
class CampaignKind:
    """What the engine needs to know about one harness.

    ``shrink_axes`` and ``trailing`` are schedule attribute paths
    (dotted for nested schedules, e.g. ``"ops.churn"``).  Each axis is
    greedily shrunk in order; then the last element of every
    ``trailing`` path is dropped in lockstep while the failure persists
    (the size is the first path's length).  ``fit`` adapts the config to
    a shrunk schedule before the trailing probes and the final re-run;
    ``record_fields`` are copied from that re-run into the reproducer.
    """

    name: str                         # CLI subcommand and file prefix
    reproducer_kind: str              # the reproducer's "kind" tag
    config_cls: type
    schedule_cls: type
    generate: Callable
    run_trial: Callable
    shrink_axes: Tuple[str, ...]
    trailing: Tuple[str, ...]
    record_fields: Tuple[str, ...]
    mutations: Tuple[str, ...] = ()
    fit: Callable = lambda cfg, schedule: cfg


def trial_rng(seed: int, t: int) -> random.Random:
    """The RNG trial ``t`` of a campaign seeded ``seed`` draws from."""
    return random.Random((seed << 20) ^ (t * 0x9E3779B1 + 1))


# ---------------------------------------------------------------------------
# clusters + failure targets
# ---------------------------------------------------------------------------

def build_cluster(cfg, trial_seed: int,
                  deployment: Optional[str] = None) -> Cluster:
    """A fresh cluster for one trial (``trial_seed`` seeds switch loss)."""
    kw = {"switch_config": SwitchConfig(loss_rate=cfg.loss_rate,
                                        seed=trial_seed),
          "roce_config": RoceConfig(rto=cfg.rto,
                                    retransmit_mode=cfg.retransmit_mode)}
    if deployment is not None:
        kw["accel_config"] = AcceleratorConfig(deployment=deployment)
    if cfg.topo == "star":
        return Cluster.testbed(cfg.hosts, **kw)
    if cfg.topo == "fat_tree":
        return Cluster.fat_tree_cluster(cfg.k, hosts_limit=cfg.hosts, **kw)
    raise ValueError(f"unknown campaign topology {cfg.topo!r}")


def enumerate_targets(cluster: Cluster) -> List[Tuple]:
    """Deterministic pool of failure targets for a topology."""
    topo = cluster.topo
    targets: List[Tuple] = []
    for info in topo.links:
        if isinstance(info.dev_a, Switch) and isinstance(info.dev_b, Switch):
            targets.append(("link", info.dev_a.name, info.port_a))
    for ip in topo.host_ips:
        targets.append(("host", ip))
    for sw in topo.switches:
        targets.append(("switch", sw.name))
        targets.append(("loss", sw.name))
    return targets


def install_incident(cluster: Cluster, injector, inc, start: float) -> None:
    """Schedule one chaos incident's failure and repair."""
    sim = cluster.sim
    topo = cluster.topo
    by_name = {sw.name: sw for sw in topo.switches}
    kind, target = inc.kind, inc.target
    if kind == "link":
        sw, port = by_name[target[1]], target[2]
        sim.schedule(start + inc.at - sim.now, injector.fail_link, sw, port)
        sim.schedule(start + inc.repair_at - sim.now,
                     injector.repair_link, sw, port)
    elif kind == "host":
        ip = target[1]
        sw, port = topo.leaf_of(ip)
        sim.schedule(start + inc.at - sim.now, injector.fail_link, sw, port)
        sim.schedule(start + inc.repair_at - sim.now,
                     injector.repair_link, sw, port)
    elif kind == "switch":
        sw = by_name[target[1]]
        sim.schedule(start + inc.at - sim.now, injector.fail_switch, sw)
        sim.schedule(start + inc.repair_at - sim.now,
                     injector.repair_switch, sw)
    elif kind == "loss":
        sw, rate = by_name[target[1]], target[2]
        base = sw.config.loss_rate

        def set_rate(r: float) -> None:
            sw.config.loss_rate = r

        sim.schedule(start + inc.at - sim.now, set_rate, rate)
        sim.schedule(start + inc.repair_at - sim.now, set_rate, base)
    else:
        raise ValueError(f"unknown incident kind {kind!r}")


def post_at_offset(sim, start: float, offset: float, post) -> None:
    """Post the next message at its schedule offset, but no sooner than
    1 µs after the previous completion: the floor lets residual
    feedback settle (a §III-E source switch needs idle QPs)."""
    when = max(start + offset, sim.now + 1e-6)
    sim.schedule(when - sim.now, post)


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def greedy_drop(items, rebuild, fails):
    """One greedy delta-debugging pass over ``items``.

    Tries removing each element in turn; ``rebuild(remaining)`` makes
    the candidate and ``fails(candidate)`` re-runs the trial.  Every
    removal that still fails is kept.

    Returns ``(surviving_items, final_candidate)``; the candidate is
    ``rebuild(items)`` even when nothing could be dropped.
    """
    items = list(items)
    candidate = rebuild(items)
    i = 0
    while i < len(items):
        cand = rebuild(items[:i] + items[i + 1:])
        if fails(cand):
            items.pop(i)
            candidate = cand
        else:
            i += 1
    return items, candidate


def _get(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _set(obj, path: str, value):
    head, _, rest = path.partition(".")
    inner = _set(getattr(obj, head), rest, value) if rest else value
    return replace(obj, **{head: inner})


def shrink_schedule(kind: CampaignKind, cfg, schedule):
    """Greedily minimize a failing schedule: drop items along each
    shrink axis, then trailing messages, keeping every reduction that
    still fails."""
    def fails(c, s) -> bool:
        return bool(kind.run_trial(c, s)["failing"])

    for path in kind.shrink_axes:
        base = schedule
        _, schedule = greedy_drop(
            _get(base, path),
            lambda items: _set(base, path, tuple(items)),
            lambda cand: fails(cfg, cand))
    while len(_get(schedule, kind.trailing[0])) > 1:
        cand = schedule
        for path in kind.trailing:
            cand = _set(cand, path, tuple(_get(cand, path)[:-1]))
        if not fails(kind.fit(cfg, cand), cand):
            break
        schedule = cand
    return schedule


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def package_failure(kind: CampaignKind, cfg, schedule, trial: int,
                    shrink: bool = True) -> Dict[str, object]:
    """Shrink a failing trial's schedule, re-run it, and package the
    result as a reproducer document."""
    minimal = shrink_schedule(kind, cfg, schedule) if shrink else schedule
    final_cfg = kind.fit(cfg, minimal)
    final = kind.run_trial(final_cfg, minimal, trial_index=trial)
    rep: Dict[str, object] = {"kind": kind.reproducer_kind,
                              "config": final_cfg.to_dict(),
                              "schedule": minimal.to_dict()}
    rep.update((f, final[f]) for f in kind.record_fields)
    rep["trial"] = trial
    return rep


def run_campaign(kind: CampaignKind, cfg, seed: int, trials: int,
                 shrink: bool = True) -> Dict[str, object]:
    """Run ``trials`` seeded trials; shrink and package any failures.

    The returned document is fully deterministic for a given
    (kind, config, seed, trials): running it twice yields identical JSON.
    """
    records: List[Dict[str, object]] = []
    reproducers: List[Dict[str, object]] = []
    for t in range(trials):
        schedule = kind.generate(cfg, trial_rng(seed, t))
        record = kind.run_trial(cfg, schedule, trial_index=t)
        records.append(record)
        if record["failing"]:
            reproducers.append(package_failure(kind, cfg, schedule, t,
                                               shrink))
    return {
        "config": cfg.to_dict(),
        "seed": seed,
        "trials": trials,
        "records": records,
        "failing_trials": [r["trial"] for r in records if r["failing"]],
        "reproducers": reproducers,
    }


# ---------------------------------------------------------------------------
# reproducer I/O
# ---------------------------------------------------------------------------

def read_input(kind: CampaignKind, path: str, tag: str):
    """Load a ``(config, schedule)`` document tagged ``tag``.

    Returns ``None`` when the file holds valid JSON that is not an
    object with that ``kind`` tag; malformed JSON raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != tag:
        return None
    return (kind.config_cls.from_dict(doc["config"]),
            kind.schedule_cls.from_dict(doc["schedule"]))


def load_reproducer(kind: CampaignKind, path: str):
    """``(config, schedule)`` of a reproducer; ``ValueError`` for any
    document that is not one of this kind's reproducers."""
    loaded = read_input(kind, path, kind.reproducer_kind)
    if loaded is None:
        raise ValueError(f"{path} is not a {kind.reproducer_kind} document")
    return loaded


def replay_reproducer(kind: CampaignKind, path: str) -> Dict[str, object]:
    """Re-execute a dumped reproducer; returns its (fresh) trial record."""
    cfg, schedule = load_reproducer(kind, path)
    return kind.run_trial(cfg, schedule)


def save_reproducers(kind: CampaignKind, seed: int,
                     reproducers: List[Dict[str, object]],
                     dirpath: str) -> List[str]:
    """Write each reproducer as ``<kind>-seed<S>-t<T>.json``; returns
    the paths written."""
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for rep in reproducers:
        path = os.path.join(dirpath,
                            f"{kind.name}-seed{seed}-t{rep['trial']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths
