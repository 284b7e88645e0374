"""The shared campaign engine, over every campaign kind.

Per kind: a seeded campaign is deterministic, a packaged reproducer
replays through ``cepheus-repro <kind> replay`` with the expected exit
code and the same record, and the reproducer loader rejects foreign and
non-object documents.  The shrinker and the CLI's config plumbing are
checked on their own.
"""

import json
from dataclasses import asdict, dataclass
from typing import Tuple

import pytest

from repro.apps.brokerfabric import BROKER, BrokerFabricConfig
from repro.cli import _campaign_config, build_parser, main
from repro.harness import campaign
from repro.harness.campaign import (CampaignConfig, CampaignKind,
                                    load_reproducer, package_failure,
                                    run_campaign, save_reproducers,
                                    shrink_schedule, trial_rng)
from repro.harness.chaos import CHAOS, ChaosConfig
from repro.harness.churn import CHURN, ChurnConfig
from repro.harness.fuzz import CORPUS_KIND, FUZZ, FuzzConfig, load_corpus

KINDS = {"chaos": CHAOS, "churn": CHURN, "broker": BROKER, "fuzz": FUZZ}

#: kind -> (small config, exit code its trial-0 reproducer replays with).
#: The chaos and churn configs carry their self-test mutation, so their
#: reproducers still fail; the broker trial passes.
SEEDED = {
    "chaos": (ChaosConfig(hosts=4, messages=2, msg_packets=4, incidents=1,
                          horizon=0.01, mutate="psn-skip"), 3),
    "churn": (ChurnConfig(mutate="no-detector"), 3),
    "broker": (BrokerFabricConfig(
        topo="star", hosts=8, topics=3, min_subscribers=2,
        max_subscribers=4, msg_size=16384, publish_rate=20_000.0,
        churn_rate=1500.0, cross_rate=1500.0, cross_size=32768,
        horizon=0.005, drain=0.01), 0),
}
SEED = 11


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_campaign_is_deterministic(name):
    kind = KINDS[name]
    cfg, code = SEEDED[name]
    a = run_campaign(kind, cfg, seed=SEED, trials=1, shrink=False)
    b = run_campaign(kind, cfg, seed=SEED, trials=1, shrink=False)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["failing_trials"] == ([0] if code else [])
    assert len(a["reproducers"]) == len(a["failing_trials"])


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_reproducer_replays_through_cli(name, tmp_path, capsys):
    kind = KINDS[name]
    cfg, code = SEEDED[name]
    schedule = kind.generate(cfg, trial_rng(SEED, 0))
    record = kind.run_trial(cfg, schedule)
    assert record["failing"] == bool(code)
    # Packaging does not care whether the trial failed, so a passing
    # trial makes a reproducer too.
    rep = package_failure(kind, cfg, schedule, 0, shrink=False)
    assert rep["kind"] == kind.reproducer_kind
    assert set(kind.record_fields) <= set(rep)
    (path,) = save_reproducers(kind, SEED, [rep], str(tmp_path))
    assert path.endswith(f"{name}-seed{SEED}-t0.json")
    capsys.readouterr()
    assert main([name, "replay", path]) == code
    replayed = json.loads(capsys.readouterr().out)
    assert replayed == json.loads(json.dumps(record))


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("doc", [{"kind": "something-else"}, [1]],
                         ids=["foreign-kind", "not-an-object"])
@pytest.mark.parametrize("name", sorted(KINDS))
def test_loader_rejects_other_documents(name, doc, tmp_path, capsys):
    path = _write(tmp_path, doc)
    with pytest.raises(ValueError):
        load_reproducer(KINDS[name], path)
    assert main([name, "replay", path]) == 2
    assert f"{name}: cannot replay" in capsys.readouterr().err


def test_load_corpus_skips_non_object_documents(tmp_path):
    cfg = FuzzConfig(messages=2, msg_packets=4, horizon=0.02)
    schedule = FUZZ.generate(cfg, trial_rng(1, 0))
    (tmp_path / "a.json").write_text("[1]")
    (tmp_path / "b.json").write_text(json.dumps(
        {"kind": CORPUS_KIND, "config": cfg.to_dict(),
         "schedule": schedule.to_dict()}))
    assert load_corpus(str(tmp_path)) == [(cfg, schedule)]


# ---------------------------------------------------------------------------
# the shrinker, on a toy kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ToyConfig(CampaignConfig):
    messages: int = 4


@dataclass(frozen=True)
class _Inner:
    noise: Tuple[int, ...]


@dataclass(frozen=True)
class _ToySchedule:
    items: Tuple[int, ...]
    inner: _Inner
    msgs: Tuple[int, ...]
    tags: Tuple[str, ...]

    def to_dict(self):
        return asdict(self)


def _toy_trial(cfg, s, trial_index=0):
    # Fails while item 3 is present and at least two messages run; the
    # config must agree with the schedule's message count.
    failing = (3 in s.items and len(s.msgs) >= 2
               and cfg.messages == len(s.msgs))
    return {"trial": trial_index, "failing": failing}


_TOY = CampaignKind(
    name="toy", reproducer_kind="toy-reproducer", config_cls=_ToyConfig,
    schedule_cls=_ToySchedule, generate=None, run_trial=_toy_trial,
    shrink_axes=("items", "inner.noise"), trailing=("msgs", "tags"),
    record_fields=(),
    fit=lambda cfg, s: _ToyConfig(messages=len(s.msgs)))


def test_shrink_drops_axes_then_trailing_items_in_lockstep():
    start = _ToySchedule(items=(1, 2, 3, 4), inner=_Inner(noise=(7, 8)),
                         msgs=(0, 1, 2, 3), tags=("a", "b", "c", "d"))
    minimal = shrink_schedule(_TOY, _ToyConfig(), start)
    assert minimal == _ToySchedule(items=(3,), inner=_Inner(noise=()),
                                   msgs=(0, 1), tags=("a", "b"))
    rep = package_failure(_TOY, _ToyConfig(), start, trial=5)
    assert rep["config"] == {"messages": 2}
    assert rep["trial"] == 5


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------

def _config(argv):
    args = build_parser().parse_args(argv)
    kind = KINDS[args.command]
    return _campaign_config(kind, args)


def test_cli_dests_are_config_fields():
    assert _config(["churn", "run", "--members", "3"]).initial_members == 3
    broker = _config(["broker", "run", "--min-subs", "2", "--max-subs",
                      "5"])
    assert (broker.min_subscribers, broker.max_subscribers) == (2, 5)
    assert broker.coalesce_window is None   # 0 on the command line = off
    assert _config(["broker", "run", "--coalesce-window",
                    "5e-4"]).coalesce_window == 5e-4
    assert _config(["chaos", "run"]) == ChaosConfig()
    # fuzz run keeps its own, smaller defaults
    fuzz = _config(["fuzz", "run"])
    assert (fuzz.msg_packets, fuzz.horizon) == (6, 0.03)


@pytest.mark.parametrize("name", ["chaos", "churn"])
def test_unknown_mutation_refused_before_any_trial(name, monkeypatch):
    def boom(*a, **kw):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(campaign, "run_campaign", boom)
    with pytest.raises(SystemExit) as exc:
        main([name, "run", "--trials", "1", "--mutate", "bogus"])
    assert "unknown mutation 'bogus'" in str(exc.value)
