"""Chaos campaign runner: determinism, shrinking, reproducer round-trip."""

import json
import random

import pytest

from repro.harness.campaign import (load_reproducer, run_campaign,
                                    shrink_schedule)
from repro.harness.chaos import (CHAOS, ChaosConfig, Incident, Schedule,
                                 generate_schedule, run_trial)

# Small-but-real: enough horizon for an incident + RTO recovery.
QUICK = ChaosConfig(hosts=4, messages=2, msg_packets=4,
                    incidents=1, horizon=0.01)


def test_schedule_generation_is_deterministic():
    s1 = generate_schedule(QUICK, random.Random(123))
    s2 = generate_schedule(QUICK, random.Random(123))
    assert s1 == s2
    s3 = generate_schedule(QUICK, random.Random(124))
    assert s3 != s1


def test_schedule_json_round_trip():
    sched = generate_schedule(QUICK, random.Random(5))
    doc = json.dumps(sched.to_dict(), sort_keys=True)
    back = Schedule.from_dict(json.loads(doc))
    assert back == sched


def test_trial_is_bit_for_bit_deterministic():
    sched = generate_schedule(QUICK, random.Random(9))
    r1 = run_trial(QUICK, sched)
    r2 = run_trial(QUICK, sched)
    assert (json.dumps(r1, sort_keys=True)
            == json.dumps(r2, sort_keys=True))


def test_trial_survives_incidents_and_delivers():
    sched = generate_schedule(QUICK, random.Random(9))
    rec = run_trial(QUICK, sched)
    assert rec["completed_messages"] == QUICK.messages
    assert rec["violations"] == []
    assert rec["delivered_all"]
    assert not rec["failing"]
    assert rec["active_failures_at_end"] == 0


def test_incident_kinds_cover_and_repair():
    """Each incident kind individually: fail + repair, clean delivery."""
    base = generate_schedule(QUICK, random.Random(1))
    kinds = {
        "host": ("host", 2),
        "switch": ("switch", "sw0"),
        "loss": ("loss", "sw0", 0.2),
    }
    for kind, target in kinds.items():
        inc = Incident(kind=kind, target=target, at=0.0005,
                       repair_at=0.003)
        sched = Schedule(trial_seed=base.trial_seed,
                         sources=base.sources, offsets=base.offsets,
                         incidents=(inc,))
        rec = run_trial(QUICK, sched)
        assert not rec["failing"], (kind, rec["violations"])


def test_mutated_trial_fails_and_shrinks_to_minimum():
    """End-to-end self-test: the psn-skip mutation must (a) be caught,
    (b) survive shrinking, and (c) shrink away all irrelevant incidents."""
    cfg = ChaosConfig(hosts=4, messages=2, msg_packets=4,
                      incidents=2, horizon=0.01, mutate="psn-skip")
    sched = generate_schedule(cfg, random.Random(3))
    rec = run_trial(cfg, sched)
    assert rec["failing"]
    assert "psn-contiguity" in {v["invariant"] for v in rec["violations"]}
    minimal = shrink_schedule(CHAOS, cfg, sched)
    # the mutation alone causes the failure: no incident is needed
    assert minimal.incidents == ()
    # the skip lands mid-message-2, so both messages must remain
    assert len(minimal.sources) == 2
    assert run_trial(cfg, minimal)["failing"]


def test_campaign_packages_reproducer(tmp_path):
    cfg = ChaosConfig(hosts=4, messages=2, msg_packets=4,
                      incidents=1, horizon=0.01, mutate="psn-skip")
    camp = run_campaign(CHAOS, cfg, seed=2, trials=1)
    assert camp["failing_trials"] == [0]
    (rep,) = camp["reproducers"]
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(rep, sort_keys=True))
    cfg2, sched2 = load_reproducer(CHAOS, str(path))
    assert cfg2 == cfg
    assert run_trial(cfg2, sched2)["failing"]


def test_campaign_clean_when_unmutated():
    camp = run_campaign(CHAOS, QUICK, seed=11, trials=2)
    assert camp["failing_trials"] == []
    assert camp["reproducers"] == []


def test_cli_chaos_run_and_replay(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "campaign.json"
    rdir = tmp_path / "repros"
    rc = main(["chaos", "run", "--seed", "2", "--trials", "1",
               "--hosts", "4", "--messages", "2", "--msg-packets", "4",
               "--incidents", "1", "--horizon", "0.01",
               "--mutate", "psn-skip",
               "--out", str(out), "--repro-dir", str(rdir)])
    assert rc == 3  # failures found
    files = sorted(rdir.glob("*.json"))
    assert len(files) == 1
    rc = main(["chaos", "replay", str(files[0])])
    assert rc == 3  # still failing (the mutation is in the config)
    doc = json.loads(out.read_text())
    assert doc["failing_trials"] == [0]


# ---------------------------------------------------------------------------
# deployment-parameterized campaigns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("deployment", ["lookaside", "source_routed"])
def test_campaign_clean_under_alternate_deployments(deployment):
    cfg = ChaosConfig(hosts=4, messages=2, msg_packets=4,
                      incidents=1, horizon=0.01, deployment=deployment)
    camp = run_campaign(CHAOS, cfg, seed=7, trials=2)
    assert camp["failing_trials"] == [], camp
    assert camp["reproducers"] == []


def test_source_routed_campaign_trial_covers_sp_forward():
    """Regression: a source-routed chaos trial must actually route
    packets through the ``sp_forward`` stage — if the deployment knob
    silently fell back to inline, the header-driven path would go
    untested by every campaign."""
    from repro.check import CoverageMap

    cfg = ChaosConfig(hosts=4, messages=2, msg_packets=4,
                      incidents=1, horizon=0.01,
                      deployment="source_routed")
    sched = generate_schedule(cfg, random.Random(2))
    cov = CoverageMap()
    rec = run_trial(cfg, sched, coverage=cov)
    assert not rec["failing"], rec["violations"]
    keys = cov.to_list()
    assert any(k.startswith("stage/source_routed/accel/sp_forward/")
               for k in keys), keys
    # and none of the coverage claims a different deployment ran
    assert all("/inline/" not in k and "/lookaside/" not in k
               for k in keys)


def test_cli_chaos_run_accepts_deployment_flag(tmp_path):
    from repro.cli import main

    out = tmp_path / "campaign.json"
    rc = main(["chaos", "run", "--seed", "7", "--trials", "1",
               "--hosts", "4", "--messages", "2", "--msg-packets", "4",
               "--incidents", "1", "--horizon", "0.01",
               "--deployment", "source_routed", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["deployment"] == "source_routed"
    assert doc["failing_trials"] == []
