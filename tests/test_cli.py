"""The cepheus-repro CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("experiments", "demo", "sweep", "info"):
            args = parser.parse_args([cmd] if cmd != "sweep"
                                     else [cmd, "--sizes", "64"])
            assert callable(args.fn)

    def test_bench_subcommands_registered(self):
        parser = build_parser()
        emit = parser.parse_args(["bench", "emit", "--jobs", "4"])
        assert callable(emit.fn) and emit.jobs == 4
        cmp_args = parser.parse_args(["bench", "compare", "a.json",
                                      "b.json"])
        assert callable(cmp_args.fn)
        assert cmp_args.current == "a.json" and cmp_args.baseline == "b.json"

    def test_experiments_jobs_flag(self, capsys):
        assert main(["experiments", "--only", "fig7b", "--jobs", "2"]) == 0
        assert "MFT memory" in capsys.readouterr().out

    def test_bench_compare_gate_flags(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "compare", "a.json", "b.json",
                                  "--check-events",
                                  "--max-wall-drift", "0.10"])
        assert args.check_events is True
        assert args.max_wall_drift == pytest.approx(0.10)
        defaults = parser.parse_args(["bench", "compare", "a.json", "b.json"])
        assert defaults.check_events is False
        assert defaults.max_wall_drift == -1.0  # sentinel: gate off

    def test_pipeline_subcommand_registered(self):
        args = build_parser().parse_args(
            ["pipeline", "dump", "--deployment", "lookaside"])
        assert callable(args.fn) and args.deployment == "lookaside"


class TestCommands:
    def test_info_prints_constants(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "100 Gbps" in out
        assert "CALIBRATION" in out

    def test_demo_runs(self, capsys):
        assert main(["demo", "--size", "65536"]) == 0
        out = capsys.readouterr().out
        assert "cepheus" in out and "chain" in out
        assert "1.00x" in out

    def test_sweep_runs(self, capsys):
        assert main(["sweep", "--sizes", "4096", "--groups", "4",
                     "--algorithms", "cepheus"]) == 0
        out = capsys.readouterr().out
        assert "cepheus_jct" in out

    def test_experiments_selection(self, capsys):
        assert main(["experiments", "--only", "fig7b"]) == 0
        out = capsys.readouterr().out
        assert "MFT memory" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--only", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_pipeline_dump_inline(self, capsys):
        assert main(["pipeline", "dump"]) == 0
        out = capsys.readouterr().out
        assert "rx: pfc -> loss -> acl_classify -> unicast_forward" in out
        assert ("accel[inline]: admit -> mrp -> mft_lookup -> reduce -> "
                "track_source -> replicate -> bridge -> feedback") in out
        assert "lookaside_detour" not in out

    def test_pipeline_dump_lookaside_has_detour_stage(self, capsys):
        assert main(["pipeline", "dump", "--deployment", "lookaside"]) == 0
        out = capsys.readouterr().out
        assert "admit -> lookaside_detour -> mrp" in out

    def test_pipeline_dump_source_routed_has_sp_forward(self, capsys):
        assert main(["pipeline", "dump", "--deployment",
                     "source_routed"]) == 0
        out = capsys.readouterr().out
        assert ("accel[source_routed]: admit -> mrp -> sp_forward -> "
                "mft_lookup") in out

    def test_pipeline_dump_unknown_deployment_clean_error(self, capsys):
        assert main(["pipeline", "dump", "--deployment", "quantum"]) == 2
        err = capsys.readouterr().err
        assert "unknown deployment 'quantum'" in err
        assert "inline, lookaside, source_routed" in err

    def test_pipeline_dump_switch_filter(self, capsys):
        assert main(["pipeline", "dump", "--topo", "fat_tree",
                     "--switch", "core0"]) == 0
        out = capsys.readouterr().out
        assert "core0" in out and "edge0_0" not in out
        assert main(["pipeline", "dump", "--switch", "nope"]) == 2
        assert "no switch 'nope'" in capsys.readouterr().err


class TestHelp:
    def test_bench_compare_help_prints_default_tolerance(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "built-in 8% rel" in out
        assert "option_strings" not in out
