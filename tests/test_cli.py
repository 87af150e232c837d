"""Command-line interface."""

import pytest

from repro.cli import build_parser, list_experiments, main
from repro.runner import REGISTRY


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig03", "--scale", "huge"])


class TestDispatch:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY.ids():
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_every_command_is_listed(self):
        listing = list_experiments()
        assert listing.count("\n") == len(REGISTRY) + 1

    def test_tab14_runs(self, capsys):
        assert main(["tab14"]) == 0
        out = capsys.readouterr().out
        assert "Kmin" in out
        assert "1/256" in out

    def test_sec4_runs(self, capsys):
        assert main(["sec4"]) == 0
        assert "24.48 KB" in capsys.readouterr().out

    def test_fig01_runs(self, capsys):
        assert main(["fig01"]) == 0
        out = capsys.readouterr().out
        assert "TCP" in out and "latency" in out

    def test_scale_override(self, capsys, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["tab14", "--scale", "quick"]) == 0
        assert os.environ["REPRO_SCALE"] == "quick"


class TestBadInputEndsEarly:
    """An option the target would drop, or a value no parser accepts,
    ends the command with exit 2 and one line, before anything runs."""

    @pytest.mark.parametrize(
        "option, where",
        [
            (["--faults", "/nonexistent.json"], "--faults applies to named scenarios"),
            (["--shards", "2"], "--shards applies to named scenarios"),
            (["--seed", "3"], "--seed applies to named scenarios"),
            (["--invariants", "strict"], "--invariants applies to named scenarios"),
        ],
    )
    def test_option_the_experiment_does_not_read(
        self, option, where, capsys, monkeypatch
    ):
        import os

        monkeypatch.setenv("REPRO_SHARDS", "")
        assert main(["fig03"] + option) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert where in line and "'fig03'" in line
        assert os.environ["REPRO_SHARDS"] == ""  # a refused command exports nothing

    def test_bad_environment_value(self, capsys, monkeypatch):
        # tab14 reads no scale, yet a malformed REPRO_* still ends it
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert main(["tab14"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert "REPRO_SCALE" in line

    @pytest.mark.parametrize("value", ["soon", "-3"])
    def test_timeout_is_checked_when_parsed(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig03", "--timeout", value])
        assert exit_info.value.code == 2
        assert (
            "argument --timeout: expected positive seconds or 'off'"
            in capsys.readouterr().err
        )


class TestFaultCommands:
    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ("link_flap", "pause_storm", "cnp_impairment"):
            assert kind in out

    def test_faults_example_is_a_loadable_plan(self, capsys):
        import json

        from repro.faults import FaultPlan

        assert main(["faults", "example"]) == 0
        plan = FaultPlan.from_json(json.loads(capsys.readouterr().out))
        assert len(plan.injectors) == 2
        assert plan.watchdog is not None

    def test_run_named_scenario_with_plan(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_SCALE", "smoke")
        plan_file = tmp_path / "plan.json"
        assert main(["faults", "example"]) == 0
        plan_file.write_text(capsys.readouterr().out)
        assert main(["run", "storm", "--faults", str(plan_file)]) == 0
        out = capsys.readouterr().out
        assert "feeder" in out and "victim" in out

    def test_bad_plan_file_is_reported(self, capsys, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text('{"injectors": [{"kind": "gremlin"}]}')
        assert main(["run", "storm", "--faults", str(plan_file)]) == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_only_a_named_scenario_takes_an_invariants_overlay(
        self, capsys, monkeypatch
    ):
        # an experiment's scenarios carry their own guard modes
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["arena", "--invariants", "report"]) == 2
        assert "--invariants applies to named scenarios" in capsys.readouterr().err
        assert main(["run", "storm", "--invariants", "report"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "invariants[report]:"
        )


class TestSharedOptions:
    """Every parser takes its shared options from one declaration and
    exports them through one helper (``repro.cli._export_env``)."""

    @pytest.mark.parametrize(
        "argv",
        [["trace"], ["profile"], ["faults"], ["fabric", "check"], []],
        ids=["trace", "profile", "faults", "fabric-check", "experiment"],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--help"])
        assert exit_info.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_bench_subcommand_is_gone(self, capsys):
        # bench/run.py is the benchmark and the figure renderer is gone;
        # 'bench' and 'plot' are just unknown ids now
        for command in ("bench", "plot"):
            assert main([command]) == 2
            assert capsys.readouterr().err == (
                f"unknown experiment {command!r}; try 'list'\n"
            )

    @pytest.mark.parametrize("command", ["run", "trace", "profile"])
    def test_scale_flag_reaches_the_environment(
        self, command, capsys, tmp_path, monkeypatch
    ):
        import os

        argv = {
            "run": ["run", "smoke"],
            "trace": ["trace", "smoke", "--out", str(tmp_path / "t.jsonl")],
            "profile": ["profile", "smoke"],
        }[command]
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        # the variable asks for quick; the flag, not the variable,
        # sets the scale the run uses
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert main(argv + ["--scale", "smoke"]) == 0
        assert os.environ["REPRO_SCALE"] == "smoke"


class TestShardedRunLines:
    """``repro run --shards N`` says what happened to the request."""

    @pytest.fixture(autouse=True)
    def smoke(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        # --shards exports REPRO_SHARDS for good; set here, it is
        # restored (to unset) after each test
        monkeypatch.setenv("REPRO_SHARDS", "1")

    def test_killed_worker_is_reported(self, capsys, monkeypatch):
        import os
        import signal

        from repro.shard import runner as shard_runner

        real_main = shard_runner.shard_worker_main

        def killed_main(conn, spec, seed, plan, shard_id, window_ns):
            if shard_id == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            real_main(conn, spec, seed, plan, shard_id, window_ns)

        assert main(["run", "fabric/4"]) == 0
        serial = capsys.readouterr().out
        assert "resilience:" not in serial and "sharded:" not in serial
        monkeypatch.setattr(shard_runner, "shard_worker_main", killed_main)
        assert main(["run", "fabric/4", "--shards", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [ln for ln in lines if ln.startswith("resilience:")]
        assert line.startswith(
            "resilience: degraded to serial after shard 1 death "
            "before the first barrier (exit -9)"
        )
        # the answer is the serial one: same table, two extra lines
        extra = [ln for ln in lines if ln.startswith(("sharded:", "resilience:"))]
        assert [ln for ln in lines if ln not in extra] == serial.splitlines()

    def test_watchdog_plan_says_why_it_stayed_serial(self, capsys, tmp_path):
        import json

        from repro.faults import FaultPlan, WatchdogConfig

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            json.dumps(FaultPlan(watchdog=WatchdogConfig()).to_json())
        )
        argv = ["run", "fabric/4", "--faults", str(plan_file)]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        # the guard's line, which the sharded run keeps last too
        assert serial.splitlines()[-1].startswith("invariants[strict]:")
        assert main(argv + ["--shards", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == serial.splitlines()[:-2] + [
            "sharding skipped (the deadlock watchdog needs the whole "
            "wait-for graph)"
        ] + serial.splitlines()[-2:]

    def test_non_fabric_says_why_it_stayed_serial(self, capsys):
        assert main(["run", "smoke", "--shards", "2"]) == 0
        assert (
            "sharding skipped ('single_switch' topology runs serial)"
            in capsys.readouterr().out
        )
