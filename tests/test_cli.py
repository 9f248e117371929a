"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main

FAST = ["--dataset", "TEXTURE48", "--scale", "0.05", "--queries", "10",
        "--memory", "500"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_dataset_and_input_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["predict", "--dataset", "A", "--input", "b.npy"]
            )


class TestPredict:
    def test_default_method(self, capsys):
        assert main(["predict", *FAST]) == 0
        out = capsys.readouterr().out
        assert "predicted leaf accesses per query" in out
        assert "resampled" in out or "sigma_lower" in out

    @pytest.mark.parametrize("method", ["mini", "cutoff", "resampled"])
    def test_all_methods(self, method, capsys):
        assert main(["predict", *FAST, "--method", method]) == 0
        assert "predicted leaf accesses" in capsys.readouterr().out

    def test_mini_with_fraction(self, capsys):
        assert main(
            ["predict", *FAST, "--method", "mini", "--fraction", "0.5"]
        ) == 0
        assert "'zeta': 0.5" in capsys.readouterr().out

    def test_npy_input(self, tmp_path, capsys):
        points = np.random.default_rng(0).random((500, 8))
        path = tmp_path / "pts.npy"
        np.save(path, points)
        assert main(
            ["predict", "--input", str(path), "--queries", "5",
             "--memory", "200"]
        ) == 0
        assert "500 x 8-d" in capsys.readouterr().out

    def test_bad_npy_shape(self, tmp_path):
        path = tmp_path / "bad.npy"
        np.save(path, np.zeros(10))
        with pytest.raises(SystemExit):
            main(["predict", "--input", str(path)])


class TestOtherCommands:
    def test_measure(self, capsys):
        assert main(["measure", *FAST]) == 0
        out = capsys.readouterr().out
        assert "measured leaf accesses per query" in out
        assert "build I/O" in out

    def test_compare(self, capsys):
        assert main(["compare", *FAST]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "resampled" in out and "measured" in out

    def test_tune_pagesize(self, capsys):
        assert main(["tune-pagesize", *FAST]) == 0
        assert "predicted optimum" in capsys.readouterr().out

    def test_costs(self, capsys):
        assert main(
            ["costs", "--n", "100000", "--dim", "32", "--memory", "5000"]
        ) == 0
        out = capsys.readouterr().out
        assert "on-disk build" in out and "cutoff" in out


class TestDurabilityFlags:
    def test_parser_accepts_durability_flags(self):
        args = build_parser().parse_args(
            ["predict", "--corruption-rate", "0.1", "--verify-checksums",
             "--crash-at", "7"]
        )
        assert args.corruption_rate == 0.1
        assert args.verify_checksums is True
        assert args.crash_at == 7

    def test_verify_checksums_clean_run(self, capsys):
        assert main(["predict", *FAST, "--verify-checksums"]) == 0
        assert "predicted leaf accesses" in capsys.readouterr().out

    def test_corruption_survived_with_checksums(self, capsys):
        # Moderate corruption is absorbed by checksum-verify + retry.
        assert main(
            ["predict", *FAST, "--corruption-rate", "0.05",
             "--verify-checksums"]
        ) == 0
        assert "predicted leaf accesses" in capsys.readouterr().out


class TestExitCodeTable:
    """The centralized table in ``errors.EXIT_CODES`` is the single
    source of truth: complete over the exported hierarchy, unambiguous,
    and what both the CLI resolver and the --help epilog consume."""

    def test_every_exported_error_has_exactly_one_code(self):
        import repro.errors as errors_mod

        exported = [
            getattr(errors_mod, name) for name in errors_mod.__all__
        ]
        classes = [
            cls for cls in exported
            if isinstance(cls, type)
            and issubclass(cls, errors_mod.ReproError)
        ]
        assert len(classes) >= 17
        registered = [cls for cls, _, _ in errors_mod.EXIT_CODES]
        # no class appears twice, no code is shared between entries
        assert len(registered) == len(set(registered))
        codes = [code for _, code, _ in errors_mod.EXIT_CODES]
        assert len(codes) == len(set(codes))
        # every registered class is part of the exported hierarchy
        assert set(registered) <= set(classes)
        for cls in classes:
            code = errors_mod.exit_code_for(cls)
            assert isinstance(code, int) and 3 <= code <= 19, (
                f"{cls.__name__} resolves to no usable exit code"
            )
            # most-specific-first actually holds: the resolved code is
            # the first subclass match, and a class with its own row
            # resolves to that row (never shadowed by a parent above it)
            expected = next(
                c for k, c, _ in errors_mod.EXIT_CODES
                if issubclass(cls, k)
            )
            assert code == expected

    def test_cli_resolver_delegates_to_the_table(self):
        from repro import cli
        from repro.errors import (
            EXIT_CODES,
            CircuitOpenError,
            exit_code_for,
        )

        assert cli.exit_code_for is exit_code_for
        for cls, code, _description in EXIT_CODES:
            error = cls.__new__(cls)
            assert exit_code_for(error) == code
        # the breaker has no row of its own: it resolves via DiskError
        breaker = CircuitOpenError.__new__(CircuitOpenError)
        assert exit_code_for(breaker) == 6

    def test_help_epilog_is_generated_from_the_table(self):
        from repro.cli import _EXIT_CODE_HELP
        from repro.errors import EXIT_CODES

        for _cls, code, description in EXIT_CODES:
            assert f"\n  {code:<3}" in _EXIT_CODE_HELP
            assert description.split(":")[0].split("(")[0].strip() \
                in _EXIT_CODE_HELP
        for code in (0, 2, 130):
            assert f"\n  {code:<3}" in _EXIT_CODE_HELP


class TestFailureExitCodes:
    def test_crash_point_exits_10(self, capsys):
        code = main(["predict", *FAST, "--crash-at", "1"])
        assert code == 10
        err = capsys.readouterr().err
        assert "CrashPoint" in err

    def test_crash_point_exits_10_on_measure(self, capsys):
        assert main(["measure", *FAST, "--crash-at", "1"]) == 10
        assert "CrashPoint" in capsys.readouterr().err

    def test_checksum_error_exits_9(self, capsys):
        # measure has no degradation chain, so an unrecoverable
        # checksum failure (every read corrupted) surfaces directly
        code = main(
            ["measure", *FAST, "--corruption-rate", "1.0",
             "--verify-checksums"]
        )
        assert code == 9
        assert "ChecksumError" in capsys.readouterr().err

    def test_invalid_rate_exits_3(self, capsys):
        assert main(["predict", *FAST, "--corruption-rate", "1.5"]) == 3
        assert "InputValidationError" in capsys.readouterr().err

    def test_invalid_crash_at_exits_3(self, capsys):
        assert main(["predict", *FAST, "--crash-at", "0"]) == 3
        assert "InputValidationError" in capsys.readouterr().err


class TestBudgetFlags:
    def test_budget_exhaustion_exits_11_in_strict_mode(self, capsys):
        code = main(["predict", *FAST, "--max-io-ops", "10",
                     "--strict-budget"])
        assert code == 11
        assert "BudgetExceededError" in capsys.readouterr().err

    def test_deadline_exits_12_in_strict_mode(self, capsys):
        code = main(["predict", *FAST, "--deadline-s", "0.000001",
                     "--strict-budget"])
        assert code == 12
        assert "DeadlineExceededError" in capsys.readouterr().err

    def test_tight_budget_degrades_to_zero_by_default(self, capsys):
        # Without --strict-budget a blown budget is an anytime answer,
        # not an error: exit 0 and a spend report on stdout.
        with pytest.warns(Warning):
            assert main(["predict", *FAST, "--max-io-ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "within budget" in out

    def test_ample_budget_reports_spend(self, capsys):
        assert main(["predict", *FAST, "--max-io-ops", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "budget:" in out
        assert "within budget: True" in out

    def test_hedge_requires_deadline(self, capsys):
        assert main(["predict", *FAST, "--hedge"]) == 3
        assert "InputValidationError" in capsys.readouterr().err

    def test_hedge_reports_winner(self, capsys):
        code = main(["predict", *FAST, "--deadline-s", "60", "--hedge"])
        assert code == 0
        assert "path answered" in capsys.readouterr().out

    def test_invalid_budget_values_exit_3(self, capsys):
        assert main(["predict", *FAST, "--max-io-ops", "-5"]) == 3
        assert "InputValidationError" in capsys.readouterr().err


class TestSelfHealingFlags:
    def test_parser_accepts_redundancy_flags(self):
        args = build_parser().parse_args(
            ["predict", "--at-rest-rate", "0.1",
             "--replication-factor", "3", "--parity", "--scrub"]
        )
        assert args.at_rest_rate == 0.1
        assert args.replication_factor == 3
        assert args.parity is True
        assert args.scrub is True

    def test_rot_healed_by_replication(self, capsys):
        assert main(
            ["predict", *FAST, "--at-rest-rate", "0.05",
             "--replication-factor", "2", "--parity"]
        ) == 0
        assert "redundancy: 2-way + parity" in capsys.readouterr().out

    def test_scrub_report_printed_after_predict(self, capsys):
        assert main(
            ["predict", *FAST, "--at-rest-rate", "0.05",
             "--replication-factor", "2", "--parity", "--scrub"]
        ) == 0
        assert "scrub:" in capsys.readouterr().out

    def test_unreplicated_rot_exits_13_without_degradation(self, capsys):
        # --strict-budget disables the degradation chain, so the
        # non-retryable media error surfaces with its own exit code.
        code = main(
            ["predict", *FAST, "--at-rest-rate", "0.9",
             "--verify-checksums", "--strict-budget"]
        )
        assert code == 13
        assert "UnrecoverableCorruptionError" in capsys.readouterr().err

    def test_unreplicated_rot_degrades_to_zero_by_default(self, capsys):
        with pytest.warns(Warning):
            assert main(
                ["predict", *FAST, "--at-rest-rate", "0.9",
                 "--verify-checksums"]
            ) == 0
        assert "resilience:" in capsys.readouterr().out

    def test_invalid_replication_factor_exits_3(self, capsys):
        assert main(["predict", *FAST, "--replication-factor", "0"]) == 3
        assert "InputValidationError" in capsys.readouterr().err


class TestScrubCommand:
    def test_clean_scrub(self, capsys):
        assert main(["scrub", *FAST]) == 0
        out = capsys.readouterr().out
        assert "pages scanned" in out
        assert "scrub I/O" in out

    def test_scrub_repairs_with_redundancy(self, capsys):
        assert main(
            ["scrub", *FAST, "--at-rest-rate", "0.1",
             "--replication-factor", "2", "--parity",
             "--fault-seed", "1", "--strict"]
        ) == 0
        assert "repaired" in capsys.readouterr().out

    def test_strict_scrub_exits_13_on_unrecoverable_rot(self, capsys):
        code = main(["scrub", *FAST, "--at-rest-rate", "0.9", "--strict"])
        assert code == 13
        captured = capsys.readouterr()
        assert "UNRECOVERABLE" in captured.out
        assert "unrecoverable under --strict" in captured.err

    def test_unstrict_scrub_inventories_without_failing(self, capsys):
        assert main(["scrub", *FAST, "--at-rest-rate", "0.9"]) == 0
        assert "UNRECOVERABLE" in capsys.readouterr().out


class TestClusterCommand:
    def test_parser_accepts_cluster_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--shards", "3", "--replicas", "4",
             "--replication", "2", "--chaos", "--double-kill"]
        )
        assert args.shards == 3
        assert args.replicas == 4
        assert args.replication == 2
        assert args.chaos is True
        assert args.double_kill is True

    def test_cluster_demo_walkthrough(self, capsys):
        assert main(
            ["cluster", "--scale", "0.005", "--queries", "8",
             "--memory", "200"]
        ) == 0
        out = capsys.readouterr().out
        assert "owners (cheapest first)" in out
        assert "healthy: 8 queries, mean predicted accesses" in out

    def test_replica_unavailable_maps_to_18(self):
        from repro.errors import ReplicaUnavailableError, exit_code_for

        error = ReplicaUnavailableError(0, [("replica-0", "down")])
        assert exit_code_for(error) == 18

    def test_parser_accepts_elasticity_flags(self):
        args = build_parser().parse_args(
            ["cluster", "--chaos", "--scale-events"]
        )
        assert args.scale_events is True

    def test_stale_routing_epoch_maps_to_19(self):
        from repro.errors import StaleRoutingEpochError, exit_code_for

        error = StaleRoutingEpochError(0, 1, 2)
        assert exit_code_for(error) == 19

    @pytest.mark.parametrize("flag", ["--controller", "--double-kill",
                                      "--scale-events"])
    def test_chaos_only_flag_without_chaos_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", flag, "--scale", "0.005", "--queries", "8",
                  "--memory", "200"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"{flag} requires --chaos" in captured.err
        assert "owners (cheapest first)" not in captured.out

    @pytest.mark.parametrize("flag", [
        ["--dataset", "TEXTURE48"], ["--scale", "0.1"], ["--input", "x.npy"],
        ["--memory", "200"], ["--shards", "3"], ["--queries", "8"],
    ], ids=lambda flag: flag[0])
    def test_demo_flag_with_chaos_exits_2(self, flag, monkeypatch, capsys):
        scenarios = TestClusterChaosExitCodes._stub_storm(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            main(["cluster", "--chaos", *flag])
        assert excinfo.value.code == 2
        assert f"{flag[0]} cannot be combined with --chaos" in (
            capsys.readouterr().err
        )
        assert not scenarios

    def test_parser_accepts_controller_flags(self):
        args = build_parser().parse_args(["cluster", "--chaos",
                                          "--controller"])
        assert args.controller is True
        assert build_parser().parse_args(["cluster"]).controller is False


class TestClusterChaosExitCodes:
    """``cluster --chaos`` exits 0 when the storm's invariant holds and
    1 when it is violated; the storm itself is stubbed out here (the
    real storms run in tests/test_cluster_chaos.py)."""

    @staticmethod
    def _stub_storm(monkeypatch, violations=()):
        from repro import cli
        from repro.cluster import ClusterChaosOutcome

        scenarios = []

        def fake_run(scenario, *, artifact_root):
            scenarios.append(scenario)
            outcome = ClusterChaosOutcome(scenario=scenario)
            outcome.violations.extend(violations)
            if scenario.controller:
                outcome.stale_rejections = 1
                outcome.controller.update(
                    shards_start=3, shards_end=2,
                    counters={"merge": 1}, flaps=0,
                )
            return outcome

        monkeypatch.setattr(cli, "run_cluster_chaos", fake_run)
        return scenarios

    def test_clean_storm_exits_0(self, monkeypatch, capsys):
        scenarios = self._stub_storm(monkeypatch)
        assert main(["cluster", "--chaos", "--seed", "4"]) == 0
        captured = capsys.readouterr()
        assert "cluster invariant holds" in captured.out
        assert scenarios[0].seed == 4
        assert scenarios[0].controller is False

    def test_violated_storm_exits_1(self, monkeypatch, capsys):
        self._stub_storm(monkeypatch, violations=["lost a response"])
        assert main(["cluster", "--chaos"]) == 1
        captured = capsys.readouterr()
        assert "cluster invariant violated" in captured.err
        assert "lost a response" in captured.err
        assert "cluster invariant holds" not in captured.out

    def test_controller_storm_is_the_tested_scenario(self, monkeypatch):
        from repro.cluster import ClusterChaosScenario

        scenarios = self._stub_storm(monkeypatch)
        assert main(["cluster", "--chaos", "--controller",
                     "--seed", "2"]) == 0
        # the configuration test_cluster_chaos.py's controller storm runs
        assert scenarios[0] == ClusterChaosScenario(
            seed=2, n_shards=3, controller=True, controller_dwell=2,
            merge_when=2.5,
        )


class TestServeInterrupt:
    def test_sigterm_drains_and_exits_130(self, capsys, monkeypatch):
        """A signal mid-session takes the graceful path: stop() drains
        the queue with typed shutdown responses, the books are printed,
        and the exit code is 130 -- never a raw traceback."""
        import os
        import signal
        import threading

        from repro.service import server as server_module

        original_start = server_module.PredictionService.start

        def start_then_interrupt(self):
            original_start(self)
            threading.Timer(
                0.05, lambda: os.kill(os.getpid(), signal.SIGTERM)
            ).start()

        monkeypatch.setattr(
            server_module.PredictionService, "start", start_then_interrupt
        )
        code = main(
            ["serve", *FAST, "--tenants", "2", "--requests", "200",
             "--max-inflight", "256", "--max-queue", "256",
             "--method", "resampled"]
        )
        captured = capsys.readouterr()
        assert code == 130
        assert "interrupted: graceful stop drained" in captured.err
        assert "serving session" in captured.out  # books still printed


class TestVersionAndHelp:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_help_lists_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for code in ("3 ", "10 ", "11 ", "12 ", "13 ", "19 "):
            assert code in out
        assert "resource budget exhausted" in out
        assert "deadline exceeded" in out
        assert "unrecoverable at-rest corruption" in out
        assert "stale routing epoch" in out
