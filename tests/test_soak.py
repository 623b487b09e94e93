"""The soak-and-chaos harness: long-horizon service runs under fault
pressure.

What "correct" means here:

* **determinism** — one (config, seed) pair is one soak: the chaos arm
  sequence, the per-tenant results, and the whole-report fingerprint are
  bit-identical across re-runs and across all three engines;
* **steady state has teeth** — the monitor's rules (EFI bound, leak
  regression, drain budget, SLO, pause ledger) each fire on a synthetic
  series that violates them, and stay silent on a healthy soak;
* **watchdogs fail loudly** — a soak that cannot finish produces a
  structured verdict and a crash-dump bundle, never a hang;
* **telemetry is honest** — the bounded tracer reports what it dropped,
  and the report carries the counter through.
"""

import json
from types import SimpleNamespace

import pytest

from repro.machine.session import CaratSession, RunConfig
from repro.soak import (
    ChaosSchedule,
    EpochSample,
    SoakRunner,
    SteadyStateMonitor,
    windowed_slope,
)
from repro.telemetry.metrics import run_snapshot
from repro.telemetry.tracer import Tracer

ENGINES = ["reference", "fast", "trace"]


def make_sample(epoch, **overrides):
    base = dict(
        epoch=epoch,
        machine_cycles=epoch * 10_000,
        efi=0.1,
        allocated_frames=100,
        table_entries=50,
        escape_footprint=4096,
        escape_pending=0,
        completed_requests=epoch * 10,
        latencies=[100],
    )
    base.update(overrides)
    return EpochSample(**base)


def soak_config(engine="fast", **overrides):
    base = dict(
        engine=engine,
        soak_requests=600,
        soak_tenants=2,
        soak_horizon=40,
        soak_rounds_per_epoch=25,
        quantum=1000,
        chaos_rate=1.0,
        chaos_seed=77,
        soak_warmup=2,
    )
    base.update(overrides)
    return RunConfig(**base)


class TestWindowedSlope:
    def test_flat_series_has_zero_slope(self):
        assert windowed_slope([5.0] * 10, 8) == 0.0

    def test_linear_series_recovers_slope(self):
        series = [3.0 * i + 7 for i in range(20)]
        assert windowed_slope(series, 8) == pytest.approx(3.0)

    def test_window_ignores_old_history(self):
        # Huge early values, flat tail: the window only sees the tail.
        series = [1e9, 1e9] + [4.0] * 10
        assert windowed_slope(series, 5) == 0.0

    def test_short_series_is_zero(self):
        assert windowed_slope([], 4) == 0.0
        assert windowed_slope([1.0], 4) == 0.0


class TestSteadyStateMonitor:
    def test_healthy_series_stays_clean(self):
        monitor = SteadyStateMonitor(warmup=2, window=8)
        for epoch in range(1, 30):
            monitor.observe(make_sample(epoch, table_entries=50 + epoch % 3))
        monitor.finish(30)
        assert monitor.ok

    def test_efi_needs_consecutive_breaches(self):
        monitor = SteadyStateMonitor(warmup=1, max_efi=0.9, efi_patience=3)
        for epoch in range(2, 4):
            monitor.observe(make_sample(epoch, efi=0.95))
        assert monitor.ok  # two breaches < patience
        monitor.observe(make_sample(4, efi=0.95))
        names = [v.name for v in monitor.verdicts]
        assert names == ["efi-bound"]

    def test_efi_breach_counter_resets(self):
        monitor = SteadyStateMonitor(warmup=1, max_efi=0.9, efi_patience=2)
        monitor.observe(make_sample(2, efi=0.95))
        monitor.observe(make_sample(3, efi=0.5))  # recovery resets
        monitor.observe(make_sample(4, efi=0.95))
        assert monitor.ok

    def test_monotonic_table_growth_is_a_leak(self):
        monitor = SteadyStateMonitor(warmup=2, window=8)
        for epoch in range(1, 25):
            monitor.observe(make_sample(epoch, table_entries=50 + 10 * epoch))
        assert any(v.name == "leak-table-entries" for v in monitor.verdicts)

    def test_oscillating_plateau_is_not_a_leak(self):
        monitor = SteadyStateMonitor(warmup=2, window=8)
        for epoch in range(1, 25):
            monitor.observe(
                make_sample(epoch, table_entries=500 + (7 if epoch % 2 else -7))
            )
        assert monitor.ok

    def test_warmup_ramp_then_plateau_is_not_a_leak(self):
        # The start-up ramp fills the table during warmup; a window that
        # still held it would regress the ramp and call it a leak.
        monitor = SteadyStateMonitor(warmup=5, window=8)
        for epoch in range(1, 31):
            monitor.observe(
                make_sample(epoch, table_entries=100 * min(epoch, 5))
            )
        assert monitor.ok

    def test_growth_after_warmup_is_still_a_leak(self):
        monitor = SteadyStateMonitor(warmup=5, window=8)
        for epoch in range(1, 41):
            entries = 100 * min(epoch, 5) + 10 * max(0, epoch - 15)
            monitor.observe(make_sample(epoch, table_entries=entries))
        flagged = [v for v in monitor.verdicts if v.name == "leak-table-entries"]
        assert len(flagged) == 1
        assert flagged[0].epoch > 15

    def test_quarantine_overstay_flags_drain_verdict(self):
        monitor = SteadyStateMonitor(warmup=0, drain_budget=4)
        monitor.observe(make_sample(1, oldest_quarantine_age=5))
        assert [v.name for v in monitor.verdicts] == ["degradation-drain"]

    def test_slo_gate_uses_whole_run_percentile(self):
        monitor = SteadyStateMonitor(warmup=0, slo_p99=200)
        for epoch in range(1, 4):
            monitor.observe(make_sample(epoch, latencies=[100, 150, 500]))
        monitor.finish(4)
        assert [v.name for v in monitor.verdicts] == ["slo-p99"]

    def test_flag_suppresses_repeats(self):
        monitor = SteadyStateMonitor()
        assert monitor.flag("watchdog", 1, "stuck", 1, 0) is not None
        assert monitor.flag("watchdog", 2, "stuck again", 1, 0) is None
        assert len(monitor.verdicts) == 1


class TestChaosSchedule:
    def run_epochs(self, seed, epochs=20, rate=2.5):
        schedule = ChaosSchedule(rate, seed)
        for _ in range(epochs):
            schedule.arm_epoch()
            schedule.sweep_epoch()
        return schedule

    def test_same_seed_same_fault_sequence(self):
        a = self.run_epochs(seed=7)
        b = self.run_epochs(seed=7)
        assert a.armed == b.armed
        assert a.fingerprint() == b.fingerprint()

    def test_different_seed_different_sequence(self):
        assert self.run_epochs(seed=7).armed != self.run_epochs(seed=8).armed

    def test_sweep_clears_unfired_points(self):
        schedule = ChaosSchedule(3.0, seed=5)
        schedule.arm_epoch()
        assert schedule.injector.points
        swept = schedule.sweep_epoch()
        assert swept == len(schedule.armed)
        assert not schedule.injector.points
        assert schedule.swept == swept

    def test_rate_zero_arms_nothing(self):
        schedule = ChaosSchedule(0.0, seed=5)
        for _ in range(10):
            schedule.arm_epoch()
        assert schedule.armed == []

    def test_fractional_rate_averages_out(self):
        schedule = ChaosSchedule(0.5, seed=11)
        for _ in range(200):
            schedule.arm_epoch()
            schedule.sweep_epoch()
        assert 60 <= len(schedule.armed) <= 140

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ChaosSchedule(-1.0, seed=1)


class TestRunConfigSoakFlags:
    def test_round_trip_preserves_every_soak_field(self):
        config = RunConfig(
            soak_requests=123_456,
            soak_horizon=77,
            soak_tenants=5,
            soak_rounds_per_epoch=9,
            soak_warmup=3,
            chaos_rate=2.25,
            chaos_seed=424242,
            slo_p99=5000,
            sanitize_every=4,
            drain_budget=6,
        )
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_from_args_maps_the_soak_flag_names(self):
        args = SimpleNamespace(
            requests=5000,
            horizon=33,
            tenants=4,
            rounds_per_epoch=12,
            warmup=2,
            seed=99,
            chaos_rate=1.5,
            slo_p99=3000,
            sanitize_every=2,
            drain_budget=8,
            engine="fast",
        )
        config = RunConfig.from_args(args)
        assert config.soak_requests == 5000
        assert config.soak_horizon == 33
        assert config.soak_tenants == 4
        assert config.soak_rounds_per_epoch == 12
        assert config.soak_warmup == 2
        assert config.chaos_seed == 99
        assert config.chaos_rate == 1.5
        assert config.slo_p99 == 3000
        assert config.sanitize_every == 2
        assert config.drain_budget == 8

    @pytest.mark.parametrize(
        "field,value",
        [
            ("soak_requests", 0),
            ("soak_horizon", -1),
            ("soak_tenants", 0),
            ("soak_rounds_per_epoch", 0),
            ("drain_budget", 0),
            ("soak_warmup", -1),
            ("slo_p99", -5),
            ("sanitize_every", -1),
            ("chaos_rate", -0.5),
        ],
    )
    def test_bad_soak_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})


class TestTracerDropCounter:
    def test_bounded_tracer_counts_drops(self):
        tracer = Tracer(max_events=4)
        for i in range(10):
            tracer.instant(f"e{i}", "test")
        assert len(tracer.events) == 4
        assert tracer.dropped_events == 6
        assert tracer.summary()["dropped"] == 6

    def test_run_snapshot_exposes_drop_counter(self):
        config = RunConfig(engine="fast", trace=True)
        result = CaratSession(config).run(
            "int main() { print_long(7); return 0; }"
        )
        snapshot = run_snapshot(result)
        tracer_section = snapshot["tracer"]
        assert tracer_section["dropped_events"] == result.tracer.dropped_events
        assert tracer_section["max_events"] == result.tracer.max_events
        assert tracer_section["events"] == len(result.tracer.events)


class TestSoakRunner:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_chaos_soak_completes_cleanly(self, engine, tmp_path):
        runner = SoakRunner(
            soak_config(engine),
            crash_dump_path=str(tmp_path / "crash.json"),
        )
        report = runner.run()
        assert report.ok, [v["detail"] for v in report.verdicts]
        assert report.requests_completed == report.requests_target == 600
        assert report.faults["injected"] > 0
        assert report.faults["quarantines_stuck"] == 0
        assert report.crash_dump is None
        assert report.sanitizer_checks >= 1
        # The bounded tracer never dropped anything at this scale, and
        # the report says so explicitly.
        assert report.dropped_events == 0
        assert report.dropped_events == runner.scheduler.tracer.dropped_events

    def test_same_seed_bit_identical_fingerprint(self, tmp_path):
        def fingerprint(seed):
            runner = SoakRunner(
                soak_config(chaos_seed=seed),
                crash_dump_path=str(tmp_path / "crash.json"),
            )
            return runner.run().fingerprint()

        assert fingerprint(77) == fingerprint(77)
        assert fingerprint(77) != fingerprint(31)

    def test_engines_agree_on_fingerprint(self, tmp_path):
        prints = set()
        for engine in ENGINES:
            runner = SoakRunner(
                soak_config(engine),
                crash_dump_path=str(tmp_path / "crash.json"),
            )
            prints.add(runner.run().fingerprint())
        assert len(prints) == 1

    def test_report_document_schema(self, tmp_path):
        runner = SoakRunner(
            soak_config(), crash_dump_path=str(tmp_path / "crash.json")
        )
        document = runner.run().to_dict()
        assert document["schema"] == "carat.soak.v1"
        for key in (
            "engine",
            "requests",
            "latency",
            "efi",
            "faults",
            "verdicts",
            "tenants",
            "fingerprint",
            "dropped_events",
            "epoch_samples",
        ):
            assert key in document
        assert document["requests"]["completed"] == 600
        assert document["latency"]["p99"] >= document["latency"]["p50"] > 0
        assert len(document["epoch_samples"]) == document["epochs"]
        json.dumps(document)  # must be serializable as-is

    def test_horizon_exhaustion_trips_watchdog(self, tmp_path):
        dump = tmp_path / "crash.json"
        runner = SoakRunner(
            soak_config(
                soak_requests=50_000, soak_horizon=2, chaos_rate=0.0
            ),
            crash_dump_path=str(dump),
        )
        report = runner.run()
        assert not report.ok
        assert any(v["name"] == "watchdog" for v in report.verdicts)
        assert report.crash_dump == str(dump)
        bundle = json.loads(dump.read_text())
        assert bundle["schema"] == "carat.soak-crash.v1"
        assert "horizon exhausted" in bundle["reason"]
        assert bundle["trace_tail"], "crash dump must carry trace events"
        assert "metrics" in bundle and "sanitizer" in bundle

    def test_slo_gate_fails_the_soak(self, tmp_path):
        runner = SoakRunner(
            soak_config(chaos_rate=0.0, slo_p99=1),
            crash_dump_path=str(tmp_path / "crash.json"),
        )
        report = runner.run()
        assert not report.ok
        assert any(v["name"] == "slo-p99" for v in report.verdicts)

    def test_kvburst_workload_runs(self, tmp_path):
        runner = SoakRunner(
            soak_config(soak_requests=400),
            workload="kvburst",
            crash_dump_path=str(tmp_path / "crash.json"),
        )
        report = runner.run()
        assert report.ok
        assert report.workload == "kvburst"


class TestSoakCli:
    def run_cli(self, tmp_path, *extra):
        from repro.cli import main

        return main(
            [
                "soak",
                "--requests", "400",
                "--tenants", "2",
                "--horizon", "40",
                "--chaos-rate", "1",
                "--crash-dump", str(tmp_path / "crash.json"),
                "--engine", "fast",
                *extra,
            ]
        )

    def test_soak_subcommand_exits_zero_when_clean(self, tmp_path, capsys):
        out_json = tmp_path / "soak.json"
        code = self.run_cli(tmp_path, "--json", str(out_json))
        captured = capsys.readouterr().out
        assert code == 0
        assert "steady state held" in captured
        document = json.loads(out_json.read_text())
        assert document["schema"] == "carat.soak.v1"
        assert document["ok"] is True

    def test_soak_subcommand_exits_nonzero_on_verdict(self, tmp_path, capsys):
        code = self.run_cli(tmp_path, "--slo-p99", "1")
        assert code == 1
        assert "slo-p99" in capsys.readouterr().out
