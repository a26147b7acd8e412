"""CLI subcommands end-to-end (on the cached small default datasets)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import configs

#: The commands that once took ``--kernel``.
KERNEL_FREE_COMMANDS = ["compare", "serve", "demo", "throughput", "check-longtail"]


@pytest.fixture(autouse=True)
def small_datasets(monkeypatch):
    """Shrink the dataset builders so CLI tests stay fast."""
    from repro.streams.datasets import temporal_zipf_stream

    def tiny(name):
        def build(**kwargs):
            return temporal_zipf_stream(
                num_events=4_000,
                num_distinct=800,
                skew=1.0,
                num_periods=8,
                burst_fraction=0.3,
                seed=1,
                name=name,
            )

        return build

    monkeypatch.setattr(
        configs,
        "DATASET_BUILDERS",
        {k: tiny(k) for k in ("caida", "network", "social")},
    )
    monkeypatch.setattr(configs, "_DATASET_CACHE", {})


class TestCLI:
    def test_demo(self, capsys):
        assert main(["demo", "--dataset", "caida", "--memory-kb", "8", "-k", "10"]) == 0
        out = capsys.readouterr().out
        assert "LTC top items" in out

    def test_compare_significant(self, capsys):
        code = main(
            ["compare", "--dataset", "network", "--memory-kb", "8", "-k", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LTC" in out and "precision" in out

    def test_compare_frequent_lineup(self, capsys):
        main(
            [
                "compare",
                "--dataset",
                "social",
                "--memory-kb",
                "8",
                "-k",
                "20",
                "--beta",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert "SS" in out and "CU" in out

    def test_compare_persistent_lineup(self, capsys):
        main(
            [
                "compare",
                "--dataset",
                "social",
                "--memory-kb",
                "8",
                "-k",
                "20",
                "--alpha",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert "PIE" in out

    def test_throughput(self, capsys):
        main(
            [
                "throughput",
                "--dataset",
                "caida",
                "--memory-kb",
                "8",
                "-k",
                "10",
                "--beta",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert "Mops" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    @staticmethod
    def assert_kernel_refused(capsys, command, value):
        """No command takes ``--kernel``: each builds the columnar kernel."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--kernel", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --kernel {value}" in err

    @pytest.mark.parametrize("command", KERNEL_FREE_COMMANDS)
    @pytest.mark.parametrize("value", ["reference", "columnar"])
    def test_kernel_is_an_argparse_error(self, capsys, command, value):
        self.assert_kernel_refused(capsys, command, value)

    @pytest.mark.parametrize("command", KERNEL_FREE_COMMANDS)
    def test_kernel_auto_is_an_argparse_error(self, capsys, command):
        self.assert_kernel_refused(capsys, command, "auto")

    @pytest.mark.parametrize("command", KERNEL_FREE_COMMANDS)
    def test_kernel_fast_is_an_argparse_error(self, capsys, command):
        self.assert_kernel_refused(capsys, command, "fast")


class TestServeKernel:
    """``repro serve`` builds, and restores into, the columnar kernel."""

    @staticmethod
    def served_table(monkeypatch, argv):
        from repro.serve import server

        served = []

        async def run_app(app, host, port, *, ready=None):
            served.append(app.ltc)

        monkeypatch.setattr(server, "run_app", run_app)
        assert main(["serve", "--no-metrics", *argv]) == 0
        (ltc,) = served
        return ltc

    def test_fresh_table_is_columnar(self, monkeypatch):
        from repro.core.columnar import ColumnarLTC

        ltc = self.served_table(monkeypatch, ["--num-buckets", "16"])
        assert type(ltc) is ColumnarLTC
        assert ltc.config.num_buckets == 16

    def test_restored_table_is_columnar(self, monkeypatch, tmp_path, capsys):
        from repro.core.columnar import ColumnarLTC
        from repro.core.config import LTCConfig
        from repro.core.ltc import LTC
        from repro.serve.snapshots import SnapshotStore

        saved = LTC(LTCConfig(num_buckets=4, bucket_width=2, items_per_period=8))
        saved.insert_many([1, 2, 1, 3])
        SnapshotStore(tmp_path).save(saved)
        ltc = self.served_table(monkeypatch, ["--snapshot-dir", str(tmp_path)])
        assert "restored 8-cell structure from snapshot" in capsys.readouterr().out
        assert type(ltc) is ColumnarLTC
        assert list(ltc.cells()) == list(saved.cells())


class TestMetricsOut:
    def test_demo_writes_snapshot_and_disables_after(self, tmp_path, capsys):
        from repro import obs

        path = tmp_path / "metrics.json"
        code = main(
            [
                "demo",
                "--dataset",
                "caida",
                "--memory-kb",
                "8",
                "-k",
                "10",
                "--metrics-out",
                str(path),
            ]
        )
        assert code == 0
        assert not obs.is_enabled()  # flag restored on the way out
        snapshot = obs.export.load_json_snapshot(path)
        values = {
            m["name"]: m["value"]
            for m in snapshot["metrics"]
            if m["type"] == "counter"
        }
        assert values["ltc_inserts_total"] == 4_000

    def test_stats_table(self, tmp_path, capsys):
        from repro import obs

        path = tmp_path / "metrics.json"
        main(
            ["demo", "--dataset", "caida", "--memory-kb", "8",
             "--metrics-out", str(path)]
        )
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" in out
        assert "ltc_inserts_total" in out

        assert main(["stats", str(path), "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE ltc_inserts_total counter" in out

        assert main(["stats", str(path), "--format", "json"]) == 0
        import json

        reparsed = json.loads(capsys.readouterr().out)
        assert reparsed == obs.export.load_json_snapshot(path)

    def test_stats_rejects_bad_snapshot(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no": "metrics"}')
        assert main(["stats", str(bad)]) == 1
        assert "cannot read snapshot" in capsys.readouterr().out
        assert main(["stats", str(tmp_path / "missing.json")]) == 1


class TestCheckLongtail:
    def test_builtin_dataset_is_longtailed(self, capsys):
        code = main(["check-longtail", "--dataset", "caida"])
        assert code == 0
        out = capsys.readouterr().out
        assert "long-tailed" in out

    def test_uniform_trace_rejected(self, tmp_path, capsys):
        trace = tmp_path / "uniform.txt"
        trace.write_text("".join(f"{i}\n" for i in range(2_000)))
        code = main(["check-longtail", "--trace", str(trace)])
        assert code == 1
        out = capsys.readouterr().out
        assert "NOT long-tailed" in out

    def test_longtailed_trace_accepted(self, tmp_path, capsys):
        from repro.streams.synthetic import zipf_stream

        trace = tmp_path / "zipf.txt"
        stream = zipf_stream(5_000, 800, 1.2, num_periods=2, seed=6)
        trace.write_text("".join(f"{e}\n" for e in stream.events))
        assert main(["check-longtail", "--trace", str(trace)]) == 0


class TestFigureCommand:
    def test_unknown_figure_lists_available(self, capsys):
        code = main(["figure", "nonexistent_zzz"])
        assert code == 2
        out = capsys.readouterr().out
        assert "available" in out
        assert "fig09_10_frequent" in out


class TestPlanCommand:
    def test_plan_prints_recommendation(self, capsys):
        code = main(
            [
                "plan",
                "--distinct",
                "3000",
                "--events",
                "30000",
                "-k",
                "50",
                "--target-rate",
                "0.85",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "KB" in out and "LTC.from_memory" in out

    def test_plan_unreachable_target(self, capsys):
        code = main(
            [
                "plan",
                "--distinct",
                "3000",
                "--events",
                "30000",
                "-k",
                "50",
                "--target-rate",
                "0.5",
                "-d",
                "1",  # d=1 makes the bound identically zero → unreachable
            ]
        )
        assert code == 1
        assert "planning failed" in capsys.readouterr().out
