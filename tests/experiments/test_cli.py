"""Tests for the ``repro-experiments`` command-line entry point."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.experiments.cli import EXPERIMENTS, _run_one, main
from repro.experiments.workloads import default_workload


@pytest.fixture(scope="module")
def tiny_workload():
    return default_workload(scale=0.15, num_days=120, seed=2)


class TestRunOne:
    def test_every_experiment_name_is_dispatchable(self, tiny_workload):
        # Only the cheap runners are executed end to end here; the expensive
        # ones are covered by the benchmark harness.  This test checks that
        # every advertised name resolves to a runner without raising.
        cheap = {"model-stats", "table-5.1", "table-5.2", "figure-5.1"}
        for name in cheap:
            output = _run_one(name, tiny_workload)
            assert isinstance(output, str) and output

    def test_unknown_experiment_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            _run_one("table-9.9", tiny_workload)

    def test_experiment_registry_matches_paper_artifacts(self):
        assert set(EXPERIMENTS) == {
            "model-stats",
            "table-5.1",
            "table-5.2",
            "table-5.3",
            "table-5.4",
            "figure-5.1",
            "figure-5.2",
            "figure-5.3",
            "figure-5.4",
        }


class TestMain:
    def test_main_runs_single_experiment(self, capsys):
        exit_code = main(["model-stats", "--scale", "0.15", "--days", "120", "--seed", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "model-stats" in captured
        assert "C1" in captured

    def test_main_writes_output_file(self, tmp_path, capsys):
        output = tmp_path / "report.txt"
        exit_code = main(
            [
                "model-stats",
                "--scale",
                "0.15",
                "--days",
                "120",
                "--seed",
                "2",
                "--output",
                str(output),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        content = output.read_text()
        assert "model-stats" in content
        assert "C1" in content

    def test_main_rejects_unknown_choice(self):
        with pytest.raises(SystemExit):
            main(["table-7.7"])


class TestObservabilityFlags:
    SMALL = ["--scale", "0.15", "--days", "120", "--seed", "2"]

    def test_metrics_out_writes_snapshot_and_disables_after(self, tmp_path, capsys):
        from repro import obs

        metrics = tmp_path / "metrics.json"
        exit_code = main(["model-stats", *self.SMALL, "--metrics-out", str(metrics)])
        capsys.readouterr()
        assert exit_code == 0
        snapshot = json.loads(metrics.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert any(name.startswith("engine.") for name in snapshot["counters"])
        # The registry was torn down on the way out.
        assert not obs.active_registry().enabled

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        # model-stats runs the batch builder only (no instrumented spans);
        # the engine replay exercises the traced append/query paths.
        trace = tmp_path / "trace.json"
        exit_code = main(["engine", *self.SMALL, "--trace-out", str(trace)])
        capsys.readouterr()
        assert exit_code == 0
        document = json.loads(trace.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"]
        assert all(event["ph"] == "X" for event in document["traceEvents"])

    def test_stats_pretty_prints_a_written_snapshot(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(["model-stats", *self.SMALL, "--metrics-out", str(metrics)])
        capsys.readouterr()
        exit_code = main(["stats", "--metrics-in", str(metrics)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "counters:" in captured
        assert "engine.appended_rows" in captured

    def test_stats_without_metrics_in_runs_the_replay(self, capsys):
        exit_code = main(["stats", *self.SMALL])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "histograms:" in captured
        assert "replay.incremental" in captured

    @pytest.fixture()
    def durable_dir(self, tmp_path):
        from repro.storage import DurableEngine

        directory = tmp_path / "durable"
        with DurableEngine.create(directory, attributes=["a", "b", "c"]) as durable:
            durable.append_rows([[0, 1, 0], [1, 0, 1], [1, 1, 0]])
        return str(directory)

    def test_metrics_out_on_compact_and_follow(self, durable_dir, tmp_path, capsys):
        follow_args = ["--follow-polls", "2", "--follow-interval-ms", "1"]
        snapshots = {}
        for command, extra in (("compact", []), ("follow", follow_args)):
            metrics = tmp_path / f"{command}.json"
            argv = [command, "--durable", durable_dir, *extra]
            assert main(argv + ["--metrics-out", str(metrics)]) == 0
            snapshots[command] = json.loads(metrics.read_text())
        capsys.readouterr()
        assert snapshots["compact"]["histograms"]["storage.compact"]["count"] == 1
        assert snapshots["follow"]["counters"]["replica.polls"] >= 2

    def test_trace_out_on_compact(self, durable_dir, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "trace.json"
        argv = ["compact", "--durable", durable_dir, "--trace-out", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        document = json.loads(trace.read_text())
        assert document["displayTimeUnit"] == "ms"
        names = {event["name"] for event in document["traceEvents"]}
        assert "storage.compact" in names
        assert not obs.active_registry().enabled


class TestServeCommand:
    """The 'serve' subcommand, with its blocking server loop faked out."""

    REQUESTS = (
        ("/v1/tenants", {"dataset_id": "cli", "attributes": ["a", "b", "c"]}),
        ("/v1/tenants/cli/append", {"rows": [[0, 1, 0], [1, 0, 1], [1, 1, 0]]}),
        ("/v1/tenants/cli/query/similarity", {"first": "a", "second": "b"}),
    )

    def test_metrics_out_collects_a_live_server(self, tmp_path, monkeypatch, capsys):
        from repro import obs
        from repro.serve import http as serve_http

        statuses = []

        def serve_three_requests(manager, **_options):
            server = serve_http.create_server(manager, port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            try:
                for path, body in self.REQUESTS:
                    connection = http.client.HTTPConnection(host, port, timeout=30)
                    try:
                        connection.request(
                            "POST",
                            path,
                            body=json.dumps(body),
                            headers={"Content-Type": "application/json"},
                        )
                        response = connection.getresponse()
                        response.read()
                        statuses.append(response.status)
                    finally:
                        connection.close()
            finally:
                server.shutdown()
                server.server_close()
                manager.close()
                thread.join(timeout=10)

        monkeypatch.setattr(serve_http, "run", serve_three_requests)
        metrics = tmp_path / "metrics.json"
        argv = ["serve", "--durable-root", str(tmp_path / "tenants")]
        assert main(argv + ["--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert statuses == [201, 200, 200]
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["serve.http.requests"] >= 3
        assert counters["serve.publishes"] >= 1
        assert not obs.active_registry().enabled

    def test_requires_durable_root(self):
        with pytest.raises(SystemExit):
            main(["serve"])
