"""CLI subcommands."""

import re

import pytest

from repro.cli import build_parser, main
from repro.traces import load_trace


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_scenarios_lists_all(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("flow_contention", "incast", "pfc_storm",
                 "pfc_backpressure"):
        assert name in out


def test_topology_describes_fat_tree(capsys):
    assert main(["topology", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "16 hosts" in out
    assert "20 switches" in out
    assert "100 Gbps" in out


def test_run_scenario_unknown_scenario(capsys):
    assert main(["run-scenario", "--scenario", "gremlins"]) == 2
    assert "error" in capsys.readouterr().err


def test_run_scenario_unknown_system(capsys):
    assert main(["run-scenario", "--scenario", "flow_contention",
                 "--system", "oracle"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.slow
def test_run_scenario_end_to_end(capsys, tmp_path):
    trace = tmp_path / "run.jsonl"
    code = main(["run-scenario", "--scenario", "flow_contention",
                 "--system", "vedrfolnir", "--scale", "0.002",
                 "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome:" in out
    assert "collective completed: True" in out
    assert trace.exists()


@pytest.mark.slow
def test_diagnose_roundtrip(capsys, tmp_path):
    trace = tmp_path / "run.jsonl"
    assert main(["run-scenario", "--scenario", "flow_contention",
                 "--scale", "0.002", "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["diagnose", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "step records" in out
    # the collective header the caller hands to render_text
    schedule = load_trace(str(trace)).schedule
    assert re.search(
        rf"^collective: {schedule.algorithm} {schedule.op.value}, "
        rf"{len(schedule.nodes)} nodes, \d+ steps recorded, "
        rf"\d+\.\d{{3}} ms total$", out, re.M)


def test_diagnose_missing_file(capsys):
    assert main(["diagnose", "--trace", "/nonexistent/x.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_trace(tmp_path_factory):
    """One recorded run shared by the serve/tail tests."""
    from repro.collective.ring import ring_allgather
    from repro.collective.runtime import CollectiveRuntime
    from repro.core.system import VedrfolnirSystem
    from repro.simnet.network import Network
    from repro.simnet.topology import build_fat_tree
    from repro.simnet.units import ms
    from repro.traces import TraceRecorder

    net = Network(build_fat_tree(4))
    runtime = CollectiveRuntime(
        net, ring_allgather(["h0", "h4", "h8", "h12"], 150_000))
    VedrfolnirSystem(net, runtime)  # triggers switch telemetry
    recorder = TraceRecorder.attach(net, runtime)
    runtime.start()
    net.create_flow("h1", "h4", 1_500_000, tag="background").start()
    net.run_until_quiet(max_time=ms(100))
    assert runtime.completed
    path = tmp_path_factory.mktemp("cli") / "run.jsonl"
    recorder.write(path)
    return path


def test_serve_matches_diagnose(capsys, cli_trace, tmp_path):
    """Acceptance: max-speed replay == batch diagnosis on one trace."""
    import json

    assert main(["diagnose", "--trace", str(cli_trace), "--json"]) == 0
    batch = json.loads(capsys.readouterr().out)

    snapshots = tmp_path / "snaps.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main(["serve", "--trace", str(cli_trace), "--speed", "0",
                 "--snapshots", str(snapshots),
                 "--metrics", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "final diagnosis" in out
    assert "metrics written to" in out

    lines = [json.loads(line)
             for line in snapshots.read_text().splitlines()]
    final = lines[-1]
    assert final["final"] is True
    batch_findings = {(f["type"], tuple(f["root_ports"]))
                      for f in batch["findings"]}
    live_findings = {(f["type"], tuple(f["root_ports"]))
                     for f in final["findings"]}
    assert live_findings == batch_findings
    if batch["contributors"]:
        assert final["contributors"][0]["flow"] == \
            batch["contributors"][0]["flow"]
    assert final["counters"]["quarantined"] == 0


def test_serve_missing_trace(capsys):
    assert main(["serve", "--trace", "/nonexistent/x.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


def test_serve_resume_needs_a_checkpoint_dir(capsys, cli_trace):
    """Without a directory to resume from, ``--resume`` is an error,
    not a silent cold start."""
    assert main(["serve", "--trace", str(cli_trace), "--speed", "0",
                 "--quiet", "--resume"]) == 2
    captured = capsys.readouterr()
    assert "--resume needs --checkpoint-dir" in captured.err
    assert "serving" not in captured.out


def test_tail_prints_snapshots(capsys, cli_trace, tmp_path):
    snapshots = tmp_path / "snaps.jsonl"
    assert main(["serve", "--trace", str(cli_trace), "--speed", "0",
                 "--quiet", "--snapshot-every", "8",
                 "--snapshots", str(snapshots),
                 "--metrics", str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    assert main(["tail", "--snapshots", str(snapshots)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) >= 2
    assert out[-1].startswith("[FINAL]")
    assert all("steps=" in line for line in out)


def test_tail_missing_file(capsys):
    assert main(["tail", "--snapshots", "/nonexistent/s.jsonl"]) == 2
    assert "error" in capsys.readouterr().err


def test_tail_follow_prints_each_snapshot_once(capsys, tmp_path,
                                               monkeypatch):
    """``tail --follow`` resumes after the lines it consumed, blank and
    malformed ones included, and leaves a line still being written for
    the next poll."""
    import json

    def entry(seq, final=False):
        return json.dumps({
            "seq": seq, "final": final, "watermark_ns": 1e6,
            "step_records": seq, "switch_reports": 0, "confidence": 1.0,
            "findings": [], "contributors": []}) + "\n"

    snapshots = tmp_path / "snaps.jsonl"
    last = entry(2, final=True)
    snapshots.write_text(entry(0) + "\n{torn\n" + entry(1) + last[:9])

    def finish_writing(_seconds):
        with open(snapshots, "a") as handle:
            handle.write(last[9:])

    monkeypatch.setattr("time.sleep", finish_writing)
    assert main(["tail", "--snapshots", str(snapshots), "--follow"]) == 0
    tags = [line.split()[0]
            for line in capsys.readouterr().out.splitlines()]
    assert tags == ["[#0]", "[#1]", "[FINAL]"]


def test_serve_writes_prometheus_metrics(capsys, cli_trace, tmp_path):
    metrics = tmp_path / "metrics.prom"
    assert main(["serve", "--trace", str(cli_trace), "--speed", "0",
                 "--quiet", "--metrics", str(metrics)]) == 0
    capsys.readouterr()
    text = metrics.read_text()
    assert "# TYPE live_step_records_total counter" in text
    assert "\nlive_quarantined_total 0\n" in text
    assert 'live_ingest_to_snapshot_seconds_bucket{le="+Inf"}' in text


@pytest.mark.slow
def test_figure_13b_via_cli(capsys):
    assert main(["figure", "--id", "13b", "--cases", "1",
                 "--scale", "0.002"]) == 0
    out = capsys.readouterr().out
    assert "unrestricted" in out


def test_figure_rejects_unknown_id():
    with pytest.raises(SystemExit):
        main(["figure", "--id", "99"])
