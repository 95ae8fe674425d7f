"""``repro fleet serve`` / ``repro fleet status`` end to end, through
``main``: the socket fan-in the benchmark times (``run_fleet_streaming``),
checked against the in-process reference ``FleetService``."""

import json

import pytest

from repro.cli import main
from repro.fleet.service import FleetConfig, FleetService, read_status
from repro.fleet.sharding import replicate_tenants
from repro.fleet.tenancy import TenantPolicy

#: per-shard series built from what every ShardReport carries
SHARD_RUNTIME_SERIES = ("fleet_ingest_to_snapshot_seconds",
                        "fleet_shard_events_consumed_total",
                        "fleet_shard_restarts_total",
                        "fleet_shard_checkpoints_written_total",
                        "fleet_shard_ingest_to_snapshot_seconds")


@pytest.fixture(scope="module")
def served(trace_path, tmp_path_factory) -> tuple[dict, str]:
    """One fleet served to completion: ``(final status, exposition)``."""
    workdir = tmp_path_factory.mktemp("process")
    status = workdir / "status.json"
    scrape = workdir / "metrics.prom"
    code = main(["fleet", "serve", "--trace", str(trace_path),
                 "--replicate", "4", "--shards", "2",
                 "--workdir", str(workdir / "fleet"), "--no-http",
                 "--scrape-out", str(scrape), "--status", str(status),
                 "--quiet"])
    assert code == 0
    return read_status(str(status)), scrape.read_text()


def test_fleet_serve_finishes_with_a_scrapeable_exposition(served):
    status, exposition = served
    assert status["final"] is True
    assert status["totals"]["tenants_final"] == 4
    assert status["stale_shards"] == []
    assert "# TYPE fleet_merge_seconds histogram" in exposition
    assert "fleet_tenant_confidence{" in exposition
    assert "fleet_tenant_watermark_ns{" in exposition


def test_process_mode_exports_the_fan_in_tier(served):
    status, exposition = served
    assert "fleet_shard_reports_offered_total{" in exposition
    # every worker finished and went quiet: finished is not dead
    assert status["shard_health"] == {"0": "live", "1": "live"}
    assert status["degraded"] is False
    assert "fleet_degraded 0" in exposition


def test_process_mode_exports_what_the_shards_report(served):
    """Events consumed, restarts, checkpoints and the ingest-to-snapshot
    histograms travel in every ShardReport, so the worker fleet's
    scrape carries them."""
    _status, exposition = served
    for name in SHARD_RUNTIME_SERIES:
        assert f"\n{name}" in exposition, name
    assert "fleet_ingest_to_snapshot_seconds_bucket" in exposition
    consumed = [float(line.rsplit(" ", 1)[1])
                for line in exposition.splitlines()
                if line.startswith("fleet_shard_events_consumed_total{")]
    assert len(consumed) == 2 and all(value > 0 for value in consumed)


def test_both_modes_serve_the_same_verdicts(served, trace_path):
    """The worker fleet serves what the in-process reference computes."""
    status, _ = served
    config = FleetConfig(shards=2, policy=TenantPolicy(
        snapshot_every=32, checkpoint_every=64))
    reference = FleetService(
        config, replicate_tenants([str(trace_path)], 4)).run()
    digests = {t["tenant"]: t["snapshot_digest"]
               for t in status["tenants"]}
    assert len(digests) == 4
    assert digests == {t.tenant: t.snapshot_digest
                       for t in reference.tenants}


def test_fleet_status_round_trips(served, tmp_path, capsys):
    status_path = tmp_path / "status.json"
    status_path.write_text(json.dumps(served[0]))
    capsys.readouterr()
    assert main(["fleet", "status", "--status", str(status_path),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == served[0]
    assert main(["fleet", "status", "--status",
                 str(status_path)]) == 0
    assert "[FINAL] fleet" in capsys.readouterr().out
    assert main(["fleet", "status", "--status",
                 str(tmp_path / "missing.json")]) == 2


def test_fleet_chaos_maps_a_crash_looping_shard_to_exit_1(
        monkeypatch, capsys):
    """A shard that crash-loops past its restart budget is an
    ``error:`` line and exit 1, the way ``fleet serve`` reports it —
    not a traceback."""
    import repro.chaos
    from repro.fleet.worker import WorkerCrashed

    def crash_loop(*_args, **_kwargs):
        raise WorkerCrashed(0, -9)

    monkeypatch.setattr(repro.chaos, "run_fleet_chaos", crash_loop)
    assert main(["fleet", "chaos", "--trace", "never-read.jsonl"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: shard 0 worker exited with -9\n"
    assert "Traceback" not in captured.out + captured.err
