"""``repro fleet serve`` / ``repro fleet status`` end to end, through
``main``: the process mode is the socket fan-in the benchmark times
(``run_fleet_streaming``), ``--in-process`` the reference service."""

import json

import pytest

from repro.cli import main
from repro.fleet.service import read_status


def serve(trace_path, workdir, *mode) -> tuple[dict, str]:
    """Run one fleet to completion; ``(final status, exposition)``."""
    status = workdir / "status.json"
    scrape = workdir / "metrics.prom"
    code = main(["fleet", "serve", "--trace", str(trace_path),
                 "--replicate", "4", "--shards", "2",
                 "--workdir", str(workdir / "fleet"), "--no-http",
                 "--scrape-out", str(scrape), "--status", str(status),
                 "--quiet", *mode])
    assert code == 0
    return read_status(str(status)), scrape.read_text()


@pytest.fixture(scope="module")
def served(trace_path, tmp_path_factory):
    return {mode: serve(trace_path, tmp_path_factory.mktemp(mode),
                        *flags)
            for mode, flags in (("process", ()),
                                ("inprocess", ("--in-process",)))}


@pytest.mark.parametrize("mode", ["process", "inprocess"])
def test_fleet_serve_finishes_with_a_scrapeable_exposition(served,
                                                           mode):
    status, exposition = served[mode]
    assert status["final"] is True
    assert status["totals"]["tenants_final"] == 4
    assert status["stale_shards"] == []
    assert "# TYPE fleet_merge_seconds histogram" in exposition
    assert "fleet_tenant_confidence{" in exposition
    assert "fleet_tenant_watermark_ns{" in exposition


def test_process_mode_exports_the_fan_in_tier(served):
    status, exposition = served["process"]
    assert "fleet_shard_reports_offered_total{" in exposition
    # every worker finished and went quiet: finished is not dead
    assert status["shard_health"] == {"0": "live", "1": "live"}
    assert status["degraded"] is False
    assert "fleet_degraded 0" in exposition


def test_both_modes_serve_the_same_verdicts(served):
    digests = {
        mode: {t["tenant"]: t["snapshot_digest"]
               for t in status["tenants"]}
        for mode, (status, _) in served.items()}
    assert len(digests["process"]) == 4
    assert digests["process"] == digests["inprocess"]


def test_fleet_status_round_trips(served, tmp_path, capsys):
    status_path = tmp_path / "status.json"
    status_path.write_text(json.dumps(served["process"][0]))
    capsys.readouterr()
    assert main(["fleet", "status", "--status", str(status_path),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == served["process"][0]
    assert main(["fleet", "status", "--status",
                 str(status_path)]) == 0
    assert "[FINAL] fleet" in capsys.readouterr().out
    assert main(["fleet", "status", "--status",
                 str(tmp_path / "missing.json")]) == 2
