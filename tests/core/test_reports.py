"""Operator report rendering."""

import json

import pytest

from repro.collective.ring import ring_allgather
from repro.collective.runtime import CollectiveRuntime, StepRecord
from repro.core.reports import format_critical_path, render_json, render_text
from repro.core.system import VedrfolnirSystem
from repro.core.waiting_graph import WaitingGraph
from repro.simnet.network import Network
from repro.simnet.packet import FlowKey
from repro.simnet.topology import build_fat_tree
from repro.simnet.units import ms

NODES = ["h0", "h4", "h8", "h12"]


@pytest.fixture(scope="module")
def diagnoses():
    """(clean, contended) diagnosis pair from live runs."""
    results = []
    for contended in (False, True):
        net = Network(build_fat_tree(4))
        runtime = CollectiveRuntime(net, ring_allgather(NODES, 200_000))
        system = VedrfolnirSystem(net, runtime)
        runtime.start()
        if contended:
            for src in ("h1", "h5"):
                net.create_flow(src, "h4", 2_500_000).start()
        net.run_until_quiet(max_time=ms(100))
        results.append(system.analyze())
    return results


def test_text_report_sections(diagnoses):
    _, contended = diagnoses
    text = render_text(contended)
    for section in ("performance bottleneck", "anomaly breakdown",
                    "contributor ranking", "recommended actions",
                    "critical path"):
        assert section in text


def test_text_report_clean_run(diagnoses):
    clean, _ = diagnoses
    text = render_text(clean)
    assert "no network anomalies diagnosed" in text
    assert "recommended actions" not in text


def test_text_report_names_culprits(diagnoses):
    _, contended = diagnoses
    text = render_text(contended)
    assert "culprit flows:" in text
    assert "flow_contention" in text


def test_json_report_parses_and_has_shape(diagnoses):
    _, contended = diagnoses
    payload = json.loads(render_json(contended))
    assert payload["collective"]["op"] == "allgather"
    assert payload["collective"]["nodes"] == NODES
    assert payload["findings"], "contended run must have findings"
    for finding in payload["findings"]:
        assert finding["type"]
        assert "recommended_action" in finding
    assert payload["contributors"]
    assert payload["critical_path"]


def test_json_report_clean(diagnoses):
    clean, _ = diagnoses
    payload = json.loads(render_json(clean))
    assert payload["findings"] == []
    assert payload["contributors"] == []


def test_json_indent_option(diagnoses):
    _, contended = diagnoses
    assert "\n" in render_json(contended, indent=2)


def test_custom_title(diagnoses):
    _, contended = diagnoses
    text = render_text(contended, title="Incident 4711",
                       collective="collective: ring allgather")
    assert text.startswith("Incident 4711\n=============\n\n"
                           "collective: ring allgather\n")


def test_format_critical_path_bars():
    schedule = ring_allgather(["n0", "n1"], 100)
    records = [
        StepRecord("n0", 0, FlowKey("n0", "n1", 1, 4791), 100,
                   0.0, 10_000.0, None, None),
        StepRecord("n1", 0, FlowKey("n1", "n0", 2, 4791), 100,
                   0.0, 12_000.0, None, None),
    ]
    graph = WaitingGraph(schedule, records, mode="full")
    text = format_critical_path(graph.critical_path())
    assert "#" in text
    assert "F[n1]S0" in text


def test_format_critical_path_empty():
    assert "empty" in format_critical_path([])
