"""Exact-location tests for RPR013, the raw-conversion rule.

Mirrors ``test_lint.py``: ``fixtures/rpr013.py`` tags its
deliberately-wrong lines with ``# expect: RPR013`` and the tests assert
the checker reports exactly those (line, rule) pairs; its
``rpr013_near.py`` twin holds near-misses that must stay silent.

The rule's unit inference is deliberately small — name suffixes,
propagated through arithmetic — and exactly enough to catch the bug it
found: ``EcmpRouting.base_rtt_ns`` hand-rolling its serialization term
as ``bytes * 8.0 / bps * 1e9``.
"""

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.checks import RULES, check_paths, check_source
from repro.checks.lint import _family
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
_EXPECT = re.compile(r"#\s*expect:\s*(RPR\d{3})")

FIXTURE_NAMES = ["rpr013"]


def expected_findings(path: Path) -> set:
    marks = set()
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            marks.add((line_no, match.group(1)))
    return marks


def family(expression: str):
    return _family(ast.parse(expression, mode="eval").body)


# ----------------------------------------------------------------------
# fixtures: exact line/rule agreement, near-misses silent
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reports_exact_lines(name):
    path = FIXTURES / f"{name}.py"
    findings = check_source(path.read_text(), path)
    got = {(f.line, f.rule) for f in findings}
    want = expected_findings(path)
    assert want, f"{name} fixture has no expect markers"
    assert got == want
    # one finding per marked line, and only the fixture's own rule
    assert len(findings) == len(got)
    assert {rule for _, rule in got} == {name.upper()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_near_miss_fixture_is_silent(name):
    path = FIXTURES / f"{name}_near.py"
    findings = check_source(path.read_text(), path)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize(
    "name", FIXTURE_NAMES + [f"{n}_near" for n in FIXTURE_NAMES])
def test_units_fixtures_clean_under_base_lint(name):
    """The units fixtures trip no rule but their own, and their noqa
    comments (none) leave nothing for --strict to report."""
    path = FIXTURES / f"{name}.py"
    findings = check_source(path.read_text(), path, strict=True)
    others = [f for f in findings if f.rule != "RPR013"]
    assert others == [], [f.render() for f in others]


def test_fixture_render_format():
    path = FIXTURES / "rpr013.py"
    for finding in check_source(path.read_text(), path):
        assert re.fullmatch(
            rf"{re.escape(str(path))}:\d+:\d+: RPR\d{{3}} .+",
            finding.render())


# ----------------------------------------------------------------------
# the bug RPR013 found, re-seeded into the live source
# ----------------------------------------------------------------------
def test_rpr013_catches_the_historical_base_rtt_term(tmp_path):
    """Put back ``base_rtt_ns``'s hand-rolled serialization term (the
    bug this rule found) and the rule must flag its ``* 8.0``."""
    source = (REPO_ROOT / "src/repro/simnet/routing.py").read_text()
    fixed = """            total += serialization_delay(packet_bytes + ack_bytes,
                                         link.bandwidth_bps)
"""
    assert fixed in source, "base_rtt_ns moved; update test"
    target = tmp_path / "repro" / "simnet" / "routing.py"
    target.parent.mkdir(parents=True)
    target.write_text(source)
    assert check_paths([target]) == []
    target.write_text(source.replace(fixed, """\
            total += (packet_bytes + ack_bytes) * 8.0 \\
                / link.bandwidth_bps * 1_000_000_000.0
"""))
    findings = check_paths([target])
    assert [f.rule for f in findings] == ["RPR013"]
    assert "8.0" in findings[0].message
    assert "data value" in findings[0].message


# ----------------------------------------------------------------------
# scope and suppression
# ----------------------------------------------------------------------
def test_scope_gating_by_directory(tmp_path):
    """RPR013 fires under ``repro/simnet`` but not outside it, and not
    in the unit modules that define the factors."""
    source = "def to_s(total_ns):\n    return total_ns / 1e9\n"
    scoped = tmp_path / "repro" / "simnet"
    scoped.mkdir(parents=True)
    (scoped / "mod.py").write_text(source)
    (scoped / "units.py").write_text(source)
    (tmp_path / "tool.py").write_text(source)
    findings = check_paths([tmp_path])
    assert [f.rule for f in findings] == ["RPR013"]
    assert findings[0].path.endswith("mod.py")


def test_fleet_and_cli_are_in_scope(tmp_path):
    """The operator-facing code that prints ``_ns`` values is
    unit-checked too: files under ``repro/fleet`` and ``repro/cli.py``
    (but not a ``cli.py`` outside the package root)."""
    source = "def to_ms(watermark_ns):\n    return watermark_ns / 1e6\n"
    fleet = tmp_path / "repro" / "fleet"
    fleet.mkdir(parents=True)
    (fleet / "aggregator.py").write_text(source)
    (tmp_path / "repro" / "cli.py").write_text(source)
    (tmp_path / "cli.py").write_text(source)
    findings = check_paths([tmp_path])
    assert sorted(Path(f.path).relative_to(tmp_path).as_posix()
                  for f in findings) == ["repro/cli.py",
                                         "repro/fleet/aggregator.py"]
    assert {f.rule for f in findings} == {"RPR013"}


def test_noqa_suppresses_units_rules(tmp_path):
    source = textwrap.dedent("""\
        # repro: check-scope sim
        def go(total_ns):
            a = total_ns / 1e9  # repro: noqa RPR013
            b = total_ns / 1e9  # repro: noqa
            return a + b + total_ns / 1e9
        """)
    (tmp_path / "mod.py").write_text(source)
    findings = check_paths([tmp_path], strict=True)
    assert [(f.rule, f.line) for f in findings] == [("RPR013", 5)]


def test_syntax_error_is_skipped_here(tmp_path):
    """An unparseable file gets RPR000 from the driver, nothing else."""
    (tmp_path / "broken.py").write_text("def broken(:\n")
    assert [f.rule for f in check_paths([tmp_path])] == ["RPR000"]


# ----------------------------------------------------------------------
# the inference and the catalog
# ----------------------------------------------------------------------
def test_unit_rules_catalog():
    """RPR013 is the one unit rule the audit kept."""
    assert {rule for rule in RULES if rule.startswith("RPR01")} \
        == {"RPR013"}


def test_join_lattice():
    assert family("a_bytes + b_bytes") == "data"
    assert family("window_ns + 5") == "time"
    assert family("2 * rate_gbps") == "rate"
    assert family("window_ns - other") is None
    assert family("window_ns + size_bytes") is None
    assert family("window_ns / other_ns") == "dimensionless"
    # a converted value has left its family: no cascade of reports
    assert family("size_bytes * 8.0") is None


def test_suffix_unit_table():
    assert family("window_ns") == "time"
    assert family("retention_us") == "time"
    assert family("elapsed_s") == "time"
    assert family("RATE_GBPS") == "rate"
    assert family("link.bandwidth_bps") == "rate"
    assert family("qdepth_bytes") == "data"
    assert family("label") is None
    assert family("3") == "dimensionless"


# ----------------------------------------------------------------------
# the repo's own sources must be clean (the CI gate)
# ----------------------------------------------------------------------
def test_src_tree_is_clean_under_units_pass():
    findings = check_paths([REPO_ROOT / "src"], strict=True)
    assert findings == [], [f.render() for f in findings]


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
def test_cli_units_json_output(capsys):
    code = main(["check", "--format", "json",
                 str(FIXTURES / "rpr013.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert {entry["rule"] for entry in payload} == {"RPR013"}
    assert all({"path", "line", "col", "rule", "message"}
               <= set(entry) for entry in payload)
