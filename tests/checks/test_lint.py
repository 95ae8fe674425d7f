"""Exact-location tests for the per-file rules of ``repro check``.

Each fixture file under ``fixtures/`` tags its deliberately-bad lines
with a trailing ``# expect: RPR0xx`` marker; the tests assert that the
checker reports exactly those (line, rule) pairs — nothing missing,
nothing extra — so rule regressions show up as precise diffs.
"""

import json
import re
from pathlib import Path

import pytest

from repro.checks import RULES, check_paths, check_source
from repro.checks.lint import Finding, render_findings
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
_EXPECT = re.compile(r"#\s*expect:\s*(RPR\d{3})")

FIXTURE_NAMES = ["rpr001", "rpr003", "rpr006", "rpr027"]


def expected_findings(path: Path) -> set:
    marks = set()
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            marks.add((line_no, match.group(1)))
    return marks


# ----------------------------------------------------------------------
# fixtures: exact line/rule agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reports_exact_lines(name):
    path = FIXTURES / f"{name}.py"
    findings = check_source(path.read_text(), path, strict=True)
    got = {(f.line, f.rule) for f in findings}
    want = expected_findings(path)
    assert want, f"{name} fixture has no expect markers"
    assert got == want
    # one finding per marked line, and only the fixture's own rule
    assert len(findings) == len(got)
    assert {rule for _, rule in got} == {name.upper()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_render_format(name):
    path = FIXTURES / f"{name}.py"
    for finding in check_source(path.read_text(), path, strict=True):
        assert re.fullmatch(
            rf"{re.escape(str(path))}:\d+:\d+: RPR\d{{3}} .+",
            finding.render())


def test_fixtures_clean_under_strict_too():
    """The noqa comments in the fixtures all suppress real findings,
    so --strict adds no RPR006 noise (rpr006 exists to make some)."""
    for name in FIXTURE_NAMES:
        if name == "rpr006":
            continue
        path = FIXTURES / f"{name}.py"
        strict = check_source(path.read_text(), path, strict=True)
        lax = check_source(path.read_text(), path)
        assert [f.rule for f in strict] == [f.rule for f in lax]


# ----------------------------------------------------------------------
# the repo's own sources must be clean (the CI gate)
# ----------------------------------------------------------------------
def test_src_tree_is_clean_strict():
    findings = check_paths([REPO_ROOT / "src"], strict=True)
    assert findings == [], render_findings(findings)


# ----------------------------------------------------------------------
# the bug RPR003 found, re-seeded into the live source
# ----------------------------------------------------------------------
def test_rpr003_catches_the_historical_event_ordering(tmp_path):
    """Put back ``Event.__lt__``'s ``if self.time != other.time`` (the
    float-equality bug this rule found) and the rule must flag it."""
    source = (REPO_ROOT / "src/repro/simnet/engine.py").read_text()
    ordering = """        if self.time < other.time:
            return True
        if other.time < self.time:
            return False
        return self.seq < other.seq
"""
    assert ordering in source, "Event.__lt__ moved; update test"
    target = tmp_path / "engine.py"
    target.write_text(source)
    assert check_paths([target]) == []
    target.write_text(source.replace(ordering, """\
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq
"""))
    findings = check_paths([target])
    assert [f.rule for f in findings] == ["RPR003"]
    assert "if self.time != other.time:" in \
        target.read_text().splitlines()[findings[0].line - 1]


# ----------------------------------------------------------------------
# scoping and suppression mechanics
# ----------------------------------------------------------------------
WALL_CLOCK_SNIPPET = "import time\n\n\ndef stamp():\n    return time.time()\n"


def test_rpr001_only_fires_in_sim_scope():
    assert check_source(WALL_CLOCK_SNIPPET, "tools/helper.py") == []
    findings = check_source(WALL_CLOCK_SNIPPET,
                            "src/repro/simnet/helper.py")
    assert [f.rule for f in findings] == ["RPR001"]


def test_scope_pragma_opts_a_file_in():
    pragma = "# repro: check-scope sim\n" + WALL_CLOCK_SNIPPET
    findings = check_source(pragma, "tools/helper.py")
    assert [f.rule for f in findings] == ["RPR001"]


def test_blanket_noqa_suppresses_all_rules():
    source = ("def f(now, end_time):\n"
              "    return now == end_time  # repro: noqa\n")
    assert check_source(source, "x.py") == []


def test_noqa_with_other_code_does_not_suppress():
    source = ("def f(now, end_time):\n"
              "    return now == end_time  # repro: noqa RPR001\n")
    assert [f.rule for f in check_source(source, "x.py")] == ["RPR003"]


def test_strict_flags_unused_noqa():
    source = "VALUE = 3  # repro: noqa RPR003\n"
    assert check_source(source, "x.py") == []
    strict = check_source(source, "x.py", strict=True)
    assert [(f.rule, f.line) for f in strict] == [("RPR006", 1)]


def test_noqa_inside_string_literal_is_ignored():
    source = 'DOC = "# repro: noqa RPR003"\nt_time = 0\nx = t_time == 0.5\n'
    findings = check_source(source, "x.py", strict=True)
    assert [f.rule for f in findings] == ["RPR003"]


def test_syntax_error_reports_rpr000():
    findings = check_source("def broken(:\n", "x.py")
    assert [f.rule for f in findings] == ["RPR000"]
    assert "parse" in findings[0].message


def test_rules_catalog_covers_reported_ids():
    """The audited catalog: nine rules plus the RPR000 / RPR006
    infrastructure codes."""
    assert set(RULES) == {"RPR000", "RPR001", "RPR003", "RPR006",
                          "RPR013", "RPR021", "RPR022", "RPR024",
                          "RPR025", "RPR027", "RPR032"}


def test_strict_flags_codes_missing_from_the_catalog():
    """A deleted rule's id (or a typo) can never match a finding; under
    --strict it is reported, alone or next to a live code."""
    source = ("def f(now, end_time):\n"
              "    return now == end_time  # repro: noqa RPR003,RPR030\n"
              "VALUE = 1  # repro: noqa RPR999\n")
    assert check_source(source, "x.py") == []
    strict = check_source(source, "x.py", strict=True)
    assert [(f.rule, f.line) for f in strict] == [("RPR006", 2),
                                                  ("RPR006", 3)]
    assert "RPR030 is not in the rule catalog" in strict[0].message
    assert "RPR999 is not in the rule catalog" in strict[1].message


# ----------------------------------------------------------------------
# RPR027: raw json over trace records
# ----------------------------------------------------------------------
RAW_TRACE_SNIPPET = ("import json\n\n\n"
                     "def reader(trace_line):\n"
                     "    return json.loads(trace_line)\n")


def test_rpr027_near_twin_is_silent():
    path = FIXTURES / "rpr027_near.py"
    findings = check_source(path.read_text(), path, strict=True)
    assert findings == [], render_findings(findings)


def test_rpr027_exempts_trace_store_directory():
    findings = check_source(RAW_TRACE_SNIPPET,
                            "src/repro/traces/columnar.py")
    assert findings == []
    outside = check_source(RAW_TRACE_SNIPPET, "src/repro/live/tail.py")
    assert [f.rule for f in outside] == ["RPR027"]


def test_rpr027_scope_pragma_opts_a_file_out():
    pragma = ("# repro: check-scope trace-store\n"
              + RAW_TRACE_SNIPPET)
    assert check_source(pragma, "src/repro/live/tail.py") == []


def test_rpr027_import_alias_and_from_import():
    aliased = ("import json as j\n\n\n"
               "def f(trace_record):\n"
               "    return j.dumps(trace_record)\n")
    assert [f.rule for f in check_source(aliased, "x.py")] \
        == ["RPR027"]
    from_import = ("from json import loads\n\n\n"
                   "def f(record_line):\n"
                   "    return loads(record_line)\n")
    assert [f.rule for f in check_source(from_import, "x.py")] \
        == ["RPR027"]


def test_finding_to_dict_roundtrip():
    finding = Finding("a.py", 3, 7, "RPR003", "msg")
    assert finding.to_dict() == {"path": "a.py", "line": 3, "col": 7,
                                 "rule": "RPR003", "message": "msg"}


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
def test_cli_check_fixtures_exits_nonzero(capsys):
    code = main(["check", "--strict", str(FIXTURES)])
    assert code == 1
    captured = capsys.readouterr()
    for name in FIXTURE_NAMES:
        assert name.upper() in captured.out
    # findings carry clickable file:line locations
    assert re.search(r"rpr001\.py:\d+:\d+: RPR001", captured.out)
    assert "finding(s)" in captured.err


def test_cli_check_src_is_clean(capsys):
    code = main(["check", "--strict", str(REPO_ROOT / "src")])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_check_json_output(capsys):
    code = main(["check", "--format", "json",
                 str(FIXTURES / "rpr003.py")])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert {entry["rule"] for entry in payload} == {"RPR003"}
    assert all({"path", "line", "col", "rule", "message"}
               <= set(entry) for entry in payload)
