"""Exact-location tests for RPR032, the resource-release rule of
:mod:`repro.checks.project`.

Mirrors ``test_concurrency.py``: ``fixtures/rpr032.py`` tags its
deliberately-bad lines with a trailing ``# expect: RPR032`` marker and
ships a ``rpr032_near.py`` twin full of close calls that must stay
silent — handles the analysis cannot follow degrade to silence, never
to a false positive.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.checks import RULES
from repro.checks.lint import check_paths, render_findings

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
_EXPECT = re.compile(r"#\s*expect:\s*(RPR\d{3})")

FIXTURE_NAMES = ["rpr032"]


def expected_findings(path: Path) -> set:
    marks = set()
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            marks.add((line_no, match.group(1)))
    return marks


def run_on(tmp_path, strict=False, **files):
    """Write dedented ``name -> source`` files and run the pass."""
    for name, source in files.items():
        target = tmp_path / f"{name}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return check_paths([tmp_path], strict=strict)


# ----------------------------------------------------------------------
# fixtures: exact line/rule agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reports_exact_lines(name):
    path = FIXTURES / f"{name}.py"
    findings = check_paths([path])
    got = {(f.line, f.rule) for f in findings}
    want = expected_findings(path)
    assert want, f"{name} fixture has no expect markers"
    assert got == want, render_findings(findings)
    # one finding per marked line, and only the fixture's own rule
    assert len(findings) == len(got)
    assert {rule for _, rule in got} == {name.upper()}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_near_twin_is_silent(name):
    path = FIXTURES / f"{name}_near.py"
    findings = check_paths([path], strict=True)
    assert findings == [], render_findings(findings)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_clean_under_base_lint(name):
    """A fixture and its twin trip no rule but their own, strict — no
    noise in the fixtures directory
    (``test_cli_check_fixtures_exits_nonzero`` checks it whole)."""
    for suffix in ("", "_near"):
        path = FIXTURES / f"{name}{suffix}.py"
        findings = [f for f in check_paths([path], strict=True)
                    if f.rule != name.upper()]
        assert findings == [], render_findings(findings)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_render_format(name):
    path = FIXTURES / f"{name}.py"
    for finding in check_paths([path]):
        assert re.fullmatch(
            rf"{re.escape(str(path))}:\d+:\d+: RPR\d{{3}} .+",
            finding.render())


# ----------------------------------------------------------------------
# the repo's own sources must be clean (the CI gate)
# ----------------------------------------------------------------------
def test_src_tree_is_clean_strict():
    findings = check_paths([REPO_ROOT / "src"], strict=True)
    assert findings == [], render_findings(findings)


# ----------------------------------------------------------------------
# the bug RPR032 found, re-seeded into the live source
# ----------------------------------------------------------------------
def test_rpr032_catches_unsupervised_worker_process(tmp_path):
    """Remove run_worker_process's try/finally reaping (the bug this
    rule found) and the rule must flag the leaked child process."""
    source = (REPO_ROOT / "src/repro/fleet/worker.py").read_text()
    degraded = source.replace(
        """    try:
        process.join()
    finally:
        # a KeyboardInterrupt in the wait must not orphan the child
        if process.is_alive():
            process.kill()
        process.join()
""",
        """    process.join()
""")
    assert degraded != source, "worker.py reap block moved; update test"
    target = tmp_path / "degraded.py"
    target.write_text(degraded)
    findings = check_paths([target])
    assert [f.rule for f in findings] == ["RPR032"]
    assert "process" in findings[0].message


# ----------------------------------------------------------------------
# suppression and strict mechanics (shared noqa machinery)
# ----------------------------------------------------------------------
LEAK = """\
    def peek(path):
        handle = open(path){noqa}
        return handle.read()
"""


def test_noqa_suppresses_lifecycle_finding(tmp_path):
    dirty = run_on(tmp_path, quiet=LEAK.format(noqa=""))
    assert [f.rule for f in dirty] == ["RPR032"]
    clean = run_on(
        tmp_path,
        quiet=LEAK.format(noqa="  # repro: noqa RPR032"))
    assert clean == []


def test_strict_flags_dead_lifecycle_noqa(tmp_path):
    findings = run_on(
        tmp_path, strict=True,
        quiet="SAFE = 1  # repro: noqa RPR032\n")
    assert [(f.rule, f.line) for f in findings] == [("RPR006", 1)]


def test_strict_flags_dead_code_in_multi_code_comment(tmp_path):
    """``RPR032,RPR021`` where only RPR032 fires: the dead RPR021
    half is reported per code."""
    findings = run_on(
        tmp_path, strict=True,
        quiet=LEAK.format(noqa="  # repro: noqa RPR032,RPR021"))
    assert [f.rule for f in findings] == ["RPR006"]
    assert "RPR021" in findings[0].message


# ----------------------------------------------------------------------
# hard cases: dynamic constructs degrade to silence
# ----------------------------------------------------------------------
def test_escaping_handle_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        SINKS = []


        def open_sink(path):
            handle = open(path, "a")
            SINKS.append(handle)
        """)
    assert findings == []


def test_rebound_handle_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        def tail(path, decompress):
            handle = open(path, "rb")
            handle = decompress(handle)
            return handle.read()
        """)
    assert findings == []


def test_closure_owned_handle_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        def spool(path):
            handle = open(path, "a")

            def write(line):
                handle.write(line)

            return write
        """)
    assert findings == []


def test_syntax_error_degrades_to_silence(tmp_path):
    """The driver reports RPR000; RPR032 never sees the file."""
    findings = run_on(tmp_path, broken="def broken(:\n")
    assert [f.rule for f in findings] == ["RPR000"]


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
def test_rules_catalog_covers_reported_ids():
    """RPR032 is the one exception-safety rule the audit kept."""
    assert {rule for rule in RULES if rule.startswith("RPR03")} \
        == {"RPR032"}
