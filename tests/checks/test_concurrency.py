"""Exact-location tests for the durability rules of
:mod:`repro.checks.project` (RPR021, RPR022, RPR024, RPR025).

Mirrors ``test_lint.py`` / ``test_units.py``: each
``fixtures/rpr02x.py`` file tags its deliberately-bad lines with a
trailing ``# expect: RPR02x`` marker and ships a ``*_near.py`` twin
full of close calls that must stay silent — unresolvable dynamic
constructs degrade to silence, never to a false positive.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.checks.lint import check_paths, check_source, render_findings
from repro.checks.project import RULES as PROJECT_RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
_EXPECT = re.compile(r"#\s*expect:\s*(RPR\d{3})")

FIXTURE_NAMES = ["rpr021", "rpr022", "rpr024", "rpr025"]


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
# ----------------------------------------------------------------------
# RPR024 catches seeded drift in the real Histogram
# ----------------------------------------------------------------------
def test_rpr024_catches_seeded_histogram_drift(tmp_path):
    """Rename one state_dict key of the real Histogram (the state a
    shard worker ships home) and the pass must flag both halves of the
    broken pair."""
    source = (REPO_ROOT / "src/repro/live/metrics.py").read_text()
    needle = '"total": self.total,'
    assert needle in source, "Histogram state_dict changed; update test"
    # pristine copy is clean
    clean = tmp_path / "clean.py"
    clean.write_text(source)
    assert check_paths([clean]) == []
    # seeded drift: writer renamed, reader left behind
    drifted = tmp_path / "drifted.py"
    drifted.write_text(source.replace(
        needle, '"observations": self.total,'))
    findings = check_paths([drifted])
    assert {f.rule for f in findings} == {"RPR024"}
    messages = " ".join(f.message for f in findings)
    assert "observations" in messages
    assert "'total'" in messages
    lines = drifted.read_text().splitlines()
    want_lines = {i for i, text in enumerate(lines, 1)
                  if text.lstrip().startswith(
                      ("def state_dict", "def load_state"))}
    assert {f.line for f in findings} <= want_lines
    assert len(findings) == 2


# ----------------------------------------------------------------------
# suppression and strict mechanics (shared noqa machinery)
# ----------------------------------------------------------------------
DURABLE_WRITE = """\
    def save_report(path, text):
        with open(path + ".report", "w") as handle:{noqa}
            handle.write(text)
"""


def test_noqa_suppresses_concurrency_finding(tmp_path):
    dirty = run_on(tmp_path, save=DURABLE_WRITE.format(noqa=""))
    assert [f.rule for f in dirty] == ["RPR021"]
    clean = run_on(
        tmp_path,
        save=DURABLE_WRITE.format(noqa="  # repro: noqa RPR021"))
    assert clean == []


def test_strict_flags_dead_concurrency_noqa(tmp_path):
    findings = run_on(
        tmp_path, strict=True,
        quiet="SAFE = 1  # repro: noqa RPR025\n")
    assert [(f.rule, f.line) for f in findings] == [("RPR006", 1)]


def test_strict_flags_dead_code_in_multi_code_comment(tmp_path):
    """``RPR021,RPR025`` where only RPR021 fires: the dead RPR025
    half is reported per code."""
    findings = run_on(
        tmp_path, strict=True,
        save=DURABLE_WRITE.format(
            noqa="  # repro: noqa RPR021,RPR025"))
    assert [(f.rule) for f in findings] == ["RPR006"]
    assert "RPR025" in findings[0].message


def test_base_pass_still_judges_multi_code_comments(tmp_path):
    """Per-code judgement holds for any mix of per-file and
    project-wide codes on one line."""
    source = ("def f(now, end_time):\n"
              "    return now == end_time  "
              "# repro: noqa RPR003,RPR025\n")
    findings = check_source(source, "x.py", strict=True)
    assert [f.rule for f in findings] == ["RPR006"]
    assert "RPR025" in findings[0].message


# ----------------------------------------------------------------------
# hard cases: dynamic constructs degrade to silence
# ----------------------------------------------------------------------
def test_computed_state_payload_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        def merge(base, extra):
            return {**base, **extra}


        class Opaque:
            def state_dict(self):
                return merge({"a": 1}, {"b": 2})

            def load_state(self, state):
                self.a = state["a"]
        """)
    assert findings == []


def test_spec_with_unresolvable_call_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        from helpers import build_payload


        def make_job_spec(job_id):
            return {"job": job_id, "payload": build_payload(job_id)}
        """)
    assert findings == []


def test_cross_module_class_in_spec_is_flagged(tmp_path):
    """project classes are collected across the whole analyzed tree,
    so a class from another module still trips RPR022."""
    findings = run_on(
        tmp_path,
        runtime="""\
        class ShardRuntime:
            pass
        """,
        specs="""\
        from runtime import ShardRuntime


        def make_shard_spec(shard_id):
            return {"shard": shard_id, "rt": ShardRuntime()}
        """)
    assert [f.rule for f in findings] == ["RPR022"]
    assert "ShardRuntime" in findings[0].message


def test_syntax_error_degrades_to_silence(tmp_path):
    """The driver reports RPR000; no project rule sees the file."""
    findings = run_on(tmp_path, broken="def broken(:\n")
    assert [f.rule for f in findings] == ["RPR000"]


# ----------------------------------------------------------------------
# RPR025 scoping
# ----------------------------------------------------------------------
GROWER = """\
    LOG = []


    def note(entry):
        LOG.append(entry)
"""


def test_rpr025_off_outside_scope(tmp_path):
    assert run_on(tmp_path, util=GROWER) == []


def test_rpr025_on_in_live_dir(tmp_path):
    findings = run_on(tmp_path, **{"live/util": GROWER})
    assert [f.rule for f in findings] == ["RPR025"]


def test_rpr025_pragma_opts_a_file_in(tmp_path):
    findings = run_on(
        tmp_path,
        util="# repro: check-scope concurrency\n"
             + textwrap.dedent(GROWER))
    assert [f.rule for f in findings] == ["RPR025"]


# ----------------------------------------------------------------------
# RPR025 catches the bug it found, re-seeded into the live source
# ----------------------------------------------------------------------
def test_rpr025_catches_unbounded_supervisor_crashes(tmp_path):
    """Drop the eviction ``Supervisor.crashes`` gained when this rule
    first ran, and the rule must flag the list again."""
    source = (REPO_ROOT / "src/repro/live/supervisor.py").read_text()
    eviction = """                if len(self.crashes) > MAX_CRASH_RECORDS:
                    del self.crashes[:-MAX_CRASH_RECORDS]
"""
    assert eviction in source, "crash-record eviction moved; update test"
    target = tmp_path / "live" / "supervisor.py"
    target.parent.mkdir()
    target.write_text(source)
    assert check_paths([target]) == []
    target.write_text(source.replace(eviction, ""))
    findings = check_paths([target])
    assert [f.rule for f in findings] == ["RPR025"]
    assert "'crashes' of Supervisor" in findings[0].message


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
def test_rules_catalog_covers_reported_ids():
    assert set(PROJECT_RULES) == {"RPR021", "RPR022", "RPR024",
                                  "RPR025", "RPR032"}
