"""Exact-location tests for the exception-safety & resource-lifecycle
pass (``repro check --lifecycle``, rules RPR030-RPR036).

Mirrors ``test_concurrency.py``: each ``fixtures/rpr03x.py`` file tags
its deliberately-bad lines with a trailing ``# expect: RPR03x`` marker
and ships a ``*_near.py`` twin full of close calls that must stay
silent — unresolvable dynamic constructs degrade to silence, never to
a false positive.
"""

import re
import textwrap
from pathlib import Path

import pytest

from repro.checks import LIFECYCLE_RULES, check_lifecycle
from repro.checks.lint import check_source, render_findings
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
_EXPECT = re.compile(r"#\s*expect:\s*(RPR\d{3})")

FIXTURE_NAMES = ["rpr030", "rpr031", "rpr032", "rpr033", "rpr034",
                 "rpr035", "rpr036"]

LIFECYCLE_PRAGMA = "# repro: check-scope lifecycle\n"


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
    return check_lifecycle([tmp_path], strict=strict)


# ----------------------------------------------------------------------
# fixtures: exact line/rule agreement
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_reports_exact_lines(name):
    path = FIXTURES / f"{name}.py"
    findings = check_lifecycle([path])
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
    findings = check_lifecycle([path], strict=True)
    assert findings == [], render_findings(findings)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixtures_clean_under_base_lint(name):
    """The lifecycle fixtures must not add RPR001-006 noise to the
    fixtures directory (``test_cli_check_fixtures_exits_nonzero``
    lints it whole)."""
    for suffix in ("", "_near"):
        path = FIXTURES / f"{name}{suffix}.py"
        findings = check_source(path.read_text(), path, strict=True)
        assert findings == [], render_findings(findings)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_render_format(name):
    path = FIXTURES / f"{name}.py"
    for finding in check_lifecycle([path]):
        assert re.fullmatch(
            rf"{re.escape(str(path))}:\d+:\d+: RPR\d{{3}} .+",
            finding.render())


# ----------------------------------------------------------------------
# the repo's own sources must be clean (the CI gate)
# ----------------------------------------------------------------------
def test_src_tree_is_clean_strict():
    findings = check_lifecycle([REPO_ROOT / "src"], strict=True)
    assert findings == [], render_findings(findings)


# ----------------------------------------------------------------------
# the audit annotations in the fleet's worker plumbing are load-bearing
# ----------------------------------------------------------------------
def test_rpr030_catches_unannotated_worker_swallow(tmp_path):
    """Strip the rationale noqa from the real cleanup handler behind a
    worker's report publish (``service.publish_json``) and the pass
    must flag it again."""
    source = (REPO_ROOT / "src/repro/fleet/service.py").read_text()
    needle = "# repro: noqa RPR030"
    assert needle in source, "service.py annotations moved; update test"
    # the tmp copy is outside fleet/: opt it back in via pragma
    clean = tmp_path / "clean.py"
    clean.write_text(LIFECYCLE_PRAGMA + source)
    assert check_lifecycle([clean]) == []
    stripped = tmp_path / "stripped.py"
    stripped.write_text(LIFECYCLE_PRAGMA + re.sub(
        r"  # repro: noqa RPR030[^\n]*", "", source))
    findings = check_lifecycle([stripped])
    assert {f.rule for f in findings} == {"RPR030"}


def test_rpr032_catches_unsupervised_worker_process(tmp_path):
    """Remove run_worker_process's try/finally reaping (the bug this
    PR fixed) and the pass must flag the leaked child process."""
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
    findings = check_lifecycle([target])
    assert [f.rule for f in findings] == ["RPR032"]
    assert "process" in findings[0].message


# ----------------------------------------------------------------------
# suppression and strict mechanics (shared noqa machinery)
# ----------------------------------------------------------------------
SWALLOW = """\
    # repro: check-scope lifecycle
    def ingest(records):
        out = []
        for record in records:
            try:
                out.append(int(record))
            except Exception:{noqa}
                continue
        return out
"""


def test_noqa_suppresses_lifecycle_finding(tmp_path):
    dirty = run_on(tmp_path, quiet=SWALLOW.format(noqa=""))
    assert [f.rule for f in dirty] == ["RPR030"]
    clean = run_on(
        tmp_path,
        quiet=SWALLOW.format(noqa="  # repro: noqa RPR030"))
    assert clean == []


def test_strict_flags_dead_lifecycle_noqa(tmp_path):
    findings = run_on(
        tmp_path, strict=True,
        quiet="SAFE = 1  # repro: noqa RPR034\n")
    assert [(f.rule, f.line) for f in findings] == [("RPR006", 1)]


def test_strict_leaves_other_pass_codes_alone(tmp_path):
    """A noqa naming base-lint, units, or concurrency codes is not
    this pass's to judge — no RPR006 double report."""
    findings = run_on(
        tmp_path, strict=True,
        other=("VALUE = 1  # repro: noqa RPR003\n"
               "OTHER = 2  # repro: noqa RPR012\n"
               "MORE = 3  # repro: noqa RPR020\n"
               "BOTH = 4  # repro: noqa\n"))
    assert findings == []


def test_strict_flags_dead_code_in_multi_code_comment(tmp_path):
    """``RPR030,RPR035`` where only RPR030 fires: the dead RPR035
    half is reported per code."""
    findings = run_on(
        tmp_path, strict=True,
        quiet=SWALLOW.format(noqa="  # repro: noqa RPR030,RPR035"))
    assert [f.rule for f in findings] == ["RPR006"]
    assert "RPR035" in findings[0].message


def test_cross_universe_comment_judged_by_owning_pass(tmp_path):
    """One comment naming codes from two pass universes: each pass
    only judges (and can only kill) its own half."""
    source = SWALLOW.format(noqa="  # repro: noqa RPR030,RPR003")
    # lifecycle alone: RPR030 is live, RPR003 is another pass's code
    assert run_on(tmp_path, quiet=source, strict=True) == []
    # base lint alone: RPR003 is dead on that line, and RPR030 is not
    # its to judge — exactly one RPR006, naming only RPR003
    base = check_source(textwrap.dedent(source), "quiet.py",
                        strict=True)
    assert [f.rule for f in base] == ["RPR006"]
    # the other pass's live RPR030 must not be named dead
    assert "RPR030" not in base[0].message


# ----------------------------------------------------------------------
# hard cases: dynamic constructs degrade to silence
# ----------------------------------------------------------------------
def test_computed_exit_status_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        import sys


        def finish(failures):
            sys.exit(min(len(failures), 125))
        """)
    assert findings == []


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


def test_computed_lock_receiver_is_silent(tmp_path):
    findings = run_on(tmp_path, dyn="""\
        def lock_all(locks):
            locks[0].acquire()
            try:
                return len(locks)
            finally:
                locks[0].release()
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
    """The base pass owns RPR000; this pass just skips the file."""
    findings = run_on(tmp_path, broken="def broken(:\n")
    assert findings == []


# ----------------------------------------------------------------------
# RPR030 scoping (directory + pragma)
# ----------------------------------------------------------------------
UNSCOPED_SWALLOW = """\
    def ingest(records):
        out = []
        for record in records:
            try:
                out.append(int(record))
            except Exception:
                continue
        return out
"""


def test_rpr030_off_outside_scope(tmp_path):
    assert run_on(tmp_path, util=UNSCOPED_SWALLOW) == []


def test_rpr030_on_in_fleet_dir(tmp_path):
    findings = run_on(tmp_path, **{"fleet/util": UNSCOPED_SWALLOW})
    assert [f.rule for f in findings] == ["RPR030"]


def test_rpr030_pragma_opts_a_file_in(tmp_path):
    findings = run_on(
        tmp_path,
        util=LIFECYCLE_PRAGMA + textwrap.dedent(UNSCOPED_SWALLOW))
    assert [f.rule for f in findings] == ["RPR030"]


def test_rpr031_applies_everywhere(tmp_path):
    """Unlike RPR030, the shutdown-signal rule is not scope-gated."""
    findings = run_on(tmp_path, util="""\
        def run_jobs(jobs, log):
            for job in jobs:
                try:
                    job()
                except BaseException as error:
                    log.warning("job failed: %s", error)
        """)
    assert [f.rule for f in findings] == ["RPR031"]


# ----------------------------------------------------------------------
# cross-module surfacing through the shared project table
# ----------------------------------------------------------------------
def test_imported_raiser_counts_as_surfacing(tmp_path):
    """A handler that calls an imported die()-style helper re-raises
    in spirit; the project symbol table resolves it across modules."""
    from repro.checks.ir import ParseCache, build_project

    for name, source in {
        "errors": ("def die(message):\n"
                   "    raise RuntimeError(message)\n"),
        "fleet/intake": ("from errors import die\n\n\n"
                         "def ingest(record):\n"
                         "    try:\n"
                         "        return int(record)\n"
                         "    except Exception:\n"
                         "        die('bad record')\n"),
    }.items():
        target = tmp_path / f"{name}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    cache = ParseCache()
    project = build_project([tmp_path], cache=cache)
    findings = check_lifecycle([tmp_path], cache=cache,
                               project=project)
    assert findings == [], render_findings(findings)
    # without the project table the call is unresolvable -> flagged
    findings = check_lifecycle([tmp_path])
    assert [f.rule for f in findings] == ["RPR030"]


# ----------------------------------------------------------------------
# catalog and CLI
# ----------------------------------------------------------------------
def test_rules_catalog_covers_reported_ids():
    assert set(LIFECYCLE_RULES) == {f"RPR03{i}" for i in range(7)}


def test_cli_lifecycle_flag_gates_the_pass(capsys):
    fixture = str(FIXTURES / "rpr034.py")
    assert main(["check", fixture]) == 0
    capsys.readouterr()
    code = main(["check", "--lifecycle", fixture])
    assert code == 1
    captured = capsys.readouterr()
    assert "RPR034" in captured.out
    assert "finding(s)" in captured.err


def test_cli_lifecycle_src_is_clean(capsys):
    code = main(["check", "--strict", "--lifecycle",
                 str(REPO_ROOT / "src")])
    assert code == 0
    assert "clean" in capsys.readouterr().out
