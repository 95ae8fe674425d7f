"""Driver-level tests for the ``repro check`` CLI verb.

The rule fixtures pin individual analyses; these tests pin the driver
itself: exit codes on clean/dirty/parse-error/empty trees, ``--strict``
vs default suppression judgement, scope pragmas end to end, and the
``--format`` output modes (text / json / github annotations).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def write_tree(tmp_path, **files):
    for name, source in files.items():
        target = tmp_path / f"{name}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = ("def f(now, end_time):\n"
         "    return now == end_time\n")  # RPR003
SUPPRESSED = ("def f(now, end_time):\n"
              "    return now == end_time  # repro: noqa RPR003\n")
DEAD_NOQA = "VALUE = 1  # repro: noqa RPR003\n"


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------
def test_clean_tree_exits_zero(tmp_path, capsys):
    write_tree(tmp_path, ok=CLEAN)
    assert main(["check", str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_dirty_tree_exits_one(tmp_path, capsys):
    write_tree(tmp_path, bad=DIRTY)
    assert main(["check", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "RPR003" in captured.out
    assert "finding(s)" in captured.err


def test_parse_error_exits_one_with_rpr000(tmp_path, capsys):
    write_tree(tmp_path, broken="def broken(:\n")
    assert main(["check", str(tmp_path)]) == 1
    assert "RPR000" in capsys.readouterr().out


def test_zero_matching_files_exits_two(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["check", str(empty)]) == 2
    captured = capsys.readouterr()
    assert "no Python files matched" in captured.err
    assert str(empty) in captured.err
    assert "clean" not in captured.out


def test_mixed_clean_and_empty_paths_still_checks(tmp_path):
    """One matching file anywhere in the path list is enough."""
    empty = tmp_path / "empty"
    empty.mkdir()
    write_tree(tmp_path / "code", ok=CLEAN)
    assert main(["check", str(empty), str(tmp_path / "code")]) == 0


# ----------------------------------------------------------------------
# strict vs default suppression judgement
# ----------------------------------------------------------------------
def test_default_mode_accepts_dead_noqa(tmp_path):
    write_tree(tmp_path, quiet=DEAD_NOQA)
    assert main(["check", str(tmp_path)]) == 0


def test_strict_mode_flags_dead_noqa(tmp_path, capsys):
    write_tree(tmp_path, quiet=DEAD_NOQA)
    assert main(["check", "--strict", str(tmp_path)]) == 1
    assert "RPR006" in capsys.readouterr().out


def test_live_suppression_is_clean_in_both_modes(tmp_path):
    write_tree(tmp_path, quiet=SUPPRESSED)
    assert main(["check", str(tmp_path)]) == 0
    assert main(["check", "--strict", str(tmp_path)]) == 0


# ----------------------------------------------------------------------
# scope pragmas travel through the CLI
# ----------------------------------------------------------------------
def test_sim_scope_pragma_via_cli(tmp_path, capsys):
    write_tree(tmp_path, clock="""\
        # repro: check-scope sim
        import time


        def stamp():
            return time.time()
        """)
    assert main(["check", str(tmp_path)]) == 1
    assert "RPR001" in capsys.readouterr().out


def test_concurrency_scope_pragma_via_cli(tmp_path, capsys):
    grower = """\
        LOG = []


        def note(entry):
            LOG.append(entry)
        """
    write_tree(tmp_path, grow=grower)
    assert main(["check", str(tmp_path)]) == 0  # out of growth scope
    capsys.readouterr()
    write_tree(tmp_path, grow="# repro: check-scope concurrency\n"
               + textwrap.dedent(grower))
    assert main(["check", str(tmp_path)]) == 1
    assert "RPR025" in capsys.readouterr().out


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------
def test_format_json_is_the_one_machine_spelling(tmp_path, capsys):
    write_tree(tmp_path, bad=DIRTY)
    assert main(["check", "--format", "json", str(tmp_path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {entry["rule"] for entry in payload} == {"RPR003"}
    with pytest.raises(SystemExit) as exit_info:
        main(["check", "--json", str(tmp_path)])
    assert exit_info.value.code == 2


def test_format_json_clean_emits_empty_array(tmp_path, capsys):
    write_tree(tmp_path, ok=CLEAN)
    assert main(["check", "--format", "json", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_format_github_annotations(tmp_path, capsys):
    write_tree(tmp_path, bad=DIRTY)
    assert main(["check", "--format", "github", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines()
             if line.startswith("::error ")]
    assert len(lines) == 1
    annotation = lines[0]
    assert f"file={tmp_path / 'bad.py'}" in annotation
    assert "line=2" in annotation
    assert "title=RPR003" in annotation
    assert "::RPR003 " in annotation
    assert "finding(s)" in captured.err


def test_format_github_escapes_newlines_and_percent():
    from repro.checks.lint import Finding
    from repro.cli import _github_annotation

    finding = Finding("a.py", 1, 1, "RPR003", "100% bad\nnews")
    annotation = _github_annotation(finding)
    assert "\n" not in annotation
    assert "%25" in annotation and "%0A" in annotation


def test_format_github_clean_prints_clean_line(tmp_path, capsys):
    write_tree(tmp_path, ok=CLEAN)
    assert main(["check", "--format", "github", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "clean" in captured.out
    assert "::error" not in captured.out


# ----------------------------------------------------------------------
# one invocation runs every rule
# ----------------------------------------------------------------------
def test_all_passes_stack_and_sort(tmp_path, capsys):
    """Per-file and project-wide findings come from one invocation,
    interleaved and sorted by file/line."""
    write_tree(
        tmp_path,
        mixed="""\
        def f(now, end_time):
            return now == end_time


        def save(directory):
            with open(directory + "/status.json", "w") as out:
                out.write("{}")


        def peek(path):
            handle = open(path)
            return handle.read()
        """)
    code = main(["check", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    for rule in ("RPR003", "RPR021", "RPR032"):
        assert rule in captured.out
    reported = [line.split(":")[1] for line in
                captured.out.splitlines() if ".py:" in line]
    assert reported == ["2", "6", "11"]
    assert "3 finding(s) [RPR003, RPR021, RPR032]" in captured.err


def test_all_flag_runs_every_rule_family(tmp_path, capsys):
    """What ``--all`` used to opt into is now the default: one plain
    invocation reports a base, a units, a concurrency and a lifecycle
    rule, still sorted by file/line."""
    write_tree(
        tmp_path,
        mixed="""\
        # repro: check-scope sim
        import multiprocessing

        from repro.core.units import Microseconds, Nanoseconds


        def f(now, end_time):
            return now == end_time


        def to_engine_time(window_us: Microseconds) -> Nanoseconds:
            return window_us * 1000.0


        def make_worker_spec(shard_id):
            return {"shard_id": shard_id, "flags": {"chaos"}}


        def peek(path):
            handle = open(path)
            return handle.read()
        """)
    code = main(["check", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    for rule in ("RPR003", "RPR013", "RPR022", "RPR032"):
        assert rule in captured.out
    reported = [line.split(":")[1] for line in
                captured.out.splitlines() if ".py:" in line]
    assert reported == sorted(reported, key=int)


@pytest.mark.parametrize("flag", ["--units", "--concurrency",
                                  "--lifecycle", "--all"])
def test_removed_pass_flags_are_rejected(flag, tmp_path, capsys):
    """Every rule always runs: the per-pass flags are gone, and asking
    for one is a usage error, not a silent no-op."""
    write_tree(tmp_path, ok=CLEAN)
    with pytest.raises(SystemExit) as exit_info:
        main(["check", flag, str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_check_whole_repo_strict_all_passes():
    """The acceptance gate: every rule, strict, whole src tree, one
    invocation (what CI and pre-commit run)."""
    code = main(["check", "--strict", str(REPO_ROOT / "src")])
    assert code == 0
