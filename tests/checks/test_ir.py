"""Tests for the shared analysis IR (:mod:`repro.checks.ir`).

The contract every rule rides on: one read + one parse per file
(:class:`ParseCache`) for the whole ``repro check`` invocation.
"""

import ast
from pathlib import Path

from repro.checks.ir import ParseCache, iter_python_files
from repro.checks.lint import check_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


# ----------------------------------------------------------------------
# one parse per file
# ----------------------------------------------------------------------
def test_every_pass_shares_one_parse_per_file(monkeypatch):
    """Running every rule over src parses each file exactly once."""
    real_parse = ast.parse
    counts = {}

    def counting_parse(source, filename="<unknown>", mode="exec",
                       *args, **kwargs):
        if mode == "exec" and filename != "<unknown>":
            counts[filename] = counts.get(filename, 0) + 1
        return real_parse(source, filename, mode, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    cache = ParseCache()
    assert check_paths([SRC], strict=True, cache=cache) == []
    files = list(iter_python_files([SRC]))
    assert files, "src tree vanished?"
    assert cache.parse_count == len(files)
    repeats = {name: n for name, n in counts.items() if n > 1}
    assert not repeats, f"files parsed more than once: {repeats}"
    assert len(counts) == len(files)


def test_parse_cache_memoizes_records(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("VALUE = 1\n")
    cache = ParseCache()
    first = cache.load(target)
    second = cache.load(target)
    assert first is second
    assert cache.parse_count == 1
    assert first.ok and first.tree is not None


def test_parse_cache_captures_errors(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    cache = ParseCache()
    record = cache.load(broken)
    assert record.syntax_error is not None and not record.ok
    missing = cache.load(tmp_path / "missing.py")
    assert missing.read_error is not None and not missing.ok
    # a failed read never counts as a parse
    assert cache.parse_count == 1
