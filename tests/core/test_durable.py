"""Atomic file writes (repro.core.durable)."""

import pytest

from repro.core.durable import atomic_write


def test_clean_exit_replaces_the_destination(tmp_path):
    target = tmp_path / "doc.json"
    target.write_bytes(b"old")
    for durable in (False, True):
        with atomic_write(target, durable=durable) as handle:
            handle.write(b"new %d" % durable)
        assert target.read_bytes() == b"new %d" % durable
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


def test_an_exception_leaves_the_old_bytes_and_no_tmp(tmp_path):
    target = tmp_path / "ckpt-0000000064.json"
    target.write_bytes(b"the last good document\n")
    with pytest.raises(RuntimeError, match="disk on fire"):
        with atomic_write(target, durable=True) as handle:
            handle.write(b"half a docu")
            raise RuntimeError("disk on fire")
    assert target.read_bytes() == b"the last good document\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_two_writers_on_one_destination_last_close_wins(tmp_path):
    target = tmp_path / "status.json"
    first = atomic_write(target)
    second = atomic_write(target)
    a = first.__enter__()
    b = second.__enter__()
    tmps = [p.name for p in tmp_path.glob("*.tmp")]
    assert len(tmps) == 2
    assert all(name.startswith("status.json.") for name in tmps)
    a.write(b"first")
    b.write(b"second")
    second.__exit__(None, None, None)
    assert target.read_bytes() == b"second"
    first.__exit__(None, None, None)
    assert target.read_bytes() == b"first"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["status.json"]
