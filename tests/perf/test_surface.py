"""``repro.perf`` is the golden digests and nothing else: the ``bench``
verb and its three harnesses are retired (timing is ``benchmarks/e2e``).
"""

import importlib

import pytest

import repro.perf.golden
from repro.cli import build_parser


def test_perf_holds_only_the_golden_module():
    assert not hasattr(repro.perf, "__all__")
    public = {name for name in vars(repro.perf)
              if not name.startswith("_")}
    assert public == {"golden"}


@pytest.mark.parametrize("package, module", [("repro.perf", "bench"),
                                             ("repro.perf", "traceio"),
                                             ("repro.fleet", "bench")])
def test_bench_modules_are_gone(package, module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"{package}.{module}")


def test_the_bench_verb_is_gone(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["bench"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
