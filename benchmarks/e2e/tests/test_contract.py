"""BENCHMARK.json obeys the driver's grammar."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def test_top_level_keys_and_sizes():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    # 4 + 22 runs per workload, all of them within 3420 s.  A run
    # (set-up, rounds, the overshooting last round, five fleets
    # whatever run_seconds says) averages 1.8x run_seconds on the
    # sizing box; allow a box a fifth slower
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * 2.2 * SPEC["run_seconds"] <= 3420


def test_command_and_paths_stay_inside_the_benchmark():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    command = SPEC["command"]
    assert 1 <= len(command) <= 32
    assert all(len(part) <= 200 for part in command)
    assert command == ["python3", "benchmarks/e2e/run.py"]
    assert (ROOT / command[1]).is_file()


def test_names_units_and_reasons():
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used once"


def test_setup_metric_has_the_largest_bound():
    by_name = {m["name"]: m for m in SPEC["end_to_end"]}
    setup = by_name["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
