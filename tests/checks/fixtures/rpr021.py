"""RPR021 fixture: durable-looking paths written in place instead of
via the tmp + fsync + os.replace idiom."""

import json
import os


def save_report(report_path, payload) -> None:
    with open(report_path, "w") as handle:  # expect: RPR021
        json.dump(payload, handle)


def write_status(directory, payload) -> None:
    status_path = os.path.join(directory, "status.json")
    with open(status_path, "w") as handle:  # expect: RPR021
        handle.write(json.dumps(payload))


def rotate_bench(path) -> None:
    handle = open(os.path.join(path, "bench.json"), "x")  # expect: RPR021
    try:
        handle.write("{}")
    finally:
        handle.close()
