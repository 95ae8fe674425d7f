"""RPR022 fixture: non-primitive values crossing a spawn boundary.

Worker spec dicts and ``Process`` args must stay JSON primitives —
anything richer dies (or silently diverges) at the pickle boundary.
"""

import json
import multiprocessing


class ShardRuntime:
    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id


def entry(spec_json: str) -> None:
    json.loads(spec_json)


def make_worker_spec(shard_id: int):
    return {
        "shard_id": shard_id,
        "runtime": ShardRuntime(shard_id),  # expect: RPR022
        "flags": {"chaos", "verbose"},  # expect: RPR022
    }


def launch(spec):
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=entry, args=(lambda: spec,))  # expect: RPR022
    proc.start()
    return proc  # the caller owns (and reaps) the worker
