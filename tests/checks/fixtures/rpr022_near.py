"""Near-misses for RPR022: primitive specs, pre-serialized hand-offs,
and unresolvable calls all stay silent."""

import json
import multiprocessing


class TenantPolicy:
    def to_dict(self):
        return {"budget": 100}


def entry(spec_json: str) -> None:
    json.loads(spec_json)


def make_path(tenant: str) -> str:
    return tenant + ".json"


def make_tenant_spec(tenant: str, policy: TenantPolicy):
    return {
        "tenant": tenant,
        "policy": policy.to_dict(),  # serialized at the boundary
        "budget": 100,
        "path": make_path(tenant),  # unresolvable call: silent
        "extra": [1, 2, {"nested": True}],
    }


def launch(spec):
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=entry, args=(json.dumps(spec),))
    proc.start()
    return proc  # the caller owns (and reaps) the worker
