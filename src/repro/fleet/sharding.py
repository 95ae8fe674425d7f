"""Consistent-hash shard routing for the diagnosis fleet.

One :class:`~repro.live.pipeline.LivePipeline` serves one collective
(one *tenant*).  A fleet serves thousands, so tenants are partitioned
across N shards by consistent hashing:

* the hash is SHA-256 based (:func:`stable_hash`), never Python's
  ``hash`` — routing must agree across processes and runs regardless
  of ``PYTHONHASHSEED``;
* each shard owns ``vnodes`` points on a ring
  (:class:`HashRing`), so tenant load spreads evenly and growing the
  fleet from N to N+1 shards moves only ~1/(N+1) of tenants
  (tested).
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


def stable_hash(text: str) -> int:
    """A process-stable 64-bit hash of ``text`` (SHA-256 prefix)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class TenantSpec:
    """One monitored collective: a stable tenant id and its stream."""

    tenant: str
    trace: str

    def to_dict(self) -> dict:
        return {"tenant": self.tenant, "trace": self.trace}

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        return cls(tenant=str(data["tenant"]), trace=str(data["trace"]))


class HashRing:
    """Consistent-hash ring over integer shard ids.

    ``vnodes`` virtual points per shard smooth the partition; lookups
    are O(log(shards * vnodes)) bisects into a sorted point list.
    """

    def __init__(self, shards: int, vnodes: int = 64) -> None:
        if shards <= 0:
            raise ValueError(f"need at least one shard, got {shards}")
        if vnodes <= 0:
            raise ValueError(f"need at least one vnode, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(vnodes):
                points.append(
                    (stable_hash(f"shard-{shard}#{replica}"), shard))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (first ring point at or after its
        hash, wrapping)."""
        point = stable_hash(key)
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def assign(self, tenants: Iterable[TenantSpec]
               ) -> dict[int, list[TenantSpec]]:
        """Partition tenants across shards; every shard id appears in
        the result (possibly with an empty list), tenants stay in
        sorted-by-id order inside each shard."""
        plan: dict[int, list[TenantSpec]] = {
            shard: [] for shard in range(self.shards)}
        for spec in sorted(tenants, key=lambda t: t.tenant):
            plan[self.shard_for(spec.tenant)].append(spec)
        return plan


def plan_shards(tenants: Sequence[TenantSpec], shards: int,
                vnodes: int = 64) -> dict[int, list[TenantSpec]]:
    """Convenience: build a ring and partition ``tenants`` over it."""
    return HashRing(shards, vnodes).assign(tenants)


def replicate_tenants(traces: Sequence[str], replicate: int = 1
                      ) -> list[TenantSpec]:
    """Expand trace paths into tenant specs.

    ``replicate > 1`` clones each trace into that many logical tenants
    (``<stem>``, ``<stem>-1``, ...) — the cheap way to present a fleet
    of hundreds of monitored collectives from a handful of captures.
    """
    specs: list[TenantSpec] = []
    seen: set[str] = set()
    for trace in traces:
        stem = _stem(trace)
        base = stem
        suffix = 0
        while base in seen:
            suffix += 1
            base = f"{stem}.{suffix}"
        for copy in range(max(1, replicate)):
            tenant = base if copy == 0 else f"{base}-{copy}"
            seen.add(tenant)
            specs.append(TenantSpec(tenant=tenant, trace=trace))
    return specs


def _stem(path: str) -> str:
    name = path.replace("\\", "/").rsplit("/", 1)[-1]
    return name.rsplit(".", 1)[0] if "." in name else name


def shard_workdir(root, shard_id: int) -> str:
    """The per-shard state directory (checkpoints, results) under the
    fleet workdir."""
    return str(Path(root) / f"shard-{shard_id:03d}")


def tenant_checkpoint_dir(shard_dir, tenant: str) -> str:
    """Each tenant owns its own checkpoint dir inside its shard's
    directory, so per-tenant resume cursors never interleave."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_"
                   for c in tenant)
    return str(Path(shard_dir) / f"tenant-{safe}" / "checkpoints")
