"""Named, seeded failpoints: deterministic fault injection at
annotated sites.

Collie's lesson (PAPERS.md) is that the faults worth testing are the
ones nobody hand-picked — so the harness needs a way to inject
failures *systematically* at any annotated site, reproducibly, from
either an environment variable or a programmatic call.  A failpoint is
a named site in production code::

    from repro.core import failpoints

    failpoints.fire("checkpoint.save")            # control sites
    data = failpoints.mangle("transport.send", data)  # payload sites

Sites are **free when unconfigured**: both entry points return
immediately off one empty-dict check, so an always-on service pays a
dict lookup's worth of overhead only while an experiment is running
(and nothing at all is mutated — golden digests pin this).

Specs select what happens at a site, from the ``REPRO_FAILPOINTS``
environment variable or :func:`configure`::

    REPRO_FAILPOINTS="checkpoint.save:error@0.5x3,transport.send:drop"

Grammar (per comma-separated spec)::

    name:action[(value)][@probability][xlimit]

* ``error``           — raise :class:`FailpointError` (an ``OSError``,
  so production retry / fallback paths treat it as a real I/O fault);
* ``delay(seconds)``  — sleep that long, then continue;
* ``drop``            — ask the site to skip the operation
  (:func:`fire` returns ``"drop"``; :func:`mangle` returns ``None``);
* ``truncate[(n)]``   — cut the payload to ``n`` bytes (default:
  half), payload sites only;
* ``garble``          — flip one seeded byte of the payload, payload
  sites only.

``@probability`` arms the spec stochastically per evaluation (seeded —
the per-site RNG is ``random.Random(seed ^ crc32(name))``, so the same
configuration replays the same fault schedule) and ``xlimit`` caps the
total number of firings.  Both default to "always".
"""

from __future__ import annotations

import os
import re
import threading
import time
import zlib
from dataclasses import dataclass
from random import Random
from typing import Optional, Union

#: environment variable holding comma-separated failpoint specs
ENV_VAR = "REPRO_FAILPOINTS"

#: actions understood by payload sites (:func:`mangle`)
MANGLE_ACTIONS = frozenset({"error", "delay", "drop", "truncate",
                            "garble"})

_SPEC_RE = re.compile(
    r"^(?P<name>[A-Za-z0-9_.-]+)"
    r":(?P<action>[a-z]+)"
    r"(?:\((?P<value>[^)]*)\))?"
    r"(?:@(?P<prob>[0-9.]+))?"
    r"(?:x(?P<limit>[0-9]+))?$")


class FailpointError(OSError):
    """The injected failure.  An :class:`OSError` subclass so that
    retry / fallback code paths written for real I/O faults exercise
    under injection without special-casing."""


@dataclass(frozen=True)
class FailpointSpec:
    """One parsed ``name:action[(value)][@prob][xlimit]`` spec."""

    name: str
    action: str
    value: float = 0.0
    probability: float = 1.0
    #: maximum number of firings; 0 = unlimited
    limit: int = 0

    @classmethod
    def parse(cls, text: str) -> "FailpointSpec":
        match = _SPEC_RE.match(text.strip())
        if match is None:
            raise ValueError(f"unparseable failpoint spec {text!r} "
                             f"(want name:action[(value)][@prob]"
                             f"[xlimit])")
        action = match.group("action")
        if action not in MANGLE_ACTIONS:
            raise ValueError(
                f"unknown failpoint action {action!r} in {text!r} "
                f"(known: {', '.join(sorted(MANGLE_ACTIONS))})")
        value = float(match.group("value")) if match.group("value") \
            else 0.0
        probability = float(match.group("prob")) \
            if match.group("prob") else 1.0
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"failpoint probability {probability!r} "
                             f"outside [0, 1] in {text!r}")
        limit = int(match.group("limit")) if match.group("limit") else 0
        return cls(name=match.group("name"), action=action,
                   value=value, probability=probability, limit=limit)


def parse_specs(text: str) -> dict[str, FailpointSpec]:
    """Parse a comma-separated spec list (the ``REPRO_FAILPOINTS``
    payload) into a name -> spec map."""
    specs: dict[str, FailpointSpec] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        spec = FailpointSpec.parse(part)
        specs[spec.name] = spec
    return specs


class _Armed:
    """One configured failpoint: its spec, seeded RNG, fire counter."""

    def __init__(self, spec: FailpointSpec, seed: int) -> None:
        self.spec = spec
        self.rng = Random(seed ^ zlib.crc32(spec.name.encode("utf-8")))
        self.fires = 0

    def should_fire(self) -> bool:
        if self.spec.limit and self.fires >= self.spec.limit:
            return False
        if self.spec.probability < 1.0 \
                and self.rng.random() >= self.spec.probability:
            return False
        return True


#: the active registry; empty == failpoints disabled (the fast path)
_ARMED: dict[str, _Armed] = {}
_LOCK = threading.Lock()


def configure(specs: Union[str, dict[str, FailpointSpec], None],
              seed: int = 0) -> None:
    """Replace the active failpoint set (``None``/empty clears it)."""
    global _ARMED
    if specs is None:
        parsed: dict[str, FailpointSpec] = {}
    elif isinstance(specs, str):
        parsed = parse_specs(specs)
    else:
        parsed = dict(specs)
    with _LOCK:
        _ARMED = {name: _Armed(spec, seed)
                  for name, spec in parsed.items()}


def configure_from_env(environ=None, seed: int = 0) -> bool:
    """Arm failpoints from ``REPRO_FAILPOINTS`` if set; returns
    whether anything was armed.  Unset/empty is a no-op (the registry
    keeps its current state), so library code may call this freely."""
    environ = os.environ if environ is None else environ
    text = environ.get(ENV_VAR, "")
    if not text.strip():
        return False
    configure(text, seed=seed)
    return True


def clear() -> None:
    """Disarm every failpoint (restores the zero-overhead path)."""
    configure(None)


def active() -> bool:
    return bool(_ARMED)


def _evaluate(name: str) -> Optional[FailpointSpec]:
    """Roll the site's spec; returns it if it fires this time."""
    armed = _ARMED.get(name)
    if armed is None:
        return None
    with _LOCK:
        if not armed.should_fire():
            return None
        armed.fires += 1
        return armed.spec


def fire(name: str, sleep=time.sleep) -> Optional[str]:
    """Evaluate a control site.  Returns the action that fired
    (``"drop"`` asks the caller to skip the operation), ``None`` when
    nothing fired; ``error`` raises, ``delay`` sleeps."""
    if not _ARMED:
        return None
    spec = _evaluate(name)
    if spec is None:
        return None
    if spec.action == "error":
        raise FailpointError(f"failpoint {name!r}: injected error")
    if spec.action == "delay":
        sleep(spec.value)
        return "delay"
    return spec.action


def mangle(name: str, payload: bytes,
           sleep=time.sleep) -> Optional[bytes]:
    """Evaluate a payload site.  Returns the (possibly mutated)
    payload, or ``None`` when the payload should be dropped;
    ``error`` raises, ``delay`` sleeps and passes through."""
    if not _ARMED:
        return payload
    armed = _ARMED.get(name)
    if armed is None:
        return payload
    with _LOCK:
        if not armed.should_fire():
            return payload
        armed.fires += 1
        spec = armed.spec
        # draw corruption parameters under the lock so concurrent
        # sites keep the per-failpoint RNG stream deterministic
        garble_at = armed.rng.randrange(len(payload)) if payload \
            and spec.action == "garble" else 0
    if spec.action == "error":
        raise FailpointError(f"failpoint {name!r}: injected error")
    if spec.action == "delay":
        sleep(spec.value)
        return payload
    if spec.action == "drop":
        return None
    if spec.action == "truncate":
        keep = int(spec.value) if spec.value else len(payload) // 2
        return payload[:max(0, keep)]
    if not payload:
        return payload
    garbled = bytearray(payload)
    garbled[garble_at] ^= 0xFF
    return bytes(garbled)
