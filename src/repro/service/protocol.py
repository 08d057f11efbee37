"""Versioned newline-delimited-JSON protocol for the simulation service.

One request per line, one response per line, UTF-8 JSON with no embedded
newlines.  Every request carries the protocol version and an operation::

    {"v": 1, "op": "submit", "spec": {...}, "priority": 5}
    {"v": 1, "op": "status", "job_id": "j-3"}

Every response echoes the version and reports success explicitly::

    {"v": 1, "ok": true, "op": "submit", "job_id": "j-3", "state": "queued"}
    {"v": 1, "ok": false, "op": "submit",
     "error": {"code": "QUEUE_FULL", "message": "...", "details": {...}}}

Operations (:data:`OPS`): ``submit``, ``status``, ``result``, ``cancel``,
``jobs``, ``drain``, ``health``.  The fabric coordinator additionally
speaks :data:`FABRIC_OPS` (``register``, ``heartbeat``, ``deregister``,
``steal``, ``fabric``) — the worker-fleet control plane introduced with
protocol version 2.  Version 2 is a strict superset of version 1: every
v1 request is still accepted (see :data:`SUPPORTED_VERSIONS`), so old
clients keep working against new daemons.  Error codes are structured
and stable (:data:`ERROR CODES <ERR_QUEUE_FULL>`): clients branch on
``error.code``, never on message text.

The module also owns the :class:`~repro.harness.cache.RunSpec` wire codec
(:func:`spec_to_wire` / :func:`spec_from_wire`).  Configurations are
nested frozen dataclasses; each is rendered as a JSON object tagged with
its class name so the decode side can rebuild the exact value.  The
round-trip is exact (JSON floats round-trip binary64 bit-for-bit, arrays
come back as tuples), which is what makes the service's digest contract
— a report fetched over the wire is byte-identical to a local
``repro run`` of the same spec — reduce to determinism of the engine.

The dataclasses are the wire contract: both directions walk
``dataclasses.fields``, and the decoder requires every object to carry
exactly its class's fields (the spec exactly :class:`RunSpec`'s), so a
misspelled, extra or missing field is ``BAD_REQUEST`` rather than a
silently dropped or defaulted one.  The tests round-trip every class in
:data:`CONFIG_CLASSES`, the decode allowlist.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from repro.config import (
    AdaptiveConfig,
    AdaptiveQuantumConfig,
    BusConfig,
    CacheConfig,
    CheckpointConfig,
    CoreConfig,
    HostConfig,
    HostCostModel,
    L2Config,
    MemoryConfig,
    P2PConfig,
    QuantumConfig,
    SlackConfig,
    SpeculativeConfig,
    TargetConfig,
)
from repro.errors import ConfigError, ReproError
from repro.harness.cache import RunSpec, field_names
from repro.memory.dram import DramConfig

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "OPS",
    "FABRIC_OPS",
    "ERR_BAD_REQUEST",
    "ERR_CANCELLED",
    "ERR_DRAINING",
    "ERR_INTERNAL",
    "ERR_NOT_CANCELLABLE",
    "ERR_NOT_READY",
    "ERR_QUEUE_FULL",
    "ERR_RESULT_EVICTED",
    "ERR_SIMULATION_FAILED",
    "ERR_TIMEOUT",
    "ERR_UNAVAILABLE",
    "ERR_UNKNOWN_JOB",
    "ERR_UNKNOWN_WORKER",
    "ERR_UNSUPPORTED",
    "ERR_WORKER_CRASHED",
    "ServiceError",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "spec_from_wire",
    "spec_to_wire",
]

#: Bumped whenever a request or response field changes meaning or shape.
#: v2 added the fabric control plane (:data:`FABRIC_OPS`) without touching
#: any v1 field, so both versions are accepted.
PROTOCOL_VERSION = 2

#: Request versions a daemon answers (newest first in error details).
SUPPORTED_VERSIONS = (2, 1)

#: The operations every service daemon (a plain worker) accepts.
OPS = ("submit", "status", "result", "cancel", "jobs", "drain", "health")

#: Coordinator-only operations: worker registration/liveness, work
#: stealing, and the fleet status document.  A plain worker rejects these
#: with ``BAD_REQUEST`` exactly as it rejects any unknown op.
FABRIC_OPS = ("register", "heartbeat", "deregister", "steal", "fabric")

# Structured error codes.  Stable API: clients branch on these.
ERR_BAD_REQUEST = "BAD_REQUEST"  # malformed JSON / unknown op / bad spec
ERR_QUEUE_FULL = "QUEUE_FULL"  # admission control: past the high-water mark
ERR_DRAINING = "DRAINING"  # server no longer accepts submissions
ERR_UNKNOWN_JOB = "UNKNOWN_JOB"  # job id not in the store
ERR_UNKNOWN_WORKER = "UNKNOWN_WORKER"  # heartbeat/steal from an unregistered worker
ERR_CANCELLED = "CANCELLED"  # result requested for a cancelled job
ERR_NOT_CANCELLABLE = "NOT_CANCELLABLE"  # job already running or terminal
ERR_NOT_READY = "NOT_READY"  # result requested before the job finished
ERR_TIMEOUT = "TIMEOUT"  # job exceeded its wall-time limit
ERR_WORKER_CRASHED = "WORKER_CRASHED"  # retries exhausted on worker crash
ERR_SIMULATION_FAILED = "SIMULATION_FAILED"  # deterministic engine error
ERR_RESULT_EVICTED = "RESULT_EVICTED"  # report pruned from the cache
ERR_UNAVAILABLE = "UNAVAILABLE"  # client-side: cannot reach the daemon
ERR_UNSUPPORTED = "UNSUPPORTED"  # protocol version mismatch
ERR_INTERNAL = "INTERNAL"  # unexpected server-side failure


class ServiceError(ReproError):
    """A structured error reported by the service (or raised client-side).

    ``code`` is one of the ``ERR_*`` constants; ``details`` carries
    machine-readable context (queue depths, job ids, available capacity).
    """

    def __init__(
        self, code: str, message: str, details: Optional[Mapping[str, Any]] = None
    ) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.details: Dict[str, Any] = dict(details or {})


# --------------------------------------------------------------------- #
# Line framing
# --------------------------------------------------------------------- #


def encode_line(doc: Mapping[str, Any]) -> bytes:
    """One protocol message as a newline-terminated UTF-8 JSON line."""
    return (
        json.dumps(doc, separators=(",", ":"), sort_keys=False) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one protocol line; raise :class:`ServiceError` on garbage."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError(ERR_BAD_REQUEST, f"undecodable protocol line: {exc}") from exc
    if not isinstance(doc, dict):
        raise ServiceError(ERR_BAD_REQUEST, "protocol message must be a JSON object")
    return doc


def ok_response(op: str, **fields: Any) -> Dict[str, Any]:
    """A success response envelope."""
    doc: Dict[str, Any] = {"v": PROTOCOL_VERSION, "ok": True, "op": op}
    doc.update(fields)
    return doc


def error_response(
    op: str, code: str, message: str, details: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """A failure response envelope with a structured error object."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if details:
        error["details"] = dict(details)
    return {"v": PROTOCOL_VERSION, "ok": False, "op": op, "error": error}


# --------------------------------------------------------------------- #
# RunSpec wire codec
# --------------------------------------------------------------------- #

#: Every configuration dataclass that may appear inside a RunSpec.  The
#: wire form tags values with the class name, so this registry is the
#: complete set of types the decoder will instantiate (never arbitrary
#: classes — the service does not unpickle anything).
CONFIG_CLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        AdaptiveConfig,
        AdaptiveQuantumConfig,
        BusConfig,
        CacheConfig,
        CheckpointConfig,
        CoreConfig,
        DramConfig,
        HostConfig,
        HostCostModel,
        L2Config,
        MemoryConfig,
        P2PConfig,
        QuantumConfig,
        SlackConfig,
        SpeculativeConfig,
        TargetConfig,
    )
}

_SCALARS = (bool, int, float, str)


def _encode_value(value: Any) -> Any:
    fields = field_names(type(value))
    if fields is not None:
        name = type(value).__name__
        if name not in CONFIG_CLASSES:
            raise ServiceError(
                ERR_BAD_REQUEST, f"unregistered configuration class {name!r}"
            )
        doc: Dict[str, Any] = {"__type__": name}
        for field in fields:
            doc[field] = _encode_value(getattr(value, field))
        return doc
    if value is None or isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    raise ServiceError(
        ERR_BAD_REQUEST,
        f"value of type {type(value).__name__} has no wire representation",
    )


def _check_keys(owner: str, doc: Mapping[str, Any], expected: Tuple[str, ...]) -> None:
    """``doc`` must carry exactly ``expected``: an unknown key would be
    dropped and a missing one defaulted, each a run of a configuration
    nobody asked for."""
    for key in doc:
        if key not in expected:
            raise ServiceError(ERR_BAD_REQUEST, f"{owner} has unknown field {key!r}")
    for key in expected:
        if key not in doc:
            raise ServiceError(ERR_BAD_REQUEST, f"{owner} is missing field {key!r}")


def _decode_value(doc: Any) -> Any:
    if isinstance(doc, dict):
        name = doc.get("__type__")
        if not isinstance(name, str) or name not in CONFIG_CLASSES:
            raise ServiceError(
                ERR_BAD_REQUEST, f"unknown configuration class tag {name!r}"
            )
        cls: Type[Any] = CONFIG_CLASSES[name]
        fields = field_names(cls) or ()
        _check_keys(name, doc, ("__type__",) + fields)
        kwargs = {key: _decode_value(doc[key]) for key in fields}
        try:
            return cls(**kwargs)
        except (ConfigError, TypeError, ValueError) as exc:
            raise ServiceError(ERR_BAD_REQUEST, f"invalid {name} payload: {exc}") from exc
    if isinstance(doc, list):
        # Config dataclasses only hold tuples (frozen/hashable); JSON has
        # no tuple, so every array decodes back to one.
        return tuple(_decode_value(v) for v in doc)
    if doc is None or isinstance(doc, _SCALARS):
        return doc
    raise ServiceError(
        ERR_BAD_REQUEST, f"undecodable wire value of type {type(doc).__name__}"
    )


#: RunSpec fields in wire order: (name, required JSON kinds, decode-config?)
_SPEC_FIELDS: Tuple[Tuple[str, Tuple[type, ...], bool], ...] = (
    ("benchmark", (str,), False),
    ("scheme", (dict,), True),
    ("scale", (int, float), False),
    ("checkpoint", (dict, type(None)), True),
    ("detection", (bool,), False),
    ("seed", (int,), False),
    ("num_threads", (int,), False),
    ("target", (dict,), True),
    ("host", (dict,), True),
)


def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    """Render a fully-resolved :class:`RunSpec` as a plain JSON object."""
    doc: Dict[str, Any] = {}
    for name, _, _ in _SPEC_FIELDS:
        doc[name] = _encode_value(getattr(spec, name))
    doc["scale"] = float(spec.scale)
    return doc


def spec_from_wire(doc: Mapping[str, Any]) -> RunSpec:
    """Rebuild the exact :class:`RunSpec` a client encoded.

    Raises :class:`ServiceError` (``BAD_REQUEST``) on unknown or missing
    fields, wrong JSON kinds, unknown configuration tags, or values the
    configuration classes (and :class:`RunSpec`) themselves reject.
    """
    if not isinstance(doc, Mapping):
        raise ServiceError(ERR_BAD_REQUEST, "spec must be a JSON object")
    _check_keys("spec", doc, field_names(RunSpec) or ())
    kwargs: Dict[str, Any] = {}
    for name, kinds, is_config in _SPEC_FIELDS:
        value = doc[name]
        if not isinstance(value, kinds) or (
            isinstance(value, bool) and bool not in kinds
        ):
            raise ServiceError(
                ERR_BAD_REQUEST,
                f"spec field {name!r} has wrong type {type(value).__name__}",
            )
        kwargs[name] = _decode_value(value) if is_config else value
    try:
        kwargs["scale"] = float(kwargs["scale"])
        return RunSpec(**kwargs)
    except (ConfigError, OverflowError) as exc:
        raise ServiceError(ERR_BAD_REQUEST, f"invalid spec: {exc}") from exc
