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
from repro.errors import ReproError
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


def _decode_value(doc: Any) -> Any:
    if isinstance(doc, dict):
        name = doc.get("__type__")
        if not isinstance(name, str) or name not in CONFIG_CLASSES:
            raise ServiceError(
                ERR_BAD_REQUEST, f"unknown configuration class tag {name!r}"
            )
        cls: Type[Any] = CONFIG_CLASSES[name]
        known = field_names(cls) or ()
        kwargs = {
            key: _decode_value(value)
            for key, value in doc.items()
            if key != "__type__" and key in known
        }
        try:
            return cls(**kwargs)
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
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


#: The wire-field manifest: the deliberate, reviewed record of every
#: ``(field, declared type)`` each registered class ships on the wire.
#: ``_encode_value`` walks ``dataclasses.fields`` generically, so the
#: *code* cannot drift — this table is the second, independently
#: maintained description that ``repro analyze`` (RPR102) statically
#: diffs against the real dataclass definitions.  Adding, renaming, or
#: retyping a config field without updating this manifest (and bumping
#: :data:`PROTOCOL_VERSION` when the wire shape changes) fails CI.
WIRE_FIELDS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "AdaptiveConfig": (
        ("target_rate", "float"),
        ("band", "float"),
        ("initial_bound", "int"),
        ("min_bound", "int"),
        ("max_bound", "int"),
        ("adjust_period", "int"),
        ("increase_step", "int"),
        ("decrease_factor", "float"),
    ),
    "AdaptiveQuantumConfig": (
        ("initial_quantum", "int"),
        ("min_quantum", "int"),
        ("max_quantum", "int"),
        ("low_traffic", "float"),
        ("high_traffic", "float"),
        ("adjust_period", "int"),
    ),
    "BusConfig": (
        ("request_cycles", "int"),
        ("response_cycles", "int"),
        ("arbitration_latency", "int"),
    ),
    "CacheConfig": (
        ("size", "int"),
        ("line_size", "int"),
        ("associativity", "int"),
        ("hit_latency", "int"),
    ),
    "CheckpointConfig": (("interval", "int"),),
    "CoreConfig": (
        ("issue_width", "int"),
        ("window_size", "int"),
        ("num_mshrs", "int"),
        ("int_alu_latency", "int"),
        ("mul_latency", "int"),
        ("fp_latency", "int"),
        ("fdiv_latency", "int"),
        ("model_icache", "bool"),
        ("code_footprint", "int"),
        ("instruction_bytes", "int"),
    ),
    "DramConfig": (
        ("num_banks", "int"),
        ("row_bytes", "int"),
        ("row_hit_latency", "int"),
        ("row_miss_latency", "int"),
        ("bank_busy_cycles", "int"),
    ),
    "HostConfig": (
        ("num_contexts", "int"),
        ("cost", "HostCostModel"),
        ("seed", "int"),
        ("max_batch_cycles", "int"),
        ("max_stall_batch", "int"),
        ("manager_poll_ns", "float"),
        ("manager_migrates", "bool"),
        ("num_submanagers", "int"),
    ),
    "HostCostModel": (
        ("core_cycle_ns", "float"),
        ("stall_cycle_ns", "float"),
        ("per_instruction_ns", "float"),
        ("per_mem_event_ns", "float"),
        ("slack_check_ns", "float"),
        ("manager_cycle_ns", "float"),
        ("per_gq_event_ns", "float"),
        ("adaptive_adjust_ns", "float"),
        ("violation_tracking_ns", "float"),
        ("barrier_ns", "float"),
        ("wake_latency_ns", "float"),
        ("context_switch_ns", "float"),
        ("checkpoint_base_ns", "float"),
        ("checkpoint_per_page_ns", "float"),
        ("rollback_ns", "float"),
        ("jitter_frac", "float"),
    ),
    "L2Config": (
        ("cache", "CacheConfig"),
        ("num_banks", "int"),
        ("miss_latency", "int"),
        ("dram", "Optional[object]"),
    ),
    "MemoryConfig": (("page_size", "int"),),
    "P2PConfig": (("period", "int"), ("max_lead", "int")),
    "QuantumConfig": (("quantum", "int"),),
    "SlackConfig": (("bound", "Optional[int]"),),
    "SpeculativeConfig": (
        ("base", "SchemeConfig"),
        ("checkpoint", "CheckpointConfig"),
        ("tracked", "Tuple[str, ...]"),
    ),
    "TargetConfig": (
        ("num_cores", "int"),
        ("core", "CoreConfig"),
        ("l1i", "CacheConfig"),
        ("l1d", "CacheConfig"),
        ("bus", "BusConfig"),
        ("l2", "L2Config"),
        ("memory", "MemoryConfig"),
    ),
    "RunSpec": (
        ("benchmark", "str"),
        ("scheme", "SchemeConfig"),
        ("scale", "float"),
        ("checkpoint", "Optional[CheckpointConfig]"),
        ("detection", "bool"),
        ("seed", "int"),
        ("num_threads", "int"),
        ("target", "TargetConfig"),
        ("host", "HostConfig"),
    ),
}


def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    """Render a fully-resolved :class:`RunSpec` as a plain JSON object."""
    doc: Dict[str, Any] = {}
    for name, _, _ in _SPEC_FIELDS:
        doc[name] = _encode_value(getattr(spec, name))
    doc["scale"] = float(spec.scale)
    return doc


def spec_from_wire(doc: Mapping[str, Any]) -> RunSpec:
    """Rebuild the exact :class:`RunSpec` a client encoded.

    Raises :class:`ServiceError` (``BAD_REQUEST``) on missing fields,
    wrong JSON kinds, unknown configuration tags, or values the
    configuration classes themselves reject.
    """
    if not isinstance(doc, Mapping):
        raise ServiceError(ERR_BAD_REQUEST, "spec must be a JSON object")
    kwargs: Dict[str, Any] = {}
    for name, kinds, is_config in _SPEC_FIELDS:
        if name not in doc:
            raise ServiceError(ERR_BAD_REQUEST, f"spec is missing field {name!r}")
        value = doc[name]
        if not isinstance(value, kinds) or (
            isinstance(value, bool) and bool not in kinds
        ):
            raise ServiceError(
                ERR_BAD_REQUEST,
                f"spec field {name!r} has wrong type {type(value).__name__}",
            )
        kwargs[name] = _decode_value(value) if is_config else value
    kwargs["scale"] = float(kwargs["scale"])
    try:
        return RunSpec(**kwargs)
    except ReproError:
        raise
    except (TypeError, ValueError) as exc:
        raise ServiceError(ERR_BAD_REQUEST, f"invalid spec: {exc}") from exc
