"""Request and completion types of the always-on DMA service.

A :class:`Request` is what a tenant submits (over the in-process API or
the ``repro serve`` JSON-lines socket); a :class:`Completion` is what
comes back.  Both are plain dataclasses with ``to_dict`` renderings so
the front end can speak JSON without a serialization layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import ConfigError, ObservabilityError
from ..obs.context import TraceContext

#: Operation kinds a shard can execute.
KIND_DMA = "dma"
KIND_ATOMIC = "atomic"
KIND_MESSAGE = "message"
REQUEST_KINDS = (KIND_DMA, KIND_ATOMIC, KIND_MESSAGE)

#: Completion outcomes, roughly ordered from best to worst.
OUTCOME_COMPLETED = "completed"
OUTCOME_RETRIED = "retried"
OUTCOME_FELL_BACK = "fell-back"
OUTCOME_ABORTED = "aborted"
OUTCOME_WRONG_DATA = "wrong-data"
OUTCOME_REJECTED = "rejected"

#: Largest single transfer (one page — the page-bounded engine's limit).
#: A wire request asking for more is refused; an in-process request is
#: clamped to it by the shard.
MAX_TRANSFER_BYTES = 4096
#: Longest tenant name a wire request may carry.  Every name is kept
#: for the life of the service (its process, its counters), so a
#: client must not choose how much memory one costs.
MAX_TENANT_NAME = 64

#: Wire-format fields: the exact JSON types each accepts (so a JSON
#: ``true`` is never an integer) and how an error message names them.
_WIRE_FIELDS: Dict[str, Tuple[Tuple[type, ...], str]] = {
    "tenant": ((str,), "a string"),
    "kind": ((str,), "a string"),
    "size": ((int,), "an integer"),
    "hot": ((bool,), "a boolean"),
    "shard": ((int, type(None)), "an integer or null"),
    "tick": ((int,), "an integer"),
    "req_id": ((int,), "an integer"),
    "trace": ((dict,), "an object"),
}


@dataclass(frozen=True, slots=True)
class Request:
    """One tenant operation.

    Attributes:
        tenant: tenant name (stable across the service's lifetime; the
            shard mapping hashes it).
        kind: ``"dma"`` (default), ``"atomic"``, or ``"message"``.
        size: payload bytes for DMA/message requests (capped by the
            shard's buffer geometry); ignored for atomics.
        hot: target the shard's shared hot-receiver buffer instead of
            the tenant's private destination — the skewed-traffic knob.
        shard: route to this shard index instead of the tenant-hash
            shard (incast bursts aim many tenants at one shard).
        tick: submit time in service ticks (filled by the driver).
        req_id: unique id within one service lifetime.
        trace: the distributed-tracing context (minted at admission if
            the client did not send one) — every span this request
            touches, in any process, carries its ``trace_id``.
    """

    tenant: str
    kind: str = KIND_DMA
    size: int = 1024
    hot: bool = False
    shard: Optional[int] = None
    tick: int = 0
    req_id: int = 0
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ConfigError(f"unknown request kind {self.kind!r}")
        if self.size <= 0:
            raise ConfigError(f"size must be positive, got {self.size}")
        if not self.tenant:
            raise ConfigError("tenant name must be non-empty")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering."""
        out: Dict[str, Any] = {
            "tenant": self.tenant, "kind": self.kind,
            "size": self.size, "hot": self.hot, "shard": self.shard,
            "tick": self.tick, "req_id": self.req_id}
        if self.trace is not None:
            out["trace"] = self.trace.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: Any) -> "Request":
        """Parse a request object (the ``repro serve`` wire format).

        Raises:
            ConfigError: for a non-object, a missing tenant, an unknown
                or mistyped field, a size over
                :data:`MAX_TRANSFER_BYTES`, a tenant name over
                :data:`MAX_TENANT_NAME` characters, or a malformed
                trace context.
        """
        if not isinstance(data, dict):
            raise ConfigError("a request must be a JSON object")
        unknown = data.keys() - _WIRE_FIELDS.keys()
        if unknown:
            raise ConfigError(f"unknown request field(s): {sorted(unknown)}")
        if "tenant" not in data:
            raise ConfigError("request needs a 'tenant'")
        for name, value in data.items():
            types, expected = _WIRE_FIELDS[name]
            if type(value) not in types:
                raise ConfigError(f"request field {name!r} must be "
                                  f"{expected}, got {type(value).__name__}")
        if data.get("size", 0) > MAX_TRANSFER_BYTES:
            raise ConfigError(f"size must be at most {MAX_TRANSFER_BYTES} "
                              f"bytes, got {data['size']}")
        if len(data["tenant"]) > MAX_TENANT_NAME:
            raise ConfigError(f"tenant name must be at most "
                              f"{MAX_TENANT_NAME} characters, got "
                              f"{len(data['tenant'])}")
        kwargs = dict(data)
        if "trace" in kwargs:
            try:
                kwargs["trace"] = TraceContext.from_dict(kwargs["trace"])
            except (ObservabilityError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad trace context: {exc}") from exc
        return cls(**kwargs)


@dataclass(frozen=True, slots=True)
class Completion:
    """The outcome of one request.

    Attributes:
        request: the request this answers.
        ok: whether the operation ultimately succeeded *and* moved the
            right bytes.
        outcome: one of the OUTCOME_* strings.
        latency_us: simulated time the operation occupied its shard,
            in microseconds (0 for rejections).
        attempts: initiation attempts (retries + fallback included).
        fell_back: degraded to the kernel syscall path.
        shard: shard index that executed (or would have executed) it.
        bytes_moved: payload bytes landed (0 unless ``ok``).
        reason: rejection reason for ``outcome == "rejected"``.
    """

    request: Request
    ok: bool
    outcome: str
    latency_us: float = 0.0
    attempts: int = 0
    fell_back: bool = False
    shard: int = -1
    bytes_moved: int = 0
    reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready rendering (request inlined)."""
        out: Dict[str, Any] = {
            "tenant": self.request.tenant,
            "kind": self.request.kind,
            "req_id": self.request.req_id,
            "ok": self.ok,
            "outcome": self.outcome,
            "latency_us": round(self.latency_us, 3),
            "attempts": self.attempts,
            "fell_back": self.fell_back,
            "shard": self.shard,
            "bytes_moved": self.bytes_moved,
        }
        if self.reason is not None:
            out["reason"] = self.reason
        if self.request.trace is not None:
            out["trace_id"] = self.request.trace.trace_id
        return out
