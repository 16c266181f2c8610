"""Admission control: per-tenant token buckets + queue-depth shedding.

The front end cannot let one hot tenant starve the fleet (the zipf soak
exists precisely to try).  Two independent mechanisms gate every
request:

* a per-tenant :class:`TokenBucket` — sustained rate plus a burst
  allowance, refilled in *service time* so admission decisions are a
  pure function of the request schedule (deterministic replay);
* queue-depth backpressure — a request aimed at a shard whose queue is
  already ``max_queue_depth`` deep is shed rather than buffered without
  bound (incast protection).

Rejections are cheap and visible: they complete immediately with
``outcome="rejected"`` and a reason, and the controller keeps per-tenant
admit/reject counts so the telemetry layer can report fairness over
*offered* as well as *served* load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..analysis.trends import jain_index
from ..errors import ConfigError

#: Rejection reasons.
REASON_THROTTLED = "throttled"
REASON_BACKPRESSURE = "backpressure"
REASON_SHUTDOWN = "shutdown"
#: Refused by the shard after admission: a new tenant whose buffers its
#: RAM cannot hold.
REASON_SHARD_FULL = "shard-full"


@dataclass
class TokenBucket:
    """A token bucket over service-time seconds.

    Attributes:
        rate: tokens added per second of service time.
        burst: bucket capacity (also the initial fill).
    """

    rate: float
    burst: float
    tokens: float = field(init=False)
    _last: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ConfigError(f"rate must be positive, got {self.rate}")
        if self.burst < 1.0:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")
        self.tokens = self.burst

    def refill(self, now_s: float) -> None:
        """Accrue tokens for the service time elapsed since last refill."""
        if now_s > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now_s - self._last) * self.rate)
            self._last = now_s

    def take(self, now_s: float) -> bool:
        """Consume one token if available; False means throttled."""
        self.refill(now_s)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Admit or shed requests; keep the fairness ledger.

    Args:
        rate: per-tenant sustained request rate (requests per second of
            service time).
        burst: per-tenant burst allowance.
        max_queue_depth: per-shard queue bound; deeper queues shed.
    """

    def __init__(self, rate: float = 5.0, burst: float = 10.0,
                 max_queue_depth: int = 64) -> None:
        if max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}")
        self.rate = rate
        self.burst = burst
        self.max_queue_depth = max_queue_depth
        self._buckets: Dict[str, TokenBucket] = {}
        self.admitted: Dict[str, int] = {}
        self.rejected: Dict[str, int] = {}
        self.rejections_by_reason: Dict[str, int] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        """The tenant's bucket (created on first sight)."""
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(rate=self.rate, burst=self.burst)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, now_s: float,
              queue_depth: int) -> Tuple[bool, Optional[str]]:
        """Decide one request.

        Returns:
            ``(True, None)`` when admitted; ``(False, reason)`` when
            shed.  Backpressure is checked first — a full shard sheds
            even compliant tenants, but without charging their bucket.
        """
        if queue_depth >= self.max_queue_depth:
            self._reject(tenant, REASON_BACKPRESSURE)
            return False, REASON_BACKPRESSURE
        if not self.bucket(tenant).take(now_s):
            self._reject(tenant, REASON_THROTTLED)
            return False, REASON_THROTTLED
        self.admitted[tenant] = self.admitted.get(tenant, 0) + 1
        return True, None

    def _reject(self, tenant: str, reason: str) -> None:
        self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
        self.rejections_by_reason[reason] = (
            self.rejections_by_reason.get(reason, 0) + 1)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    @property
    def total_admitted(self) -> int:
        """Requests admitted so far."""
        return sum(self.admitted.values())

    @property
    def total_rejected(self) -> int:
        """Requests shed so far."""
        return sum(self.rejected.values())

    def admitted_fairness(self) -> float:
        """Jain index over per-tenant admitted counts."""
        return jain_index(list(self.admitted.values()))

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready admission summary."""
        return {
            "admitted": self.total_admitted,
            "rejected": self.total_rejected,
            "by_reason": dict(sorted(self.rejections_by_reason.items())),
            "tenants_seen": len(self._buckets),
            "admitted_fairness": self.admitted_fairness(),
        }
