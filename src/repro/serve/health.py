"""Per-engine health tracking: circuit breaker + exponential backoff.

The :class:`~repro.serve.router.ModelRouter` keeps one
:class:`EngineHealth` per mounted engine and feeds it step outcomes.
Health walks a three-state ladder driven by *consecutive* failures:

``healthy``
    steps run normally.
``degraded``
    at least ``degraded_after`` consecutive failures; the router skips
    the engine until an exponential backoff window (``backoff_base`` ·
    ``backoff_factor``^(failures-1), capped at ``max_backoff``) has
    passed, then retries — transient faults recover here and a single
    success snaps the engine back to ``healthy``.
``quarantined``
    ``quarantine_after`` consecutive failures; the circuit is open.
    The router immediately re-routes the engine's waiting work to the
    configured fallback model (or fails it fast with a typed
    ``engine_error``) and fast-rejects new submissions — quarantined
    work is never silently stalled.  With a ``cooldown`` configured
    the engine is let back in as ``degraded`` (half-open probe) after
    the cooldown elapses.

The tracker is pure bookkeeping over an injected clock, so chaos tests
drive it deterministically with virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass

HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"


@dataclass(frozen=True)
class HealthPolicy:
    """Circuit-breaker thresholds and retry backoff schedule."""

    degraded_after: int = 1        # consecutive failures -> degraded
    quarantine_after: int = 3      # consecutive failures -> quarantined
    backoff_base: float = 0.01     # seconds before the first retry
    backoff_factor: float = 2.0    # growth per consecutive failure
    max_backoff: float = 1.0       # backoff ceiling, seconds
    cooldown: float | None = None  # quarantine -> half-open probe delay
                                   # (None: quarantine is terminal)

    def __post_init__(self):
        if self.degraded_after < 1:
            raise ValueError("degraded_after must be >= 1")
        if self.quarantine_after < self.degraded_after:
            raise ValueError("quarantine_after must be >= degraded_after")
        if self.backoff_base < 0 or self.max_backoff < 0:
            raise ValueError("backoff times must be >= 0")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, consecutive_failures: int) -> float:
        """Retry delay after the N-th consecutive failure (N >= 1)."""
        delay = (self.backoff_base
                 * self.backoff_factor ** (consecutive_failures - 1))
        return min(delay, self.max_backoff)


class EngineHealth:
    """One engine's health state machine."""

    def __init__(self, policy: HealthPolicy | None = None):
        self.policy = policy or HealthPolicy()
        self.consecutive_failures = 0
        self.total_failures = 0
        self.retry_at: float | None = None   # backoff gate (degraded)
        self.quarantined_at: float | None = None
        self.last_error: Exception | None = None

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        if self.quarantined_at is not None:
            return QUARANTINED
        if self.consecutive_failures >= self.policy.degraded_after:
            return DEGRADED
        return HEALTHY

    @property
    def quarantined(self) -> bool:
        return self.quarantined_at is not None

    def ready(self, now: float) -> bool:
        """May the router step this engine right now?  Quarantined
        engines are never stepped; degraded engines wait out their
        backoff window."""
        if self.quarantined:
            return False
        return self.retry_at is None or now >= self.retry_at

    def probe_due(self, now: float) -> bool:
        """Quarantine cooldown has elapsed: let the engine back in as
        a half-open probe (one failure re-quarantines it)."""
        return (self.quarantined
                and self.policy.cooldown is not None
                and now >= self.quarantined_at + self.policy.cooldown)

    # -- transitions ----------------------------------------------------
    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.retry_at = None
        self.last_error = None

    def record_failure(self, now: float,
                       error: Exception | None = None) -> str:
        """One failed step; returns the resulting state."""
        self.consecutive_failures += 1
        self.total_failures += 1
        self.last_error = error
        if self.consecutive_failures >= self.policy.quarantine_after:
            self.quarantined_at = now
            self.retry_at = None
        else:
            self.retry_at = now + self.policy.backoff(
                self.consecutive_failures)
        return self.state

    def reinstate(self) -> None:
        """Half-open probe admission: back to degraded with one strike
        left before re-quarantine."""
        self.quarantined_at = None
        self.consecutive_failures = max(self.policy.quarantine_after - 1,
                                        0)
        self.retry_at = None
