"""SLO-driven replica autoscaling.

The autoscaler is a pure policy: given the fleet's live primary SLO window
for one model (the :meth:`~repro.telemetry.obs.RollingWindow.summary` dict)
and the current target replica count, it returns a scaling
:class:`Decision`.  The :class:`~repro.fleet.fleet.Fleet` enacts decisions
— spawning or draining replicas — on its health-loop tick, so the policy
itself is deterministic and unit-testable without any threads.

The two signals, both derived from the window rather than raw utilisation
(utilisation lies under batching; the SLO is what the operator promised):

* **error-budget burn** — ``bad_rate / (1 - slo_target)``.  Burn > 1 means
  the window is eating budget faster than the SLO allows; sustained burn
  above ``scale_out_burn`` adds a replica.  Burn below ``scale_in_burn``
  with p99 comfortably inside the deadline removes one.
* **p99 vs deadline** — scale-in is additionally gated on
  ``p99 <= p99_budget_fraction * deadline`` so a fleet that is meeting its
  budget only because traffic is light does not shrink into a latency
  cliff the moment load returns.

Cooldowns (separate for out and in, in is slower) prevent flapping, and
``min_replicas``/``max_replicas`` bound the group.  Scale-out is
deliberately twitchier than scale-in: adding a replica is cheap, a
brown-out is not.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import telemetry

#: decision kinds
HOLD = "hold"
SCALE_OUT = "scale_out"
SCALE_IN = "scale_in"


@dataclass(frozen=True)
class AutoscalePolicy:
    """Bounds and thresholds for one replica group."""

    min_replicas: int = 1
    max_replicas: int = 8
    scale_out_burn: float = 1.0    #: burn >= this -> add a replica
    scale_in_burn: float = 0.2    #: burn <= this (and p99 ok) -> remove one
    #: scale-in also requires ``p99 <= this fraction * deadline``
    p99_budget_fraction: float = 0.5
    scale_out_cooldown_s: float = 5.0
    scale_in_cooldown_s: float = 15.0
    #: ignore windows with fewer observations than this (cold start / lull)
    min_window_requests: int = 20

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.scale_in_burn >= self.scale_out_burn:
            raise ValueError("scale_in_burn must be < scale_out_burn "
                             "(hysteresis band)")


@dataclass
class Decision:
    """One autoscaler verdict (kept in the fleet's scaling history)."""

    model: str
    action: str                    #: ``hold`` | ``scale_out`` | ``scale_in``
    current: int
    target: int
    reason: str
    burn: float = 0.0
    p99_ms: float = 0.0
    requests: int = 0
    ts: float = field(default_factory=time.time)

    def to_json(self) -> Dict:
        return {"model": self.model, "action": self.action,
                "current": self.current, "target": self.target,
                "reason": self.reason, "burn": self.burn,
                "p99_ms": self.p99_ms, "requests": self.requests,
                "ts": self.ts}


class Autoscaler:
    """Stateful wrapper: policy + cooldown clocks + decision history."""

    #: decisions kept, newest last
    HISTORY_SIZE = 256

    def __init__(self, policy: Optional[AutoscalePolicy] = None,
                 clock=time.monotonic):
        self.policy = policy or AutoscalePolicy()
        self._clock = clock
        self._last_out: Dict[str, float] = {}
        self._last_in: Dict[str, float] = {}
        self._history: List[Decision] = []

    def history(self, model: Optional[str] = None) -> List[Decision]:
        if model is None:
            return list(self._history)
        return [d for d in self._history if d.model == model]

    def tick(self, model: str, summary: Dict, current: int,
             deadline_s: float) -> Decision:
        """Evaluate one model's window; returns the (clamped) decision.

        ``summary`` is the fleet's *primary* window summary — shadow and
        canary accounting never feed scaling, so a misbehaving candidate
        cannot stampede the stable group.
        """
        pol = self.policy
        now = self._clock()
        slo = summary.get("slo") or {}
        burn = float(slo.get("error_budget_burn", 0.0))
        p99_ms = float((summary.get("latency_ms") or {}).get("p99", 0.0))
        requests = int(summary.get("requests", 0))

        def decide(action: str, target: int, reason: str) -> Decision:
            target = max(pol.min_replicas, min(pol.max_replicas, target))
            if target == current:
                action = HOLD
            d = Decision(model=model, action=action, current=current,
                         target=target, reason=reason, burn=burn,
                         p99_ms=p99_ms, requests=requests)
            self._history.append(d)
            del self._history[:-self.HISTORY_SIZE]
            if action != HOLD:
                telemetry.emit("fleet_autoscale", model=model, action=action,
                               current=current, target=target, burn=burn,
                               p99_ms=p99_ms, reason=reason)
            return d

        if current < pol.min_replicas:
            return decide(SCALE_OUT, pol.min_replicas, "below min_replicas")
        if current > pol.max_replicas:
            return decide(SCALE_IN, pol.max_replicas, "above max_replicas")
        if requests < pol.min_window_requests:
            return decide(HOLD, current,
                          f"window too thin ({requests} < "
                          f"{pol.min_window_requests} requests)")

        if burn >= pol.scale_out_burn:
            since = now - self._last_out.get(model, -1e18)
            if since < pol.scale_out_cooldown_s:
                return decide(HOLD, current,
                              f"burn {burn:.2f} but in scale-out cooldown "
                              f"({since:.1f}s < {pol.scale_out_cooldown_s}s)")
            d = decide(SCALE_OUT, current + 1,
                       f"error-budget burn {burn:.2f} >= "
                       f"{pol.scale_out_burn}")
            if d.action == SCALE_OUT:
                self._last_out[model] = now
            return d

        p99_gate_ms = pol.p99_budget_fraction * deadline_s * 1e3
        if burn <= pol.scale_in_burn and p99_ms <= p99_gate_ms:
            since = now - self._last_in.get(model, -1e18)
            if since < pol.scale_in_cooldown_s:
                return decide(HOLD, current,
                              f"idle but in scale-in cooldown "
                              f"({since:.1f}s < {pol.scale_in_cooldown_s}s)")
            d = decide(SCALE_IN, current - 1,
                       f"burn {burn:.2f} <= {pol.scale_in_burn} and p99 "
                       f"{p99_ms:.1f}ms <= {p99_gate_ms:.1f}ms")
            if d.action == SCALE_IN:
                self._last_in[model] = now
            return d

        return decide(HOLD, current,
                      f"burn {burn:.2f} inside hysteresis band")
