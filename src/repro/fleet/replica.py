"""One fleet replica: a supervised :class:`~repro.server.Server` plus its
own :class:`~repro.server.ModelRegistry` and a lifecycle state machine.

Every replica owns a *private* registry — replicas of one group share the
same verified model sources (the checksummed artifact store / deployed
bundles), but each holds its own active-version pointer, which is what
makes per-replica canary placement possible: a canary replica runs the new
version while its peers keep the stable one, and promotion/rollback is a
per-replica :meth:`~repro.server.Server.swap` (drain-and-cutover, so no
in-flight request is ever dropped by a version flip).

Lifecycle::

    READY ──drain()──> DRAINING ──drained──> CLOSED
      │ ├──kill()───────────────────────────> DEAD
      │ ├──quarantine()─────────────────────> QUARANTINED
      │ └──partition()──> PARTITIONED ──heal()──> READY

A killed replica resolves all queued and in-flight requests as retryable
:class:`~repro.server.types.Failed` (the fleet requeues them elsewhere); a
partitioned replica is unreachable — submissions bounce with a retryable
``Failed`` and health probes fail — but keeps its state, modelling a
network partition rather than a crash.  A *quarantined* replica is one the
SDC defense caught corrupting data (ABFT checksum miss, scrub CRC
mismatch, or a golden-vector divergence): it aborts exactly like a kill —
so the fleet requeues its work on healthy peers and loses nothing — but
the replica object is kept as a tombstone for forensics (its flight
recorder, ``sdc_events`` and metrics survive) instead of being deleted.
"""
from __future__ import annotations

import time
from typing import Dict, Optional

from repro import telemetry
from repro.server import ModelRegistry, Server, ServerConfig
from repro.server.types import Failed, PendingRequest

#: replica lifecycle states
STARTING = "starting"
READY = "ready"
DRAINING = "draining"
PARTITIONED = "partitioned"
QUARANTINED = "quarantined"   #: ejected for silent data corruption
DEAD = "dead"
CLOSED = "closed"


class Replica:
    """A single gateway replica in a fleet group."""

    def __init__(self, replica_id: str, model: str,
                 server_config: ServerConfig, role: str = "stable"):
        self.replica_id = replica_id
        self.model = model
        self.role = role                  #: ``stable`` | ``canary``
        self.state = STARTING
        self.partitioned = False
        self.created_t = time.monotonic()
        self.registry = ModelRegistry()
        self.server = Server(self.registry, config=server_config)
        self._fail_ids = 0

    # ------------------------------------------------------------- serving
    def submit(self, key: str, sample, deadline_s: Optional[float] = None
               ) -> PendingRequest:
        """Submit to this replica's gateway; unreachable/killed replicas
        answer with an already-resolved retryable
        :class:`~repro.server.types.Failed` instead of raising, so the
        fleet's failover path is uniform."""
        if self.partitioned or self.state in (DEAD, CLOSED, QUARANTINED):
            return self._unreachable(key, "replica is "
                                     + ("partitioned" if self.partitioned
                                        else self.state))
        try:
            return self.server.submit(key, sample, deadline_s=deadline_s)
        except RuntimeError as exc:     # closed under us (kill race)
            return self._unreachable(key, str(exc))

    def _unreachable(self, key: str, why: str) -> PendingRequest:
        self._fail_ids -= 1
        req = PendingRequest(self._fail_ids, key, None,
                             time.perf_counter(), 0.0)
        req._resolve(Failed(req.request_id, key,
                            error=f"{self.replica_id}: {why}",
                            retryable=True))
        return req

    # ----------------------------------------------------------- lifecycle
    def mark_ready(self) -> None:
        self.state = READY

    def drain(self) -> None:
        """Begin the drain protocol: no new keys, queued work completes."""
        if self.state == READY:
            self.state = DRAINING
            self.server.drain()

    def drained(self) -> bool:
        return self.server.drained()

    def kill(self) -> None:
        """Abrupt replica death; in-flight work resolves retryable-Failed."""
        self.state = DEAD
        self.server.kill()

    def quarantine(self) -> None:
        """Eject a replica caught serving corrupted state (terminal).

        Same abort semantics as :meth:`kill` — every queued and in-flight
        request resolves as a retryable
        :class:`~repro.server.types.Failed` so the fleet re-runs it on a
        healthy peer and no request is lost — but the state is
        ``QUARANTINED``, a tombstone the fleet keeps (never self-heals
        back, never deletes) so the corrupted server's flight-recorder
        dumps and ``sdc_events`` stay inspectable.
        """
        if self.state in (QUARANTINED, DEAD, CLOSED):
            return
        self.state = QUARANTINED
        self.server.kill()

    def partition(self) -> None:
        """Make the replica unreachable without killing it."""
        self.partitioned = True

    def heal(self) -> None:
        """End a partition; the health loop re-admits the replica."""
        self.partitioned = False

    def close(self, timeout: float = 30.0) -> None:
        if self.state not in (DEAD, QUARANTINED):
            self.state = CLOSED
        self.server.close(timeout=timeout)

    # -------------------------------------------------------------- health
    def healthy(self) -> bool:
        """Reachable and serving: the fleet health loop's probe."""
        return (not self.partitioned and self.state in (STARTING, READY)
                and self.server.healthy())

    def active_version(self) -> Optional[str]:
        try:
            return self.registry.active_version(self.model)
        except KeyError:
            return None

    def set_version(self, version: str, timeout: float = 30.0) -> None:
        """Drain-and-cutover this replica to ``model@version`` (the
        per-replica half of canary placement / promotion / rollback).
        Refuses — typed, with the previous version still serving — when the
        target fails the artifact-integrity or plan-verification gate."""
        if self.active_version() == version:
            return
        self.server.swap(self.model, version, timeout=timeout)
        telemetry.emit("fleet_replica_version", replica=self.replica_id,
                       model=self.model, version=version, role=self.role)

    def pending_count(self) -> int:
        return self.server.pending_count()

    def status(self) -> Dict:
        """Flat operational summary for the fleet status surface."""
        window = {}
        lane = self.server._lanes.get(self.model)
        if lane is not None:
            window = lane.window.summary(slo_target=lane.cfg.slo_target)
        return {
            "replica": self.replica_id,
            "model": self.model,
            "role": self.role,
            "state": self.state,
            "partitioned": self.partitioned,
            "active_version": self.active_version(),
            "healthy": self.healthy(),
            "sdc_events": len(self.server.sdc_events),
            "pending": (self.pending_count()
                        if self.state not in (DEAD, CLOSED, QUARANTINED)
                        else 0),
            "uptime_s": round(time.monotonic() - self.created_t, 3),
            "window": window,
        }

    def __repr__(self) -> str:
        return (f"Replica({self.replica_id}, {self.model}, {self.state}, "
                f"role={self.role}, v={self.active_version()})")
