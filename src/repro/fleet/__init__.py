"""Replicated, sharded serving on top of the single-process gateway.

``repro.fleet`` composes N :class:`~repro.server.Server` replicas into one
serving surface: consistent-hash routing with health-aware failover
(:mod:`~repro.fleet.router`), supervised replica lifecycles
(:mod:`~repro.fleet.replica`), SLO-driven autoscaling
(:mod:`~repro.fleet.autoscaler`) and shadow/canary rollouts
(:mod:`~repro.fleet.splitter`) — all supervised by
:class:`~repro.fleet.fleet.Fleet`.  See ``docs/fleet.md``.
"""
from repro.fleet.autoscaler import (Autoscaler, AutoscalePolicy, Decision,
                                    HOLD, SCALE_IN, SCALE_OUT)
from repro.fleet.fleet import Fleet, FleetConfig, FleetRequest
from repro.fleet.replica import (CLOSED, DEAD, DRAINING, PARTITIONED,
                                 QUARANTINED, READY, STARTING, Replica)
from repro.fleet.router import (HashRing, ROLE_CANARY, ROLE_STABLE, Router,
                                hash01, hash64)
from repro.fleet.splitter import (CANARY, DEFAULT_LADDER, IDLE, PROMOTED,
                                  ROLLED_BACK, Rollout, SHADOW,
                                  TrafficSplitter)

__all__ = [
    "Fleet", "FleetConfig", "FleetRequest",
    "Replica", "STARTING", "READY", "DRAINING", "PARTITIONED",
    "QUARANTINED", "DEAD", "CLOSED",
    "Router", "HashRing", "hash64", "hash01", "ROLE_STABLE", "ROLE_CANARY",
    "Autoscaler", "AutoscalePolicy", "Decision", "HOLD", "SCALE_OUT",
    "SCALE_IN",
    "TrafficSplitter", "Rollout", "DEFAULT_LADDER", "IDLE", "SHADOW",
    "CANARY", "PROMOTED", "ROLLED_BACK",
]
