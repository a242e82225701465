"""The fleet supervisor: replica groups, routed serving, failover,
autoscaling and rollout enactment in one place.

A :class:`Fleet` supervises N :class:`~repro.fleet.replica.Replica`\\ s per
model (a *replica group*), routes every request through the
:class:`~repro.fleet.router.Router`'s consistent-hash rings, and fails
retryable responses over to surviving replicas — a killed replica's
in-flight requests resolve as retryable ``Failed`` and are requeued
elsewhere, so a seeded replica kill loses zero requests.  The
:class:`~repro.fleet.autoscaler.Autoscaler` (when a policy is configured)
reads the group's live primary SLO window and grows or drains the group;
the :class:`~repro.fleet.splitter.TrafficSplitter` layers shadow mirrors
and canary fractions over ``name@version``, and the fleet enacts them as
per-replica drain-and-cutover swaps behind the artifact-integrity and
plan-verification gates.

The fleet mirrors the single-process :class:`~repro.server.Server` API
(``submit(key, sample, deadline_s) -> future``, ``status()``,
``render_exposition()``), so the load generator, chaos harness and CLI
drive either interchangeably.  ``Server`` remains the single-process
serving surface; the fleet composes servers, it does not replace them.

::

    fleet = Fleet(FleetConfig(replicas=3))
    fleet.add_model("resnet20")
    fleet.register_version("resnet20", "1", deployed)
    with fleet:                      # starts the health loop
        resp = fleet.submit("resnet20", x).result()
        fleet.begin_canary("resnet20", "2", fraction=0.1)
        ...
        fleet.promote("resnet20")
"""
from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

import numpy as np

from repro import telemetry
from repro.fleet.autoscaler import (SCALE_IN, SCALE_OUT, Autoscaler,
                                    AutoscalePolicy)
from repro.fleet.replica import (CLOSED, DEAD, DRAINING, PARTITIONED,
                                 QUARANTINED, READY, STARTING, Replica)
from repro.integrity.errors import SDCDetected
from repro.fleet.router import ROLE_CANARY, ROLE_STABLE, Router
from repro.fleet.splitter import CANARY, TrafficSplitter
from repro.server.registry import split_key
from repro.server.server import ServerConfig
from repro.server.types import Failed, Overloaded, Response
from repro.telemetry import obs as _obs
from repro.telemetry.obs import RollingWindow


#: dispatch tries per request (the first placement plus failovers)
_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs.  Per-replica server tuning rides in ``server``,
    whose ``default_deadline_s`` and ``slo_target`` are the fleet's too."""

    replicas: int = 2                #: target replicas per model group
    health_interval_s: float = 0.25  #: health/reconcile loop period
    self_heal: bool = True           #: replace DEAD replicas automatically
    server: ServerConfig = field(default_factory=ServerConfig)
    rollback_burn: float = 1.0       #: canary burn >= this -> rollback
    rollback_min_requests: int = 20  #: canary window floor before judging
    #: autoscaling policy; ``None`` holds every group at ``replicas``
    autoscale: Optional[AutoscalePolicy] = None
    # -------------------------------------------------------- SDC defense
    #: replay each replica's golden vectors every N health ticks (0 = off);
    #: probes ride the normal submit path with a generous deadline, and
    #: an inconclusive answer (shed/drain/close race) is never SDC
    golden_every: int = 0
    golden_timeout_s: float = 2.0    #: per-vector probe result wait
    #: synchronous memory scrub of every replica's plans every N health
    #: ticks (0 = off; per-replica background scrubbing can run instead
    #: via ``server.scrub_interval_s``)
    scrub_every: int = 0

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")


class FleetRequest:
    """Future-like handle for one fleet request (mirrors
    :class:`~repro.server.types.PendingRequest`); additionally records the
    failover path the request took through the fleet."""

    __slots__ = ("request_id", "model", "route_key", "deadline_s", "role",
                 "shadow", "t0", "attempts", "path", "_event", "_response")

    def __init__(self, request_id: int, model: str, route_key: str,
                 deadline_s: float, role: str, shadow: bool = False):
        self.request_id = request_id
        self.model = model
        self.route_key = route_key
        self.deadline_s = deadline_s
        self.role = role              #: ``stable`` | ``canary``
        self.shadow = shadow          #: mirrored copy; result is discarded
        self.t0 = time.perf_counter()
        self.attempts = 0
        self.path: List[str] = []     #: replica ids tried, in order
        self._event = threading.Event()
        self._response: Optional[Response] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Response:
        if not self._event.wait(timeout):
            raise TimeoutError(f"fleet request {self.request_id} "
                               f"({self.model}) unresolved after {timeout}s")
        return self._response

    def _resolve(self, response: Response) -> None:
        if self._event.is_set():
            return
        self._response = response
        self._event.set()

    def __repr__(self) -> str:
        state = type(self._response).__name__ if self.done() else "pending"
        return (f"FleetRequest(#{self.request_id}, {self.model}, {state}, "
                f"path={self.path})")


@dataclass
class _VersionSource:
    """Everything needed to replay one model version into a fresh replica's
    private registry (the shared, checksummed source of truth)."""

    version: str
    deployed: object = None
    runner: object = None
    artifacts: Optional[str] = None
    meta: Dict = field(default_factory=dict)

    def materialize(self):
        """A per-replica copy of the deployed bundle.

        A plan is safe to share between threads, but each replica must be
        its own fault domain: silent corruption of one replica's weights or
        arena (the ``sdc`` chaos rows) must not also corrupt the copy the
        router fails over to, and quarantining a replica must discard only
        its state.  Bare ``runner`` callables are shared as-is (they are
        declared stateless by contract, like every registry runner).
        """
        import copy as _copy

        return (_copy.deepcopy(self.deployed)
                if self.deployed is not None else None)


class _Group:
    """One model's replica group plus its fleet-level SLO windows."""

    def __init__(self, name: str, target: int):
        self.name = name
        self.target = target
        self.sources: Dict[str, _VersionSource] = {}
        self.replicas: Dict[str, Replica] = {}
        self.next_id = 0
        # primary = every non-shadow request (canary traffic is user traffic
        # and counts, and so do its lost requests); canary = the
        # canary-assigned subset (rollback signal); shadow = mirrored
        # copies only — never in the primary SLO.
        self.window_primary = RollingWindow()
        self.window_canary = RollingWindow()
        self.window_shadow = RollingWindow()
        self.ticks = 0                #: health ticks seen (probe cadence)
        self.quarantined_total = 0    #: replicas ejected for SDC, ever

    def windows(self):
        """``(traffic class, window)`` pairs, primary first."""
        return (("primary", self.window_primary),
                ("canary", self.window_canary),
                ("shadow", self.window_shadow))

    def live(self) -> List[Replica]:
        """Replicas that count toward the target (a PARTITIONED replica is
        alive behind its partition, so it is *not* replaced; a QUARANTINED
        one is corrupted and *is* — self-heal spawns its replacement)."""
        return [r for r in self.replicas.values()
                if r.state in (STARTING, READY, PARTITIONED)]

    def ready(self, role: Optional[str] = None) -> List[Replica]:
        return [r for r in self.replicas.values()
                if r.state == READY and not r.partitioned
                and (role is None or r.role == role)]


class Fleet:
    """Supervisor for replicated, sharded serving (see module docstring)."""

    def __init__(self, config: Optional[FleetConfig] = None, **overrides):
        self.config = replace(config or FleetConfig(), **overrides) \
            if overrides else (config or FleetConfig())
        self.router = Router()
        self.splitter = TrafficSplitter()
        self.autoscaler = (Autoscaler(self.config.autoscale)
                           if self.config.autoscale is not None else None)
        self._groups: Dict[str, _Group] = {}
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._mirror_ids = itertools.count(-1, -1)
        self.closing = False
        self._health_thread: Optional[threading.Thread] = None
        self._health_stop = threading.Event()

    # ---------------------------------------------------------- population
    def add_model(self, name: str) -> None:
        """Create the (empty) replica group for ``name``; versions are added
        with :meth:`register_version` and replicas spawn on the first
        reconcile."""
        with self._lock:
            if name in self._groups:
                raise ValueError(f"model {name!r} already added")
            self._groups[name] = _Group(name, self.config.replicas)

    def register_version(self, name: str, version: str, deployed=None, *,
                         runner=None, artifacts: Optional[str] = None,
                         **meta) -> None:
        """Register ``name@version`` fleet-wide.

        The first version of a model becomes its stable serving version and
        spawns the group to target size; later versions are candidates —
        available on every replica's private registry (inactive) so shadow
        and canary placement is a per-replica activation, not a data copy.
        Artifact integrity is checked per replica at registration, exactly
        as on a single server.
        """
        with self._lock:
            group = self._require(name)
            if version in group.sources:
                raise ValueError(f"{name}@{version} already registered "
                                 f"with the fleet")
            src = _VersionSource(version, deployed=deployed, runner=runner,
                                 artifacts=artifacts, meta=dict(meta))
            group.sources[version] = src
            first = len(group.sources) == 1
            if first:
                self.splitter.ensure(name, version)
            for rep in group.replicas.values():
                if rep.state in (DEAD, CLOSED):
                    continue
                rep.registry.register(name, version, src.materialize(),
                                      runner=runner, activate=False,
                                      artifacts=artifacts, **meta)
            if first:
                self._tick_group(group)

    def _require(self, name: str) -> _Group:
        group = self._groups.get(name)
        if group is None:
            raise KeyError(f"model {name!r} not added to the fleet "
                           f"(have: {sorted(self._groups) or 'none'})")
        return group

    def _spawn(self, group: _Group, role: str = ROLE_STABLE,
               version: Optional[str] = None) -> Replica:
        """Bring up one replica, replay every version source, activate the
        requested (default: stable) version."""
        rid = f"{group.name}-r{group.next_id}"
        group.next_id += 1
        rep = Replica(rid, group.name, server_config=self.config.server,
                      role=role)
        for src in group.sources.values():
            rep.registry.register(group.name, src.version, src.materialize(),
                                  runner=src.runner, activate=False,
                                  artifacts=src.artifacts, **src.meta)
        ro = self.splitter.get(group.name)
        active = version or (ro.stable_version if ro else None)
        if active is not None:
            rep.registry.set_active(group.name, active)
        rep.mark_ready()
        group.replicas[rid] = rep
        telemetry.emit("fleet_replica_spawned", replica=rid,
                       model=group.name, role=role, version=active)
        return rep

    # ------------------------------------------------------------- serving
    def submit(self, key: str, sample, deadline_s: Optional[float] = None,
               route_key: Optional[str] = None) -> FleetRequest:
        """Route one request into the fleet; same contract as
        :meth:`repro.server.Server.submit` (always returns a handle that
        resolves to a typed :class:`~repro.server.types.Response`).

        ``route_key`` is the consistent-hashing affinity key (a session or
        user id); it defaults to the fleet request id, which spreads
        requests across the ring uniformly and deterministically.
        """
        if self.closing:
            raise RuntimeError("fleet is closed")
        name, _version = split_key(key)
        group = self._require(name)
        ro = self.splitter.get(name)
        if ro is None:
            raise KeyError(f"model {name!r} has no registered versions")
        rid = next(self._ids)
        rkey = route_key if route_key is not None else f"req-{rid}"
        role, mirror = ro.assign(rkey)
        deadline = (self.config.server.default_deadline_s
                    if deadline_s is None else float(deadline_s))
        freq = FleetRequest(rid, name, rkey, deadline, role)
        self._dispatch(freq, group, key, sample, exclude=set())
        if mirror:
            self._mirror(group, key, sample, rkey, deadline)
        return freq

    def _dispatch(self, freq: FleetRequest, group: _Group, key: str,
                  sample, exclude: Set[str]) -> None:
        """Place (or re-place, on failover) one request on a replica."""
        while True:
            if freq.attempts >= _MAX_ATTEMPTS:
                self._finish(freq, group, Failed(
                    -freq.request_id, freq.model, retryable=True,
                    error=f"failover budget exhausted after "
                          f"{freq.attempts} attempts "
                          f"(path: {'>'.join(freq.path)})"))
                return
            target = self.router.route(freq.model, freq.route_key,
                                       role=freq.role, exclude=exclude)
            if target is None:
                self._finish(freq, group, Failed(
                    -freq.request_id, freq.model, retryable=True,
                    error=f"no reachable replica for {freq.model!r}"))
                return
            rep = group.replicas.get(target)
            if rep is None:           # removed between route and lookup
                exclude.add(target)
                continue
            freq.attempts += 1
            freq.path.append(target)
            pending = rep.submit(key, sample, deadline_s=freq.deadline_s)
            pending.add_done_callback(
                lambda resp, _rep=target: self._on_response(
                    freq, group, key, sample, _rep, resp))
            return

    def _on_response(self, freq: FleetRequest, group: _Group, key: str,
                     sample, replica_id: str, resp: Response) -> None:
        """Resolution hook (runs on the resolving replica's lane executor):
        fail retryable responses over to the next replica on the ring,
        otherwise resolve the fleet request and account it."""
        if (not resp.ok and resp.retryable
                and freq.attempts < _MAX_ATTEMPTS and not self.closing):
            self._dispatch(freq, group, key, sample, exclude=set(freq.path))
            return
        self._finish(freq, group, resp)

    def _finish(self, freq: FleetRequest, group: _Group,
                resp: Response) -> None:
        """Count the request's outcome once per window it belongs to, then
        resolve it (so a caller's ``result()`` sees the count)."""
        latency = time.perf_counter() - freq.t0
        if resp.ok:
            # rewrite latency to the fleet-level number (includes failover
            # hops), so reports measure what the client experienced
            resp = replace(resp, latency_s=latency)
        windows = ([group.window_shadow] if freq.shadow
                   else [group.window_primary]
                   + ([group.window_canary] if freq.role == ROLE_CANARY
                      else []))
        miss = resp.ok and latency > freq.deadline_s
        lost = (not resp.ok and not freq.shadow and resp.retryable
                and freq.attempts >= _MAX_ATTEMPTS)
        for w in windows:
            if resp.ok:
                w.observe_ok(latency, getattr(resp, "queue_wait_s", 0.0),
                             deadline_miss=miss)
            elif isinstance(resp, Overloaded):
                w.observe_shed(lost=lost and w is group.window_primary)
            else:
                w.observe_failed(lost=lost and w is group.window_primary)
        freq._resolve(resp)

    def _mirror(self, group: _Group, key: str, sample, route_key: str,
                deadline_s: float) -> None:
        """Fire-and-forget shadow copy to a canary-role replica; the result
        lands in the shadow window only and the response is discarded."""
        ro = self.splitter.get(group.name)
        if ro is None or ro.canary_version is None:
            return
        target = self.router.route(group.name, route_key, role=ROLE_CANARY)
        if target is None:
            return
        rep = group.replicas.get(target)
        if rep is None:
            return
        freq = FleetRequest(next(self._mirror_ids), group.name, route_key,
                            deadline_s, ROLE_CANARY, shadow=True)
        freq.attempts = _MAX_ATTEMPTS    # shadows never fail over
        freq.path.append(target)
        pending = rep.submit(group.name, sample, deadline_s=deadline_s)
        pending.add_done_callback(
            lambda resp: self._finish(freq, group, resp))

    # ------------------------------------------------------------ rollouts
    def begin_shadow(self, name: str, version: str,
                     mirror_fraction: float = 0.2) -> None:
        """Mirror a fraction of ``name``'s traffic to ``version`` on a
        dedicated canary-role replica; responses are compared offline and
        never count toward the primary SLO."""
        with self._lock:
            group = self._require(name)
            self._require_version(group, version)
            self.splitter.begin_shadow(name, version,
                                       mirror_fraction=mirror_fraction)
            self._place_canaries(group, version, count=1)

    def begin_canary(self, name: str, version: str,
                     fraction: float = 0.01) -> None:
        """Start serving ``fraction`` of primary keys from ``version``."""
        with self._lock:
            group = self._require(name)
            self._require_version(group, version)
            self.splitter.begin_canary(name, version, fraction=fraction)
            self._place_canaries(group, version,
                                 count=self._canary_count(group, fraction))

    def advance_canary(self, name: str, fraction: float) -> None:
        """Walk the promote ladder: a larger key fraction, and
        proportionally more canary-role replicas."""
        with self._lock:
            group = self._require(name)
            ro = self.splitter.advance(name, fraction)
            self._place_canaries(group, ro.canary_version,
                                 count=self._canary_count(group, fraction))

    def promote(self, name: str) -> None:
        """The candidate becomes stable fleet-wide: every replica cuts over
        (drain-and-swap, gated on artifact + plan verification)."""
        with self._lock:
            group = self._require(name)
            ro = self.splitter.promote(name)
            for rep in group.ready():
                rep.set_version(ro.stable_version)
                rep.role = ROLE_STABLE
            self._rebuild_rings(group)
            telemetry.emit("fleet_promoted", model=name,
                           version=ro.stable_version)

    def rollback(self, name: str, reason: str = "operator") -> None:
        """Abort the rollout: every canary-role replica swaps back to the
        stable version and rejoins the stable ring."""
        with self._lock:
            group = self._require(name)
            ro = self.splitter.rollback(name, reason=reason)
            for rep in group.ready(ROLE_CANARY):
                rep.set_version(ro.stable_version)
                rep.role = ROLE_STABLE
            self._rebuild_rings(group)
            telemetry.emit("fleet_rolled_back", level="warning", model=name,
                           version=ro.stable_version, reason=reason)

    def _require_version(self, group: _Group, version: str) -> None:
        if version not in group.sources:
            raise KeyError(f"{group.name}@{version} is not registered with "
                           f"the fleet (have: {sorted(group.sources)})")

    def _canary_count(self, group: _Group, fraction: float) -> int:
        """Canary replicas for a key fraction: proportional, at least one,
        and always leaving one stable replica until 100%."""
        if fraction >= 1.0:
            return max(1, group.target)
        want = max(1, round(fraction * group.target))
        return min(want, max(1, group.target - 1))

    def _place_canaries(self, group: _Group, version: str,
                        count: int) -> None:
        """Converge the number of canary-role replicas to ``count`` by
        converting stable replicas (drain-and-cutover swap) or reverting
        surplus canaries.  A swap refused by the verification gates
        propagates — with the previous version still serving everywhere."""
        ro = self.splitter.get(group.name)
        stable_version = ro.stable_version if ro else None
        canaries = sorted(group.ready(ROLE_CANARY),
                          key=lambda r: r.replica_id)
        stables = sorted(group.ready(ROLE_STABLE),
                         key=lambda r: r.replica_id, reverse=True)
        for rep in canaries[count:]:                    # surplus -> stable
            rep.set_version(stable_version)
            rep.role = ROLE_STABLE
        for rep in canaries[:count]:                    # keep, re-version
            rep.set_version(version)
        need = count - len(canaries)
        for rep in stables[:max(0, need)]:
            try:
                rep.set_version(version)
            except Exception:
                # the gate refused the candidate: revert what we placed and
                # retire the rollout so no further traffic is assigned
                for done in canaries[:count]:
                    done.set_version(stable_version)
                self.splitter.rollback(group.name,
                                       reason="version swap refused")
                self._rebuild_rings(group)
                raise
            rep.role = ROLE_CANARY
        self._rebuild_rings(group)

    # ------------------------------------------------------ health loop
    def health_tick(self) -> None:
        """One synchronous reconcile pass (the health loop calls this every
        ``health_interval_s``; tests and the chaos harness call it
        directly for determinism): probe replica health, transition
        lifecycles, self-heal, autoscale, judge the canary, rebuild rings."""
        with self._lock:
            for group in list(self._groups.values()):
                self._tick_group(group)

    def _tick_group(self, group: _Group) -> None:
        cfg = self.config
        slo_target = cfg.server.slo_target
        group.ticks += 1
        for rid, rep in list(group.replicas.items()):
            if rep.state not in (QUARANTINED, DEAD, CLOSED):
                self._sdc_tick(group, rep)
            if rep.state == QUARANTINED:
                continue    # tombstone: ejected, kept for forensics
            if rep.state == STARTING:
                rep.mark_ready()
            elif rep.state == READY and not rep.healthy():
                if rep.partitioned:
                    rep.state = PARTITIONED
                    self.router.eject(group.name, rid)
                    telemetry.emit("fleet_replica_partitioned",
                                   level="warning", replica=rid,
                                   model=group.name)
                elif rep.server.killed or not rep.server.healthy():
                    rep.state = DEAD
            elif (rep.state == PARTITIONED and not rep.partitioned
                    and rep.server.healthy()):
                rep.state = READY       # partition healed: rejoin
                telemetry.emit("fleet_replica_healed", replica=rid,
                               model=group.name)
            if rep.state == DEAD:
                self.router.eject(group.name, rid)
                del group.replicas[rid]
                telemetry.emit("fleet_replica_dead", level="warning",
                               replica=rid, model=group.name)
            elif rep.state == DRAINING and rep.drained():
                self.router.eject(group.name, rid)
                rep.close()
                del group.replicas[rid]
                telemetry.emit("fleet_replica_drained", replica=rid,
                               model=group.name)

        if self.autoscaler is not None and group.sources:
            summary = group.window_primary.summary(slo_target=slo_target)
            decision = self.autoscaler.tick(group.name, summary,
                                            group.target,
                                            cfg.server.default_deadline_s)
            if decision.action in (SCALE_OUT, SCALE_IN):
                group.target = decision.target
                if decision.action == SCALE_IN:
                    self._drain_one(group)

        if cfg.self_heal and group.sources:
            while len(group.live()) < group.target:
                self._spawn(group)
        while len(group.live()) > group.target and self._drain_one(group):
            pass

        ro = self.splitter.get(group.name)
        if ro is not None and ro.state == CANARY:
            s = group.window_canary.summary(slo_target=slo_target)
            burn = s.get("slo", {}).get("error_budget_burn", 0.0)
            if (s["requests"] >= cfg.rollback_min_requests
                    and burn >= cfg.rollback_burn):
                self.rollback(group.name,
                              reason=f"canary error-budget burn "
                                     f"{burn:.2f} >= {cfg.rollback_burn} "
                                     f"over {s['requests']} requests")
        self._rebuild_rings(group)

    # ------------------------------------------------------- SDC defense
    def _sdc_tick(self, group: _Group, rep: Replica) -> None:
        """Per-replica SDC defense pass: scheduled memory scrub, scheduled
        golden probe, then quarantine if anything — including the replica's
        own inline ABFT checker or background scrubber — flagged
        corruption since the last tick."""
        cfg = self.config
        if cfg.scrub_every and group.ticks % cfg.scrub_every == 0:
            try:
                rep.server.scrub_now()
            except Exception:   # a scrub glitch must not stall the loop
                pass
        if (cfg.golden_every and rep.state == READY and not rep.partitioned
                and group.ticks % cfg.golden_every == 0):
            self._golden_probe(group, rep)
        if rep.server.sdc_detected:
            self._quarantine(group, rep)

    def _golden_probe(self, group: _Group, rep: Replica) -> None:
        """Replay the replica's recorded golden vectors through its gateway.

        Probes ride the normal submit path, so they check what a client
        gets from the replica: its lane, its executors and its plan.
        Only a *successful* response with wrong
        values is SDC; sheds, drains, kills and close races are
        inconclusive and skipped.  Every wait is bounded and re-checks
        ``closing`` so a fleet shutdown mid-probe cannot deadlock.
        """
        cfg = self.config
        try:
            entry = rep.registry.get(group.name)
        except KeyError:
            return
        golden = entry.golden
        if golden is None:
            return
        xs = golden.inputs()
        deadline = max(1.0, 4 * cfg.server.default_deadline_s)
        for i in range(golden.k):
            if self.closing or not rep.healthy():
                return
            pending = rep.submit(group.name, xs[i], deadline_s=deadline)
            try:
                resp = pending.result(timeout=cfg.golden_timeout_s)
            except TimeoutError:
                return
            if not resp.ok:
                return                     # inconclusive, not SDC
            want = golden.outputs[i]
            got = np.asarray(resp.logits, dtype=np.float32)
            if got.shape != want.shape or not np.array_equal(got, want):
                bad = (int(np.sum(got != want))
                       if got.shape == want.shape else -1)
                rep.server.record_sdc(group.name, SDCDetected(
                    "golden", f"golden vector {i} diverged on "
                              f"{rep.replica_id} ({bad} element(s))",
                    {"replica": rep.replica_id, "vector": i,
                     "mismatched": bad, "seed": golden.seed}))
                return

    def _quarantine(self, group: _Group, rep: Replica) -> None:
        """Eject a corrupted replica: quarantine aborts like a kill (its
        queued and in-flight work requeues on healthy peers — never
        ``requests_lost``), the ring drops it, and the tombstone stays in
        the group for forensics; self-heal spawns the replacement in this
        same tick because :meth:`_Group.live` no longer counts it."""
        events = list(rep.server.sdc_events)
        rep.quarantine()
        self.router.eject(group.name, rep.replica_id)
        group.quarantined_total += 1
        telemetry.emit("fleet_replica_quarantined", level="error",
                       replica=rep.replica_id, model=group.name,
                       source=events[0]["source"] if events else None,
                       events=len(events))

    @property
    def requests_lost(self) -> int:
        """Primary requests that ran out of failovers, summed over the
        groups (each counts its own in its primary window)."""
        with self._lock:
            groups = list(self._groups.values())
        return sum(g.window_primary.totals()["lost"] for g in groups)

    @property
    def sdc_quarantined(self) -> int:
        """Replicas ejected for silent data corruption, fleet-wide."""
        with self._lock:
            return sum(g.quarantined_total for g in self._groups.values())

    def _drain_one(self, group: _Group) -> bool:
        """Start draining one replica (scale-in): prefer the youngest
        stable replica, never the last ready one."""
        ready = group.ready()
        if len(ready) <= 1:
            return False
        stables = sorted(group.ready(ROLE_STABLE),
                         key=lambda r: r.replica_id)
        victim = (stables[-1] if stables else
                  sorted(ready, key=lambda r: r.replica_id)[-1])
        victim.drain()
        self.router.eject(group.name, victim.replica_id)
        return True

    def _rebuild_rings(self, group: _Group) -> None:
        self.router.set_members(
            group.name, ROLE_STABLE,
            [r.replica_id for r in group.ready(ROLE_STABLE)])
        self.router.set_members(
            group.name, ROLE_CANARY,
            [r.replica_id for r in group.ready(ROLE_CANARY)])

    def start(self) -> "Fleet":
        """Run :meth:`health_tick` on a background thread."""
        if self._health_thread is not None:
            return self
        self.health_tick()             # serve immediately, not one tick late
        self._health_stop.clear()

        def _loop() -> None:
            while not self._health_stop.wait(self.config.health_interval_s):
                try:
                    self.health_tick()
                except Exception:      # the loop must outlive one bad tick
                    pass

        self._health_thread = threading.Thread(
            target=_loop, name="fleet-health", daemon=True)
        self._health_thread.start()
        return self

    def close(self, timeout: float = 30.0) -> None:
        self.closing = True
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
            self._health_thread = None
        with self._lock:
            reps = [r for g in self._groups.values()
                    for r in g.replicas.values()]
        for rep in reps:
            rep.close(timeout=timeout)

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------ introspection
    def replicas(self, name: str) -> List[Replica]:
        with self._lock:
            return list(self._require(name).replicas.values())

    def status(self) -> Dict:
        """Fleet-wide operational snapshot: per-group replica states, the
        three SLO windows, rollout state and recent scaling decisions."""
        slo_target = self.config.server.slo_target
        out: Dict = {"models": {}, "requests_lost": self.requests_lost}
        with self._lock:
            groups = list(self._groups.values())
        out["sdc_quarantined"] = sum(g.quarantined_total for g in groups)
        for group in groups:
            ro = self.splitter.get(group.name)
            out["models"][group.name] = {
                "target_replicas": group.target,
                "sdc_quarantined": group.quarantined_total,
                "replicas": [r.status() for r in sorted(
                    group.replicas.values(), key=lambda r: r.replica_id)],
                "window": {cls: w.summary(slo_target=slo_target)
                           for cls, w in group.windows()},
                "rollout": ro.to_json() if ro is not None else None,
                "autoscale": ([d.to_json() for d in
                               self.autoscaler.history(group.name)[-5:]]
                              if self.autoscaler is not None else None),
                "routing": {
                    "stable": sorted(self.router.members(
                        group.name, ROLE_STABLE)),
                    "canary": sorted(self.router.members(
                        group.name, ROLE_CANARY)),
                },
            }
        return out

    def _obs_samples(self) -> List[Dict]:
        """Fleet exposition samples: every replica's always-on rows
        namespaced with a ``replica`` label (so N replicas of one model
        yield N distinct series, not one colliding series), plus the
        fleet-level rows of each traffic class's window."""
        samples: List[Dict] = []
        slo_target = self.config.server.slo_target
        with self._lock:
            groups = list(self._groups.values())
        for group in groups:
            for rid, rep in sorted(group.replicas.items()):
                if rep.state in (DEAD, CLOSED):
                    continue
                for s in rep.server._obs_samples():
                    samples.append({**s,
                                    "labels": {**s["labels"],
                                               "replica": rid}})
                samples.append({"name": "fleet_replica_up", "kind": "gauge",
                                "labels": {"model": group.name,
                                           "replica": rid,
                                           "state": rep.state},
                                "value": 1.0 if rep.healthy() else 0.0})
            for cls, window in group.windows():
                samples += window.samples(
                    "fleet", {"model": group.name, "class": cls},
                    slo_target=slo_target)
            samples.append({"name": "fleet_replicas_target", "kind": "gauge",
                            "labels": {"model": group.name},
                            "value": group.target})
            samples.append({"name": "fleet_requests_lost", "kind": "counter",
                            "labels": {"model": group.name},
                            "value": group.window_primary.totals()["lost"]})
            samples.append({"name": "fleet_sdc_quarantined_total",
                            "kind": "counter",
                            "labels": {"model": group.name},
                            "value": group.quarantined_total})
        return samples

    def render_exposition(self) -> str:
        """Prometheus text exposition for the whole fleet: the process
        registry once, plus per-replica rows disambiguated by the
        ``replica`` label and the fleet-level rows."""
        return _obs.exposition(telemetry.get_registry(),
                               extra_samples=self._obs_samples())
