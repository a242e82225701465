"""ChaosPlan: a seeded fault schedule plus the detection scorecard.

A plan is a list of ``(injector, params)`` steps drawn from
:data:`~repro.chaos.injectors.CATALOG`.  Fault ``i`` draws its randomness
from ``np.random.default_rng([seed, i])`` — each step has an independent,
reproducible stream, so reordering or extending the schedule never changes
what an existing step does.

:meth:`ChaosPlan.run` takes a schedule of one kind and the target that kind
damages, and scores every fault on two axes:

* **detected** — *every* defence layer the fault's catalog row names caught
  it; one silent acceptance anywhere marks the fault *missed*.  Each layer
  is the method of the same name on the kind's target class below.
* **recovered** — service continued on known-good state afterwards: the
  registry still serves the previous active version, or a post-fault probe
  request returns :class:`~repro.server.types.Ok`.

A fault that cannot exist on the target (its injector raises
:class:`~repro.chaos.injectors.NotApplicable`: no qint header in an export
without that format, no guard border on a plan that pads nothing) is
scored *not applicable*, with the reason, and left out of the
injected/detected/recovered counts.

Every injected/detected/missed fault also lands in telemetry as
``chaos_inject`` / ``chaos_detected`` / ``chaos_missed`` events.
"""
from __future__ import annotations

import copy
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.chaos.injectors import CATALOG, KINDS, NotApplicable
from repro.export.errors import ArtifactError
from repro.export.integrity import load_state_dict, verify_artifacts
from repro.fleet import Fleet
from repro.fleet.replica import PARTITIONED, QUARANTINED, READY, STARTING
from repro.fleet.router import ROLE_CANARY, ROLE_STABLE
from repro.lint.plan import PlanVerificationError
from repro.runtime.executor import Plan
from repro.server import ModelRegistry, Server
from repro.server.types import Failed, Overloaded

#: longest any probe request or poll waits before giving up
_TIMEOUT_S = 10.0
#: deadline of every probe request
_DEADLINE_S = 2.0


def _poll(predicate: Callable[[], bool], timeout_s: float,
          tick: Callable[[], object]) -> bool:
    """Run ``tick`` then ``predicate`` every 20 ms until the predicate holds
    (True) or ``timeout_s`` has passed (False)."""
    deadline = time.monotonic() + timeout_s
    while True:
        tick()
        if predicate():
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)


@dataclass
class FaultRecord:
    """Scorecard line for one injected fault."""

    index: int
    injector: str
    params: Dict
    details: Dict = field(default_factory=dict)
    detected: bool = False
    recovered: bool = False
    layers: Dict[str, bool] = field(default_factory=dict)
    note: str = ""
    not_applicable: str = ""   #: why the fault cannot exist on the target

    @property
    def applicable(self) -> bool:
        return not self.not_applicable

    @property
    def missed(self) -> bool:
        return self.applicable and not self.detected

    def annotate(self, text: str) -> None:
        """Append ``text`` to the human-readable note."""
        self.note = "; ".join(filter(None, (self.note, text)))

    def to_json(self) -> Dict:
        return {"index": self.index, "injector": self.injector,
                "params": self.params, "details": self.details,
                "detected": self.detected, "recovered": self.recovered,
                "layers": self.layers, "note": self.note,
                "not_applicable": self.not_applicable or None}


class ChaosReport:
    """Aggregated outcome of one chaos run (or several, via :meth:`extend`)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.records: List[FaultRecord] = []

    def add(self, record: FaultRecord) -> None:
        self.records.append(record)

    def extend(self, other: "ChaosReport") -> "ChaosReport":
        self.records.extend(other.records)
        return self

    @property
    def injected(self) -> int:
        return sum(r.applicable for r in self.records)

    @property
    def not_applicable(self) -> int:
        return len(self.records) - self.injected

    @property
    def detected(self) -> int:
        return sum(r.detected for r in self.records)

    @property
    def recovered(self) -> int:
        return sum(r.recovered for r in self.records)

    @property
    def missed(self) -> int:
        return sum(r.missed for r in self.records)

    @property
    def ok(self) -> bool:
        """Zero missed faults — every injected fault was detected."""
        return self.missed == 0

    def to_json(self) -> Dict:
        return {
            "seed": self.seed,
            "summary": {"injected": self.injected, "detected": self.detected,
                        "recovered": self.recovered, "missed": self.missed,
                        "not_applicable": self.not_applicable, "ok": self.ok},
            "faults": [r.to_json() for r in self.records],
        }

    def render(self) -> str:
        lines = [f"chaos report (seed={self.seed}): "
                 f"{self.injected} injected, {self.detected} detected, "
                 f"{self.recovered} recovered, {self.missed} MISSED"
                 + (f", {self.not_applicable} not applicable"
                    if self.not_applicable else "")]
        for r in self.records:
            if not r.applicable:
                lines.append(f"  [{r.index:02d}] {r.injector:<16} not applicable"
                             f" — {r.not_applicable}")
                continue
            status = "detected" if r.detected else "MISSED"
            rec = "recovered" if r.recovered else "not recovered"
            layers = "".join(
                f" {k}={'y' if v else 'N'}" for k, v in sorted(r.layers.items()))
            note = f" — {r.note}" if r.note else ""
            lines.append(f"  [{r.index:02d}] {r.injector:<16} {status:<8} "
                         f"{rec}{layers}{note}")
        return "\n".join(lines)


class ChaosPlan:
    """A seeded, ordered schedule of fault injections."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.schedule: List[Tuple[str, Dict]] = []

    def add(self, injector: str, **params) -> "ChaosPlan":
        if injector not in CATALOG:
            raise ValueError(f"unknown injector {injector!r}; have "
                             f"{sorted(CATALOG)}")
        self.schedule.append((injector, params))
        return self

    def rng_for(self, index: int) -> np.random.Generator:
        """Independent deterministic stream for fault ``index``."""
        return np.random.default_rng([self.seed, index])

    @classmethod
    def default(cls, kind: str, seed: int = 0, rounds: int = 1) -> "ChaosPlan":
        """``rounds`` passes over every catalog row of ``kind``."""
        if kind not in KINDS:
            raise ValueError(f"unknown chaos kind {kind!r}; have {KINDS}")
        plan = cls(seed)
        for _ in range(rounds):
            for name, row in CATALOG.items():
                if row.kind == kind:
                    plan.add(name)
        return plan

    def run(self, target, model: Optional[str] = None,
            sample=None) -> ChaosReport:
        """Inject every scheduled fault into ``target`` and score it.

        The schedule must hold one kind, and ``target`` must be what that
        kind damages: an export directory (``artifact``; faults hit copies,
        the directory is never touched), a compiled
        :class:`~repro.runtime.executor.Plan` (``plan``; faults hit deep
        copies), a running :class:`~repro.server.Server` (``server``) or a
        running :class:`~repro.fleet.Fleet` (``fleet``, ``sdc``).  Live
        targets also take the ``model`` to attack and a ``sample`` input for
        the warm-up and probe requests.
        """
        kinds = sorted({CATALOG[name].kind for name, _ in self.schedule})
        if (len(kinds) != 1
                or not isinstance(target, _TARGETS[kinds[0]].takes)):
            raise ValueError(
                f"a chaos run needs a schedule of one kind and that kind's "
                f"target (artifact: export directory, plan: Plan, server: "
                f"Server, fleet or sdc: Fleet); got kinds {kinds} and a "
                f"{type(target).__name__}")
        t = _TARGETS[kinds[0]](target, model, sample)
        report = ChaosReport(self.seed)
        try:
            for i, (name, params) in enumerate(self.schedule):
                row = CATALOG[name]
                rec = FaultRecord(index=i, injector=name, params=dict(params))
                report.add(rec)
                try:
                    rec.details = t.inject(i, name, row.inject,
                                           self.rng_for(i), params)
                except NotApplicable as exc:
                    rec.not_applicable = str(exc)
                    telemetry.emit("chaos_not_applicable", injector=name,
                                   index=i, reason=rec.not_applicable)
                    continue
                undo = rec.details.pop("undo", None)
                telemetry.emit("chaos_inject", injector=name, index=i,
                               **rec.details)
                try:
                    for layer in row.layers:
                        rec.layers[layer] = getattr(t, layer)(rec)
                finally:
                    if undo is not None:
                        undo()
                rec.detected = all(rec.layers.values())
                rec.recovered = t.recovered(rec)
                _emit_outcome(rec)
        finally:
            t.close()
        return report


def _emit_outcome(rec: FaultRecord) -> None:
    if rec.detected:
        telemetry.emit("chaos_detected", injector=rec.injector,
                       index=rec.index, recovered=rec.recovered,
                       layers=rec.layers)
    else:
        telemetry.emit("chaos_missed", level="error", injector=rec.injector,
                       index=rec.index, recovered=rec.recovered,
                       layers=rec.layers)


def _raises(error, fn, *args, **kwargs) -> bool:
    """True when ``fn`` refuses its input with the typed ``error``."""
    try:
        fn(*args, **kwargs)
    except error:
        return True
    return False


def _registry_gate(error, good: Dict, bad: Dict) -> Tuple[bool, bool]:
    """Register ``good``, then try to activate ``bad`` on the same fresh
    registry.  Returns (``bad`` refused with ``error``, ``good`` still
    active)."""
    registry = ModelRegistry()
    registry.register("chaos", "good", **good)
    refused = _raises(error, registry.register, "chaos", "bad",
                      activate=True, **bad)
    return refused, registry.active_version("chaos") == "good"


class _PlanRunner:
    """Minimal registry-compatible runner wrapping a compiled plan.

    Exposes ``.plan`` so :meth:`~repro.server.ModelRegistry.register` picks
    it up and its verification gate applies — the path under test.
    """

    def __init__(self, plan):
        self.plan = plan

    def __call__(self, batch):
        return self.plan(batch)


# --------------------------------------------------------------- targets
# One class per kind.  ``takes`` is the type of target it damages;
# ``inject`` prepares the target for fault ``i`` and calls the injector;
# one method per detection layer (named as in the catalog) scores the
# fault; ``recovered`` checks known-good state once the fault is undone.
class _Target:
    def __init__(self, target, model, sample):
        self.target, self.model, self.sample = target, model, sample

    def close(self) -> None:
        pass


class _Artifacts(_Target):
    """Each fault damages a fresh copy of the export directory."""

    takes = (str, os.PathLike)

    def __init__(self, *args):
        super().__init__(*args)
        self.workdir = tempfile.mkdtemp(prefix="repro-chaos-")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def inject(self, i, name, inject, rng, params) -> Dict:
        self.damaged = os.path.join(self.workdir, f"fault-{i:02d}-{name}")
        shutil.copytree(self.target, self.damaged)
        return inject(self.damaged, rng, **params)

    def verify(self, rec) -> bool:
        """The deep audit reports the damage."""
        audit = verify_artifacts(self.damaged)
        rec.annotate(", ".join(sorted({f.rule for f in audit.findings})))
        return not audit.ok

    def load(self, rec) -> bool:
        """Loading raises a typed ArtifactError."""
        return _raises(ArtifactError, load_state_dict, self.damaged)

    def registry(self, rec) -> bool:
        """The registry refuses to admit the damaged directory."""
        refused, self.kept_good = _registry_gate(
            ArtifactError, {"runner": _identity, "artifacts": self.target},
            {"runner": _identity, "artifacts": self.damaged})
        return refused

    def recovered(self, rec) -> bool:
        return self.kept_good


def _identity(batch):
    return batch


class _Plans(_Target):
    """Each fault corrupts a deep copy of the compiled plan; the clean plan
    must keep proving clean."""

    takes = Plan

    def inject(self, i, name, inject, rng, params) -> Dict:
        self.mutant = copy.deepcopy(self.target)
        return inject(self.mutant, rng, **params)

    def verifier(self, rec) -> bool:
        """The static verifier reports errors."""
        report = self.mutant.verify(refresh=True)
        rec.annotate(", ".join(sorted({f.rule for f in report.findings
                                       if f.severity == "ERROR"})))
        return not report.ok

    def registry(self, rec) -> bool:
        """The registry's verification gate refuses the mutant."""
        refused, self.kept_good = _registry_gate(
            PlanVerificationError, {"runner": _PlanRunner(self.target)},
            {"runner": _PlanRunner(self.mutant)})
        return refused

    def recovered(self, rec) -> bool:
        return self.kept_good and self.target.verify(refresh=True).ok


class _Live(_Target):
    """A running Server or Fleet, attacked through ``model``; warmed by
    ``warm`` requests that must all be served."""

    warm = 1

    def __init__(self, *args):
        super().__init__(*args)
        for pending in [self.submit() for _ in range(self.warm)]:
            resp = pending.result(timeout=_TIMEOUT_S)
            if not resp.ok:
                raise RuntimeError(f"chaos warm-up probe failed: {resp}")

    def submit(self, deadline_s: float = _DEADLINE_S):
        return self.target.submit(self.model, self.sample,
                                  deadline_s=deadline_s)

    def probe(self) -> bool:
        """A request is served within the probe timeout."""
        try:
            return bool(self.submit().result(timeout=_TIMEOUT_S).ok)
        except TimeoutError:
            return False

    def recovered(self, rec) -> bool:
        return self.probe()


class _Server(_Live):
    """Each fault perturbs the running gateway's lane for ``model``."""

    takes = Server

    def inject(self, i, name, inject, rng, params) -> Dict:
        self.lane = self.target._lanes[self.model]
        self.t_inject = time.perf_counter()
        details = inject(self.target, self.model, rng, **params)
        self.stalled = details.pop("stalled", None)
        return details

    def typed_failure(self, rec) -> bool:
        """The request whose batch met the fault resolves as a typed
        Failed instead of hanging."""
        try:
            resp = self.submit().result(timeout=_TIMEOUT_S)
        except TimeoutError:
            rec.annotate("the faulted batch's request hung")
            return False
        rec.annotate(f"faulted request -> {type(resp).__name__}")
        return isinstance(resp, Failed)

    def flight_recorder(self, rec) -> bool:
        """The lane's flight recorder holds the failed batch's
        ``batch_failed`` event."""
        return any(e["kind"] == "batch_failed" and e["t"] >= self.t_inject
                   for e in self.lane.flight.snapshot())

    def next_ok(self, rec) -> bool:
        """The executor outlived the fault: the next request is served."""
        return self.probe()

    def liveness(self, rec) -> bool:
        """A request submitted while one executor is stalled resolves
        within the stall plus the probe timeout; with a peer executor it is
        served before the stall ends."""
        stall_s = rec.details["stall_s"]
        first = self.submit(stall_s + _DEADLINE_S)   # meets the stall
        if not self.stalled.wait(_TIMEOUT_S):
            rec.annotate("no plan call met the stall")
            return False
        try:
            resp = self.submit(stall_s + _DEADLINE_S).result(
                timeout=stall_s + _TIMEOUT_S)
            during = not first.done()
            first.result(timeout=stall_s + _TIMEOUT_S)
        except TimeoutError:
            rec.annotate("request hung through the stall")
            return False
        executors = len(self.lane.threads)
        rec.annotate(f"resolved {type(resp).__name__} "
                     f"{'during' if during else 'after'} the {stall_s}s "
                     f"stall ({executors} executor(s))")
        return resp.ok and during if executors > 1 else True

    def admission(self, rec) -> bool:
        """Admission control sheds (typed Overloaded) a request whose
        deadline the skewed service-clock projection cannot meet."""
        resp = self.submit(rec.details["skew_s"] / 4).result(
            timeout=_TIMEOUT_S)
        rec.annotate(f"short-deadline probe -> {type(resp).__name__}")
        return isinstance(resp, Overloaded)


class _Fleet(_Live):
    """Each fault hits one replica of the running fleet while a burst of 16
    requests is in flight.  A crash or partition lands after the burst is
    sent, so the victim holds work when it goes."""

    takes = Fleet
    sdc = False

    def inject(self, i, name, inject, rng, params) -> Dict:
        fleet = self.target
        self.lost = fleet.requests_lost
        self.size = fleet.status()["models"][self.model]["target_replicas"]
        if not self.sdc:
            self.burst = [self.submit() for _ in range(16)]
        details = inject(fleet, self.model, rng, **params)
        if self.sdc:
            self.burst = [self.submit() for _ in range(16)]
        return details

    def _ring(self):
        router = self.target.router
        return (router.members(self.model, ROLE_STABLE)
                | router.members(self.model, ROLE_CANARY))

    def _victim(self, rec):
        return next(r for r in self.target.replicas(self.model)
                    if r.replica_id == rec.details["replica"])

    def _await(self, predicate, timeout_s: float = _TIMEOUT_S) -> bool:
        return _poll(predicate, timeout_s, self.target.health_tick)

    def requeued(self, rec) -> bool:
        """Every straddling request was served (rerouted off the victim)
        and the fleet lost none."""
        resolved = [p.result(timeout=_TIMEOUT_S) for p in self.burst]
        ok = sum(r.ok for r in resolved)
        lost = self.target.requests_lost - self.lost
        rec.annotate(f"{ok}/{len(resolved)} straddling requests ok, "
                     f"lost {lost}")
        return ok == len(resolved) and lost == 0

    no_loss = requeued

    def ejected(self, rec) -> bool:
        """The router drops the victim from every ring within one health
        interval."""
        victim = rec.details["replica"]
        return self._await(lambda: victim not in self._ring(),
                           self.target.config.health_interval_s + 1.0)

    def rerouted(self, rec) -> bool:
        """A probe is served with the victim out of the ring."""
        return self.probe()

    def not_replaced(self, rec) -> bool:
        """A partitioned replica is alive: the fleet spawns no
        replacement."""
        live = [r for r in self.target.replicas(self.model)
                if r.state in (STARTING, READY, PARTITIONED)]
        return len(live) <= self.size

    def flagged(self, rec) -> bool:
        """A typed SDC event (ABFT, scrubber or golden probe) lands on the
        victim."""
        server = self._victim(rec).server
        flagged = self._await(lambda: server.sdc_detected)
        source = server.sdc_events[0]["source"] if flagged else "nothing"
        rec.annotate(f"flagged by {source}")
        return flagged

    def quarantined(self, rec) -> bool:
        """The victim is a QUARANTINED tombstone, out of every ring."""
        victim = self._victim(rec)
        return self._await(lambda: victim.state == QUARANTINED
                           and victim.replica_id not in self._ring())

    def recovered(self, rec) -> bool:
        """The group is back at its target count of healthy replicas (a
        replacement spawned, or the healed victim rejoined) and serves a
        probe."""
        return self._await(
            lambda: sum(r.healthy() for r in self.target.replicas(self.model))
            >= self.size and self.probe())


class _SdcFleet(_Fleet):
    """An SDC fault lands before the burst is sent, so the burst straddles
    detection and quarantine.  It is only caught when the fleet runs a
    defence (``FleetConfig.golden_every`` / ``scrub_every``, or the
    ``abft_every`` / ``scrub_interval_s`` of the ``ServerConfig`` in
    ``FleetConfig.server``); with none on,
    every one is an intended miss.  Requests served between a corruption
    and its detection may carry wrong values: detection is sampled or
    periodic by design, and the scorecard measures time-bounded detection.
    """

    sdc = True
    warm = 8  # arena faults need live bindings on every replica to target


_TARGETS = {"artifact": _Artifacts, "plan": _Plans, "server": _Server,
            "fleet": _Fleet, "sdc": _SdcFleet}
