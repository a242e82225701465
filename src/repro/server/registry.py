"""Multi-model registry keyed by ``name@version``.

The registry is the gateway's source of truth for *what* can be served:
each entry wraps a :class:`repro.core.deploy.Deployed` bundle (or any
batch-callable, for tests), every name carries an *active* version, and
activation flips are atomic under the registry lock.  The registry itself
never drains traffic — :meth:`repro.server.Server.swap` layers
drain-and-cutover on top so two plans never race on one arena.

:meth:`ModelRegistry.check` is the serving path's only hand-off gate: it
audits an entry's on-disk artifacts (``DeploySpec.export_dir``, or an
explicit ``artifacts=`` directory), proves its compiled plan (reusing the
proof ``deploy()`` cached on it) and, for a swap, replays its golden
vectors.  ``register``, ``set_active`` and ``Server.swap`` all run it; a
refusal raises the typed error and the previous active version keeps
serving.  Re-registering an existing ``name@version`` with a different
callable raises :class:`DuplicateVersionError` unless ``replace=True``.

Usage::

    reg = ModelRegistry()
    reg.register("resnet20", "1", deploy(qmodel, spec))
    reg.get("resnet20")          # active version
    reg.get("resnet20@2")        # exact version
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry


class DuplicateVersionError(ValueError):
    """``name@version`` is already registered with a different callable."""


def split_key(key: str) -> Tuple[str, Optional[str]]:
    """``"name@version"`` -> ``(name, version)``; bare names give ``None``."""
    name, sep, version = key.partition("@")
    if not name or (sep and not version):
        raise ValueError(f"malformed model key {key!r}; expected "
                         f"'name' or 'name@version'")
    return name, (version if sep else None)


@dataclass
class ModelEntry:
    """One servable (model, version): the runner plus its deploy artifacts."""

    name: str
    version: str
    runner: Callable                 #: batch -> logits (Deployed, Plan, stub)
    plan: object = None              #: compiled Plan when available (pool mode)
    qnn: object = None               #: interpreted integer tree (exactness ref)
    deployed: object = None          #: full Deployed bundle when built via deploy()
    artifacts: Optional[str] = None  #: on-disk artifact dir backing this version
    meta: Dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        return f"{self.name}@{self.version}"

    @property
    def golden(self):
        """The deploy-time golden vectors: the ``Deployed`` bundle's
        :class:`~repro.integrity.GoldenSet`, or one rebuilt from the
        manifest-shaped dict registered under ``meta['golden']``."""
        golden = getattr(self.deployed, "golden", None)
        if golden is None and self.meta.get("golden") is not None:
            from repro.integrity import GoldenSet

            golden = GoldenSet.from_json(self.meta["golden"])
        return golden

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return self.runner(batch)


class ModelRegistry:
    """Thread-safe ``name@version`` -> :class:`ModelEntry` store."""

    def __init__(self):
        self._lock = threading.RLock()
        self._entries: Dict[str, Dict[str, ModelEntry]] = {}
        self._active: Dict[str, str] = {}

    # ----------------------------------------------------------- population
    def register(self, name: str, version: str, deployed=None, *,
                 runner: Optional[Callable] = None,
                 activate: Optional[bool] = None,
                 artifacts: Optional[str] = None,
                 replace: bool = False, **meta) -> ModelEntry:
        """Add one entry; the first version of a name auto-activates.

        ``deployed`` is a :class:`~repro.core.deploy.Deployed` bundle (its
        plan/qnn are unpacked); ``runner`` registers any bare batch-callable
        instead (unit tests, external executors).  ``artifacts`` names the
        on-disk export directory backing this version — explicitly, or
        derived from the bundle's ``spec.export_dir`` when it wrote one —
        and the entry passes the :meth:`check` gate before it is admitted:
        a refusal raises the gate's typed error and leaves the registry
        untouched.  Re-registering an existing ``name@version``
        returns the existing entry when the callable is identical, raises
        :class:`DuplicateVersionError` when it differs, and overwrites only
        under ``replace=True``.
        """
        if "@" in name:
            raise ValueError(f"model name {name!r} must not contain '@'")
        if deployed is None and runner is None:
            raise ValueError("register() needs a Deployed bundle or a runner")
        if artifacts is None and deployed is not None \
                and getattr(deployed, "manifest", None) is not None:
            artifacts = getattr(getattr(deployed, "spec", None),
                                "export_dir", None)
        entry = ModelEntry(
            name=name, version=str(version),
            runner=runner if runner is not None else deployed,
            plan=getattr(deployed, "plan", None) if deployed is not None
            else getattr(runner, "plan", None),
            qnn=getattr(deployed, "qnn", None),
            deployed=deployed, artifacts=artifacts, meta=meta)
        self._gate(entry, "register")
        with self._lock:
            versions = self._entries.setdefault(name, {})
            existing = versions.get(entry.version)
            if existing is not None and not replace:
                if existing.runner is entry.runner:
                    return existing     # idempotent re-register
                raise DuplicateVersionError(
                    f"{entry.key} already registered with a different "
                    f"callable; pass replace=True to overwrite")
            versions[entry.version] = entry
            if activate or (activate is None and name not in self._active):
                self._active[name] = entry.version
        return entry

    def check(self, key: str, action: str) -> ModelEntry:
        """Run the hand-off gate on ``key`` now; returns the entry.

        ``action`` (``register``/``set_active``/``swap``) names the caller;
        only ``swap`` replays the golden vectors.  Each refusal emits one
        ``registry_rejected`` event with ``action`` and ``reason``
        (``artifacts``/``plan``/``golden``) and raises the typed error.
        """
        entry = self.get(key)
        self._gate(entry, action)
        return entry

    def _gate(self, entry: ModelEntry, action: str) -> None:
        def reject(reason, **detail):
            telemetry.emit("registry_rejected", level="error",
                           model=entry.key, action=action, reason=reason,
                           **detail)

        if entry.artifacts is not None:
            from repro.export.integrity import verify_artifacts

            report = verify_artifacts(entry.artifacts)
            if not report.ok:
                reject("artifacts", artifacts=entry.artifacts,
                       errors=report.to_json()["summary"]["errors"])
                report.raise_if_failed()
        if entry.plan is not None and hasattr(entry.plan, "verify"):
            from repro.lint.plan import PlanVerificationError

            vreport = entry.plan.verify()
            if not vreport.ok:
                reject("plan", errors=vreport.to_json()["summary"]["errors"])
                raise PlanVerificationError(vreport)
        golden = entry.golden if action == "swap" else None
        if golden is not None:
            from repro.integrity import SDCDetected

            try:
                golden.check(lambda x: np.asarray(entry(x)))
            except SDCDetected as exc:
                reject("golden", error=str(exc))
                raise

    # -------------------------------------------------------------- lookups
    def get(self, key: str) -> ModelEntry:
        """Resolve ``"name"`` (active version) or ``"name@version"`` (exact)."""
        name, version = split_key(key)
        with self._lock:
            versions = self._entries.get(name)
            if not versions:
                raise KeyError(f"model {name!r} not registered "
                               f"(have: {sorted(self._entries) or 'none'})")
            if version is None:
                version = self._active.get(name)
                if version is None:
                    raise KeyError(
                        f"model {name!r} has no active version (registered "
                        f"versions: {sorted(versions)}); activate one with "
                        f"set_active()")
            entry = versions.get(version)
            if entry is None:
                raise KeyError(f"{name}@{version} not registered "
                               f"(have versions: {sorted(versions)})")
            return entry

    def active_version(self, name: str) -> str:
        with self._lock:
            if name not in self._active:
                if name in self._entries:
                    raise KeyError(f"model {name!r} has no active version "
                                   f"(registered versions: "
                                   f"{sorted(self._entries[name])})")
                raise KeyError(f"model {name!r} not registered")
            return self._active[name]

    def set_active(self, name: str, version: str) -> ModelEntry:
        """Atomically flip the active version (must already be registered).

        The version passes the :meth:`check` gate first; artifacts that
        rotted since registration (or a plan that changed) raise the typed
        error and the previous active version keeps serving.
        """
        entry = self.check(f"{name}@{version}", "set_active")
        with self._lock:
            self._active[name] = entry.version
        return entry

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def versions(self, name: str) -> List[str]:
        with self._lock:
            return sorted(self._entries.get(name, {}))

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(e.key for vs in self._entries.values()
                          for e in vs.values())

    def __contains__(self, key: str) -> bool:
        try:
            self.get(key)
            return True
        except KeyError:
            return False

    def __len__(self) -> int:
        with self._lock:
            return sum(len(vs) for vs in self._entries.values())

    def __repr__(self) -> str:
        with self._lock:
            active = {n: f"{n}@{v}" for n, v in self._active.items()}
        return f"ModelRegistry({sorted(active.values())})"
