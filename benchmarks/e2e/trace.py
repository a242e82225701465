"""Outside-in span recorder for the traced run.

Spans are recorded from this directory only: around the harness's own calls
into each layer, and — for the stages ``deploy()`` runs internally — by
wrapping the *public* callables it goes through (:data:`DEPLOY_STAGES`) for
the lifetime of the traced subprocess.  Nothing inside ``src/`` is edited or
asked to trace itself, and the untraced rounds never install a wrapper.

A span is ``{"id", "name", "start", "end", "parent", "op"}``: times are
seconds since the tracer was created, ``parent`` is the id of the span that
caused it (``None`` at a root) and ``op`` identifies the operation — batch
number, request number, or ``pass/model`` — so all spans of one operation
share it.  Everything stays in memory until :meth:`Tracer.spans_json`.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Dict, List, Optional

#: ``(module, attribute path, span name)`` of the public callables ``deploy()``
#: and ``ModelRegistry.register`` run through.  ``T2C.nn2chip`` re-packs and
#: then calls ``export_model``, so the re-pack is its *self* time.
DEPLOY_STAGES = (
    ("repro.core.t2c", "T2C.fuse", "core.fuse"),
    ("repro.core.t2c", "T2C.lint", "lint.module"),
    ("repro.core.t2c", "T2C.nn2chip", "core.repack"),
    ("repro.export.writer", "export_model", "export.write"),
    ("repro.export.writer", "amend_manifest", "export.write"),
    ("repro.runtime", "Plan.compile", "runtime.compile"),
    ("repro.runtime", "Plan.verify", "lint.plan_verify"),
    ("repro.integrity", "GoldenSet.record", "integrity.golden_record"),
    ("repro.export.integrity", "verify_artifacts", "export.verify"),
    ("os", "fsync", "export.fsync"),
)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: List[Dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List = []

    # ------------------------------------------------------------ recording
    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, op=None) -> int:
        """Record a finished span from absolute ``perf_counter`` stamps."""
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name,
                               "start": start - self.t0, "end": end - self.t0,
                               "parent": parent, "op": op})
        return sid

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        with self._lock:
            sid = len(self.spans)
            rec = {"id": sid, "name": name, "start": 0.0, "end": 0.0,
                   "parent": parent, "op": op}
            self.spans.append(rec)
        stack.append(sid)
        rec["start"] = time.perf_counter() - self.t0
        try:
            yield sid
        finally:
            rec["end"] = time.perf_counter() - self.t0
            stack.pop()

    # ------------------------------------------------------------- wrapping
    def wrap(self, module: str, path: str, name: str) -> None:
        """Replace ``module.path`` (``func`` or ``Class.method``) by a version
        that records a span around every call."""
        owner = importlib.import_module(module)
        *holders, attr = path.split(".")
        for h in holders:
            owner = getattr(owner, h)
        raw = vars(owner)[attr]
        bound = isinstance(raw, (classmethod, staticmethod))
        fn = raw.__func__ if bound else raw

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, type(raw)(traced) if bound else traced)
        self._restore.append((owner, attr, raw))

    def wrap_all(self) -> None:
        for module, path, name in DEPLOY_STAGES:
            self.wrap(module, path, name)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def spans_json(self) -> List[Dict]:
        return [dict(s, start=round(s["start"], 7), end=round(s["end"], 7))
                for s in self.spans]


def self_times(spans: List[Dict], root: int) -> Dict[str, float]:
    """Self time per span name over the subtree under ``root`` (``root``
    excluded): a span's duration minus what its children cover."""
    children: Dict[Optional[int], List[Dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: Dict[str, float] = {}
    todo = list(children.get(root, ()))
    while todo:
        s = todo.pop()
        kids = children.get(s["id"], ())
        own = (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
        out[s["name"]] = out.get(s["name"], 0.0) + own
        todo.extend(kids)
    return out


def coverage(spans: List[Dict], root: int) -> float:
    """Share of ``root``'s duration that its direct children account for."""
    r = spans[root]
    covered = sum(s["end"] - s["start"] for s in spans if s["parent"] == root)
    return covered / (r["end"] - r["start"])


class NullTracer:
    """The untraced rounds' stand-in: ``span()`` costs one generator frame and
    records nothing (it is only ever used around coarse operations — a
    deploy, a server start — never per request or per batch)."""

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        yield None
