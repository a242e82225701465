"""Typed request/response records for the online gateway.

Every accepted request resolves to exactly one concrete
:class:`Response` subclass — :class:`Ok`, :class:`Overloaded` or
:class:`Failed` — never an exception out of the scheduler and never
silence.  ``retryable`` encodes the degradation contract: load-shed,
drained, killed-replica and silent-data-corruption results are safe to
resubmit, a deterministic plan error is not.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np


@dataclass
class Response:
    """Base record: which request, and which ``name@version`` served it."""

    request_id: int
    model: str

    ok: ClassVar[bool] = False
    retryable: ClassVar[bool] = False


@dataclass
class Ok(Response):
    """Successful inference for one sample."""

    logits: np.ndarray = None
    queue_wait_s: float = 0.0     #: enqueue -> batch close
    latency_s: float = 0.0        #: enqueue -> response
    batch_size: int = 0           #: size of the micro-batch that carried it
    batch_id: int = 0

    ok: ClassVar[bool] = True


@dataclass
class Overloaded(Response):
    """Typed admission-control rejection (load shedding).

    Returned *immediately* at submit time when the bounded queue is full or
    the projected queue wait already exceeds the request's deadline — the
    gateway degrades by shedding early rather than accepting work it will
    miss the deadline on.
    """

    reason: str = "overloaded"        #: ``queue_full`` | ``deadline``
    projected_wait_s: float = 0.0
    deadline_s: float = 0.0

    retryable: ClassVar[bool] = True


@dataclass
class Failed(Response):
    """The request was accepted but could not be answered.

    ``retryable=True`` marks infrastructure failures (detected silent
    data corruption, a killed replica, shutdown drain) where a resubmit is
    expected to succeed;
    ``retryable=False`` marks deterministic plan errors.
    """

    error: str = ""
    retryable: bool = False  # shadows the ClassVar with a per-instance flag


class PendingRequest:
    """Future-like handle returned by :meth:`repro.server.Server.submit`.

    ``result()`` blocks until the gateway resolves the request (which may be
    immediately, for an :class:`Overloaded` shed).  Timestamps use
    ``time.perf_counter()`` — the scheduler's clock.
    """

    __slots__ = ("request_id", "model", "sample", "enqueue_t", "deadline_s",
                 "ctx", "_event", "_response", "_callbacks")

    def __init__(self, request_id: int, model: str, sample: np.ndarray,
                 enqueue_t: float, deadline_s: float):
        self.request_id = request_id
        self.model = model
        self.sample = sample
        self.enqueue_t = enqueue_t
        self.deadline_s = deadline_s
        #: live-tracing context (set by the server when tracing is on)
        self.ctx = None
        self._event = threading.Event()
        self._response: Optional[Response] = None
        self._callbacks: list = []

    def done(self) -> bool:
        return self._event.is_set()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(response)`` when the request resolves (immediately if it
        already has).  This is the replica-mode hook the fleet layer uses to
        fail requests over to another replica without a thread per request;
        callbacks run on the resolving thread (a lane executor, usually) and
        must not block.  Exceptions from ``fn`` are swallowed — a broken
        observer must never wedge a lane.
        """
        self._callbacks.append(fn)
        if self._event.is_set():
            self._drain_callbacks()

    def _drain_callbacks(self) -> None:
        # list.pop is atomic under the GIL, so a callback registered in a
        # race with _resolve() runs exactly once (on whichever side pops it)
        while self._callbacks:
            try:
                fn = self._callbacks.pop(0)
            except IndexError:
                return
            try:
                fn(self._response)
            except Exception:
                pass

    def result(self, timeout: Optional[float] = None) -> Response:
        """The resolved :class:`Response`; raises ``TimeoutError`` if unset."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} ({self.model}) unresolved "
                f"after {timeout}s")
        return self._response

    def _resolve(self, response: Response) -> None:
        if self._event.is_set():  # first resolution wins (e.g. retry races)
            return
        self._response = response
        self._event.set()
        self._drain_callbacks()

    def __repr__(self) -> str:
        state = type(self._response).__name__ if self.done() else "pending"
        return f"PendingRequest(#{self.request_id}, {self.model}, {state})"
