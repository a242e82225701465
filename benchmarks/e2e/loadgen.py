"""Seeded traffic and the two load loops (open and closed).

All load the benchmark offers is generated here — nothing under ``src/`` is
called to produce it, so a change to the program's own load generators
cannot change what the benchmark measures.  One process, two threads
(matching the two cores of the reference host): the calling thread generates
and submits, one collector thread waits on the handles in FIFO order and
stamps each completion.  Only timestamps, status codes and a sample of the
outputs are kept — never handles or inputs — so the harness's own memory
does not show up in ``peak_rss_mb``.
"""
from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

OK, SHED, FAILED, TIMEOUT = 0, 1, 2, 3
STATUS_NAMES = ("ok", "shed", "failed", "timeout")

#: offered rates of the open-loop phases, req/s.  Constants — not scaled to
#: the measured speed — so a parent commit and a change see the same traffic;
#: ~40 % of what the pipeline host saturates at.  A run whose
#: ``loadgen.offered_util`` passes :data:`MAX_OFFERED_UTIL` fails: lower these.
RATE_HZ = {"online_unique": 500.0, "fleet_zipf": 400.0}
MAX_OFFERED_UTIL = 0.75

#: grace on top of the request deadline before the collector gives up on a
#: handle (a lost request must cost a bounded wait, not a hang)
RESULT_GRACE_S = 10.0


# ------------------------------------------------------------------ schedules
def poisson_due(rng: np.random.Generator, rate_hz: float,
                seconds: float) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson process at
    ``rate_hz`` over ``[0, seconds)``."""
    n = int(rate_hz * seconds * 1.25) + 64
    due = np.cumsum(rng.exponential(1.0 / rate_hz, size=n))
    return due[due < seconds]


def zipf_probs(n_items: int, s: float) -> np.ndarray:
    p = np.arange(1, n_items + 1, dtype=np.float64) ** -s
    return p / p.sum()


# -------------------------------------------------------------------- traffic
class ImagePool:
    """``pool[j]`` rolled by ``lap`` elements, as a zero-copy view.

    Each image is stored flattened and doubled, so any cyclic shift is one
    contiguous slice; ``content = lap * len(pool) + j`` names the tensor.  A
    shifted image stays distinct after the model's 8-bit input quantisation,
    which a small additive perturbation would not.
    """

    def __init__(self, images: np.ndarray):
        self.shape = images.shape[1:]
        flat = np.ascontiguousarray(images, dtype=np.float32).reshape(
            images.shape[0], -1)
        self.n, self.length = flat.shape
        self._doubled = np.concatenate([flat, flat], axis=1)

    @property
    def capacity(self) -> int:
        return self.n * self.length

    def sample(self, content: int) -> np.ndarray:
        lap, j = divmod(content, self.n)
        if lap >= self.length:
            raise IndexError(f"content id {content} exceeds the pool's "
                             f"{self.capacity} distinct tensors")
        start = self.length - lap
        return self._doubled[j, start:start + self.length].reshape(self.shape)


class UniqueTraffic:
    """One model, every request a tensor never sent before in this process."""

    def __init__(self, pool: ImagePool, model: str):
        self.pool, self.model = pool, model

    def request(self, i: int) -> Tuple[str, np.ndarray, Optional[str], int]:
        return self.model, self.pool.sample(i), None, i


class ZipfTraffic:
    """Tenant mix over ``models``; content Zipf(s) over one shared catalogue;
    ``route_key`` a user id drawn independently of the content.

    Both models are sent the *same* catalogue tensors, so a result cache that
    forgot the model in its key would hand one model's logits to the other —
    which the per-``(model, content)`` identity check catches.
    """

    CHUNK = 1 << 15

    def __init__(self, pool: ImagePool, models: Tuple[str, ...],
                 weights: Tuple[float, ...], seed_seq, catalogue: int = 4096,
                 s: float = 1.1, users: int = 1000):
        if catalogue > pool.capacity:
            raise ValueError("catalogue larger than the pool can name")
        self.pool, self.models = pool, tuple(models)
        self._w = np.asarray(weights, dtype=np.float64) / sum(weights)
        self._p = zipf_probs(catalogue, s)
        self._seed = tuple(seed_seq)
        self.users = [f"user-{u}" for u in range(users)]
        self._chunk_no = -1
        self._chunk: Tuple[np.ndarray, ...] = ()

    def draw(self, chunk_no: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(model index, content id, user id)`` arrays of chunk ``chunk_no``
        — a pure function of the seed, so the stream is reproducible however
        far a fast program pulls it."""
        rng = np.random.default_rng(self._seed + (chunk_no,))
        return (rng.choice(len(self.models), size=self.CHUNK, p=self._w),
                rng.choice(self._p.size, size=self.CHUNK, p=self._p),
                rng.integers(0, len(self.users), size=self.CHUNK))

    def request(self, i: int) -> Tuple[str, np.ndarray, Optional[str], int]:
        chunk_no, k = divmod(i, self.CHUNK)
        if chunk_no != self._chunk_no:
            self._chunk, self._chunk_no = self.draw(chunk_no), chunk_no
        m, c, u = self._chunk
        content = int(c[k])
        return (self.models[m[k]], self.pool.sample(content),
                self.users[u[k]], content)


# ---------------------------------------------------------------- load loops
@dataclass
class Phase:
    """Raw record of one load phase (index ``i`` is the i-th request sent)."""

    t0: float
    t1: float
    due: Optional[np.ndarray]            #: absolute due times (open loop)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    status: List[int] = field(default_factory=list)
    models: List[str] = field(default_factory=list)
    contents: List[int] = field(default_factory=list)
    #: ``(i, logits)`` for every ``sample_every``-th request, checked later
    samples: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    identity_mismatches: int = 0
    # --- traced runs only
    submit_end: List[float] = field(default_factory=list)
    queue_wait_s: List[float] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    batch_size: List[int] = field(default_factory=list)
    attempts: List[int] = field(default_factory=list)
    served_by: Dict[str, int] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        c = collections.Counter(self.status)
        out = {"sent": len(self.sent)}
        out.update({name: int(c.get(code, 0))
                    for code, name in enumerate(STATUS_NAMES)})
        return out


def run_phase(submit: Callable, traffic, first: int, *, seconds: float,
              deadline_s: float, due: Optional[np.ndarray] = None,
              outstanding: int = 0, seen: Optional[Dict] = None,
              sample_every: int = 64, detail: bool = False) -> Phase:
    """Drive one phase and return its raw record.

    Open loop when ``due`` is given (send request ``i`` at ``t0 + due[i]``
    whatever the program is doing); otherwise closed loop with
    ``outstanding`` requests in flight for ``seconds``.  ``submit(model,
    sample, deadline_s, route_key)`` returns a handle with ``result(timeout)``.
    ``seen`` maps ``(model, content)`` to the first logits bytes observed:
    every later response for the same key must be bitwise identical.
    """
    if (due is None) == (outstanding <= 0):
        raise ValueError("pass either due= (open loop) or outstanding= (closed)")
    fifo: collections.deque = collections.deque()
    ready = threading.Semaphore(0)
    tokens = threading.Semaphore(outstanding) if due is None else None
    t0 = time.perf_counter()
    ph = Phase(t0=t0, t1=t0 + seconds, due=None if due is None else t0 + due)

    def collect() -> None:
        while True:
            ready.acquire()
            item = fifo.popleft()
            if item is None:
                return
            i, handle, model, content = item
            try:
                resp = handle.result(timeout=deadline_s + RESULT_GRACE_S)
            except TimeoutError:
                resp = None
            ph.done.append(time.perf_counter())
            if resp is None:
                ph.status.append(TIMEOUT)
            elif resp.ok:
                ph.status.append(OK)
                if i % sample_every == 0:
                    ph.samples.append((i, resp.logits))
                if seen is not None:
                    raw = resp.logits.tobytes()
                    if seen.setdefault((model, content), raw) != raw:
                        ph.identity_mismatches += 1
            else:
                ph.status.append(SHED if type(resp).__name__ == "Overloaded"
                                 else FAILED)
            if detail:
                ph.queue_wait_s.append(getattr(resp, "queue_wait_s", 0.0))
                ph.service_s.append(getattr(resp, "latency_s", 0.0)
                                    - getattr(resp, "queue_wait_s", 0.0))
                ph.batch_size.append(getattr(resp, "batch_size", 0))
                path = getattr(handle, "path", None)
                if path:
                    ph.attempts.append(len(path))
                    ph.served_by[path[-1]] = ph.served_by.get(path[-1], 0) + 1
            if tokens is not None:
                tokens.release()

    collector = threading.Thread(target=collect, name="e2e-collector",
                                 daemon=True)
    collector.start()
    try:
        i = 0
        while True:
            if due is not None:
                if i >= due.size:
                    break
                delay = ph.due[i] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            else:
                tokens.acquire()
                if time.perf_counter() >= ph.t1:
                    break
            model, x, route_key, content = traffic.request(first + i)
            ph.sent.append(time.perf_counter())
            handle = submit(model, x, deadline_s, route_key)
            if detail:
                ph.submit_end.append(time.perf_counter())
            ph.models.append(model)
            ph.contents.append(content)
            fifo.append((i, handle, model, content))
            ready.release()
            i += 1
    finally:
        fifo.append(None)
        ready.release()
        collector.join()
    return ph
