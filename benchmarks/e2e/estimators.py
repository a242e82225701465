"""Estimators that hold still on a shared host.

Interference from a neighbour only ever *removes* cycles: it slows some
stretches of a run and never speeds one up.  So a mean or a median over the
whole window drifts with the neighbour, while the fastest stretch stays where
the undisturbed program put it.  Every timed phase is therefore cut into
slices of :data:`SEGMENT_S`, the slices of all rounds are pooled, and the
headline numbers are read off the *quietest* slice: the highest completion
rate, the lowest per-slice median latency.  (On the reference host ten runs
of identical code spread 14 % on the mean rate, 10 % on the upper quartile
of slice rates and 2.5 % on the best slice; see ``README.md``.)
"""
from __future__ import annotations

import statistics
from typing import Sequence, Tuple

import numpy as np

#: length of one slice of a timed phase.  Long enough to hold ~15 batches of
#: 64 or ~30 micro-batches of 16, so a slice's rate is not a count of two or
#: three operations; short enough that a disturbed run still has clean ones.
SEGMENT_S = 0.25
#: completions stamped closer together than this belong to one burst (the
#: samples of one micro-batch resolve within microseconds of each other)
BURST_GAP_S = 0.0005


def segments(seconds: float) -> int:
    """How many whole slices a phase of ``seconds`` is cut into."""
    return max(1, int(seconds / SEGMENT_S + 1e-9))


def segment_rates(done: Sequence[float], t0: float, t1: float,
                  unit: float = 1.0) -> np.ndarray:
    """Work completed per second in each equal slice of ``[t0, t1]``.

    ``done`` holds completion timestamps (each worth ``unit`` of work; stamps
    past ``t1`` belong to operations still running at the cut).  The
    cumulative-work curve is interpolated linearly between *bursts* of
    completions, so a batch that straddles a slice boundary is split between
    the slices in proportion — counting whole batches per slice would quantise
    the rate in steps of one batch per slice (4-6 % here).
    """
    k = segments(t1 - t0)
    done = np.sort(np.asarray(done, dtype=np.float64))
    done = done[done >= t0]
    work = np.arange(1, done.size + 1, dtype=np.float64) * unit
    last_of_burst = np.append(np.diff(done) > BURST_GAP_S, True)
    xp = np.concatenate(([t0], done[last_of_burst]))
    fp = np.concatenate(([0.0], work[last_of_burst]))
    edges = np.linspace(t0, t1, k + 1)
    return np.diff(np.interp(edges, xp, fp)) / ((t1 - t0) / k)


def segment_medians(values: Sequence[float], at: Sequence[float], t0: float,
                    t1: float, min_samples: int = 5) -> np.ndarray:
    """Median of ``values`` within each slice of ``[t0, t1]`` (``at[i]`` is
    when sample ``i`` happened); slices with too few samples are left out."""
    k = segments(t1 - t0)
    values = np.asarray(values, dtype=np.float64)
    idx = np.clip(((np.asarray(at, dtype=np.float64) - t0)
                   / (t1 - t0) * k).astype(int), 0, k - 1)
    return np.asarray([np.median(values[idx == j]) for j in range(k)
                       if np.count_nonzero(idx == j) >= min_samples])


def lower_quartile(values: Sequence[float]) -> float:
    return float(np.quantile(np.asarray(values, dtype=np.float64), 0.25))


def due_latencies(due: Sequence[float], done: Sequence[float],
                  ok: Sequence[bool]) -> np.ndarray:
    """Open-loop latency, ``completion - due`` (not ``- sent``): a stall that
    delays the generator is charged to the requests it delayed.  A request
    that was shed, failed or timed out misses every latency limit, so it
    enters the distribution as ``inf``."""
    lat = np.asarray(done, dtype=np.float64) - np.asarray(due, dtype=np.float64)
    return np.where(np.asarray(ok, dtype=bool), lat, np.inf)


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """``(q-th percentile, sample count)`` — the count travels with every
    percentile so a reader can tell a p99 over 10^4 samples from one over 50."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return float("nan"), 0
    return float(np.percentile(v, q, method="lower" if np.isinf(v).any()
                               else "linear")), int(v.size)


def supported_tail(n: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = 500
    for per_mille in (900, 950, 990, 999):
        if n * (1000 - per_mille) >= 10 * 1000:
            best = per_mille
    return best / 10.0


def repeat_fraction(contents: Sequence) -> float:
    """Share of requests whose content was already sent earlier in the stream
    — the ceiling on any result cache's hit rate."""
    seen, repeats, n = set(), 0, 0
    for c in contents:
        n += 1
        if c in seen:
            repeats += 1
        else:
            seen.add(c)
    return repeats / n if n else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure, ``statistics.quantiles(values, n=4)``)."""
    q1, med, q3 = statistics.quantiles(list(values), n=4)
    return (q3 - q1) / med if med else float("inf")
