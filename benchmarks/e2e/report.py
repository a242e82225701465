"""Raw rounds -> headline metrics.

Pure functions over the dicts the workload subprocesses return, so a reviewer
can recompute every headline number from the ``rounds`` stored in ``--out``.
No ``repro`` import: ``agree.py`` and ``--selftest`` use this module alone.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from benchmarks.e2e import estimators as est
from benchmarks.e2e.loadgen import RATE_HZ

SERVING = tuple(RATE_HZ)
#: the gateway's ``max_batch``: ``server.efficiency_frac`` compares the
#: server's throughput with the raw plan at this batch size
GATEWAY_BATCH = 16


def _pooled(rounds: Sequence[Dict], *path: str) -> np.ndarray:
    chunks = []
    for r in rounds:
        node = r
        for key in path:
            node = node[key]
        chunks.append(np.asarray(node, dtype=np.float64))
    return np.concatenate(chunks)


def _rate_latencies(rounds: Sequence[Dict]) -> np.ndarray:
    """Pooled ``rate``-phase latencies; a missed request (stored as -1) is
    ``inf``."""
    lat = _pooled(rounds, "phases", "rate", "latencies_ms")
    return np.where(lat < 0, np.inf, lat)


def end_to_end(workload: str, rounds: Sequence[Dict]) -> Dict[str, float]:
    """The five end-to-end metrics of one workload from its rounds.

    ``throughput_per_s`` and ``p50_ms`` are read off the quietest slice of
    the pooled rounds wherever a slice holds enough operations (see
    ``estimators``): the open-loop ``rate`` phases run at ~20 % utilisation,
    where a neighbour costs little and a 0.25 s slice holds too few requests
    for its own median, so there ``p50_ms`` is the median over all requests;
    a zoo pass takes seconds, so for ``deploy_zoo`` a round is the slice:
    the lower quartile of all passes, the median pass of the quietest round.
    """
    if workload in SERVING:
        throughput = float(_pooled(rounds, "phases", "sat",
                                   "segment_rates").max())
        p50 = est.percentile(_rate_latencies(rounds), 50)[0]
    elif workload == "deploy_zoo":
        throughput = (rounds[0]["models_per_pass"]
                      / est.lower_quartile(_pooled(rounds, "pass_s")))
        p50 = min(float(np.median(r["pass_s"])) for r in rounds) * 1e3
    else:
        throughput = float(_pooled(rounds, "segment_rates").max())
        p50 = float(_pooled(rounds, "segment_p50_ms").min())
    return {
        # set-up is a fixed amount of work and interference only adds to it:
        # the fastest of the rounds' set-ups is the steadiest estimate (over
        # ten runs it spread less than their median on three workloads of four)
        "setup_s": float(min(r["setup_s"] for r in rounds)),
        "throughput_per_s": throughput,
        "p50_ms": p50,
        "goodput_frac": (sum(r["good"] for r in rounds)
                         / sum(r["attempted"] for r in rounds)),
        "peak_rss_mb": float(np.median([r["peak_rss_mb"] for r in rounds])),
    }


def sample_counts(workload: str, rounds: Sequence[Dict]) -> Dict[str, int]:
    """How many samples stand behind each estimate."""
    if workload in SERVING:
        return {"throughput_segments": int(_pooled(
                    rounds, "phases", "sat", "segment_rates").size),
                "p50_latencies": int(_pooled(
                    rounds, "phases", "rate", "latencies_ms").size),
                "rounds": len(rounds)}
    if workload == "deploy_zoo":
        n = int(_pooled(rounds, "pass_s").size)
        return {"throughput_passes": n, "p50_passes": n, "rounds": len(rounds)}
    return {"throughput_segments": int(_pooled(rounds, "segment_rates").size),
            "p50_segments": int(_pooled(rounds, "segment_p50_ms").size),
            "latencies": int(_pooled(rounds, "latencies_ms").size),
            "rounds": len(rounds)}


def tail_latency(rounds: Sequence[Dict]) -> Dict[str, float]:
    """``rate``-phase tail: the highest percentile with at least ten samples
    beyond it, and how many samples it stands on.  Reported, never gated."""
    lat = _rate_latencies(rounds)
    q = est.supported_tail(lat.size)
    value, n = est.percentile(lat, q)
    return {"percentile": q, "ms": value, "n": n}


def offered_util(workload: str, rounds: Sequence[Dict]) -> float:
    """Offered open-loop rate over the saturation throughput of the same
    rounds; above ~0.75 the ``rate`` phase stops being a latency measurement."""
    return RATE_HZ[workload] / end_to_end(workload, rounds)["throughput_per_s"]


def generator_late_ms_p99(rounds: Sequence[Dict]) -> float:
    return max(r["phases"]["rate"]["generator_late_ms_p99"] for r in rounds)


def per_layer(traced: Dict[str, Dict], untraced: Dict[str, List[Dict]]
              ) -> Dict[str, float]:
    """All per-layer metrics from one traced round of every workload.

    ``untraced`` holds the untraced rounds of the workloads the invocation
    selected; ``trace.overhead_frac`` is the worst throughput loss among them.
    """
    out: Dict[str, float] = {}
    for rnd in traced.values():
        out.update(rnd["layers"])
    thr = {w: end_to_end(w, [r])["throughput_per_s"] for w, r in traced.items()}
    out["runtime.gmacs_per_s"] = (out["runtime.macs_per_img"]
                                  * thr["offline_cnn"] / 1e9)
    out["server.efficiency_frac"] = thr["online_unique"] / (
        GATEWAY_BATCH / out["runtime.exec_ms_b16"] * 1e3)
    out["fleet.efficiency_frac"] = thr["fleet_zipf"] / thr["online_unique"]
    out["loadgen.late_ms_p99"] = max(
        generator_late_ms_p99([traced[w]]) for w in SERVING)
    out["loadgen.offered_util"] = max(
        offered_util(w, [traced[w]]) for w in SERVING)
    out["loadgen.repeat_content_frac"] = traced["fleet_zipf"][
        "repeat_content_frac"]
    out["trace.overhead_frac"] = max(
        1.0 - thr[w] / end_to_end(w, rounds)["throughput_per_s"]
        for w, rounds in untraced.items())
    return out


def table(title: str, values: Dict[str, float], units: Dict[str, str]) -> str:
    width = max(len(n) for n in values)
    lines = [title]
    for name, v in values.items():
        lines.append(f"  {name:<{width}}  {v:>14.6g}  {units[name]}")
    return "\n".join(lines)
