"""Observability + SDC-defense overhead budget: < 5% throughput, combined.

The live-observability layer (request-scoped tracing, sampled per-op
profiling, flight recorder, rolling SLO windows, periodic status export)
and the runtime SDC defenses (1-in-N sampled ABFT column-checksum
verification plus the background memory scrubber) are sold as cheap
enough to leave on in production paths.  This benchmark holds them to
that: the same closed-loop request stream is pushed through one gateway
with everything off and one with everything on, and the
answered-requests-per-second ratio must stay above 0.95.

Closed-loop (waves of submits, wait for all answers) rather than Poisson
open-loop: the offered rate then adapts to the machine, so the comparison
is self-normalizing and stable on a noisy CI box.  The two configurations
run in *interleaved* rounds (off, on, off, on, ...) with best-of taken per
side — sequential A-then-B runs confound the comparison with machine-load
drift that dwarfs the effect being measured.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.server import ModelRegistry, Server
from repro.utils import seed_everything

pytestmark = pytest.mark.obs

WAVE = 32           #: requests per closed-loop wave
WAVES = 8           #: waves per timed run
ROUNDS = 5          #: interleaved (off, on) rounds; best-of per side
MAX_OVERHEAD = 0.05  #: the acceptance budget


def _deployed():
    seed_everything(0)
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                         for _ in range(2)])
    d = deploy(qm, DeploySpec(runtime="auto"))
    samples = [rng.standard_normal((3, 32, 32)).astype(np.float32)
               for _ in range(8)]
    return d, samples


def _throughput(server: Server, model: str, samples) -> float:
    """Answered requests/sec over a closed-loop run (best throughput is
    what matters; the first wave warms bindings and pools)."""
    # warm-up wave (binding, pool spawn, code paths) — untimed
    for p in [server.submit(model, samples[i % len(samples)])
              for i in range(WAVE)]:
        assert p.result(timeout=120).ok
    n = 0
    t0 = time.perf_counter()
    for _ in range(WAVES):
        pendings = [server.submit(model, samples[i % len(samples)])
                    for i in range(WAVE)]
        for p in pendings:
            assert p.result(timeout=120).ok
            n += 1
    return n / (time.perf_counter() - t0)


def _run_once(deployed, samples, tmp_path, obs: bool, tag: str) -> float:
    reg = ModelRegistry()
    reg.register("resnet20", "1", deployed)
    cfg = dict(max_batch=16, workers=0, default_deadline_s=60.0,
               tracing=False)
    if obs:
        cfg.update(tracing=True, profile_every=4,
                   dump_dir=str(tmp_path / "dumps"),
                   # runtime SDC defense rides the same budget: sampled
                   # ABFT checks inline, CRC scrubber in the background
                   abft_every=4, scrub_interval_s=0.25)
    with Server(reg, **cfg) as srv:
        if obs:
            srv.start_status_export(str(tmp_path / f"obs_{tag}"),
                                    interval_s=0.25)
        return _throughput(srv, "resnet20", samples)


def test_full_observability_stack_under_five_percent(tmp_path):
    deployed, samples = _deployed()
    off = on = 0.0
    for r in range(ROUNDS):
        off = max(off, _run_once(deployed, samples, tmp_path, False, f"b{r}"))
        on = max(on, _run_once(deployed, samples, tmp_path, True, f"o{r}"))
    overhead = 1.0 - on / off
    print(f"\nobservability off {off:8.1f} req/s")
    print(f"observability on  {on:8.1f} req/s   overhead {overhead:+.2%} "
          f"(budget {MAX_OVERHEAD:.0%})")
    assert on > 0 and off > 0
    assert overhead < MAX_OVERHEAD, (
        f"full observability stack costs {overhead:.1%} throughput "
        f"(> {MAX_OVERHEAD:.0%} budget)")
