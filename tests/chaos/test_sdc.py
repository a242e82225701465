"""Live-memory SDC injection: flipped weights, arena scribbles, and golden
tampering must each end in detected -> quarantined -> healed with zero
``requests_lost``.

Also covers the health-loop shutdown race: ``Fleet.close()`` landing while
a golden probe is mid-flight on a slow replica must complete in bounded
time (the probe is inconclusive, never a deadlock, never an SDC flag).
"""
from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.chaos import ChaosPlan
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.fleet import QUARANTINED, Fleet, FleetConfig
from repro.integrity import GoldenSet
from repro.models import build_model
from repro.server import ServerConfig
from tests.chaos.conftest import scored_by_catalog

pytestmark = pytest.mark.sdc


@pytest.fixture(scope="module")
def deployed_bundle():
    """A compiled golden-carrying resnet20 bundle plus a probe batch."""
    rng = np.random.default_rng(20240)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32) for _ in range(2)])
    d = deploy(qm, DeploySpec())
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    return d, x


@pytest.mark.parametrize("seed", [0, 11])
def test_sdc_default_plan_detects_quarantines_heals(deployed_bundle, seed):
    # every probe replays the whole recorded golden set, so a tampered
    # vector is caught whichever index the seed picks
    d, x = deployed_bundle
    fleet = Fleet(FleetConfig(
        replicas=3, health_interval_s=0.1, golden_every=2, scrub_every=2,
        server=ServerConfig(max_batch=8, default_deadline_s=2.0,
                            abft_every=4)))
    fleet.add_model("resnet20")
    fleet.register_version("resnet20", "1", d)
    with fleet:
        report = ChaosPlan.default("sdc", seed=seed).run(fleet, "resnet20",
                                                         x)
        assert report.injected == 3
        assert scored_by_catalog(report)
        assert report.detected == report.injected, report.render()
        assert report.recovered == report.injected, report.render()
        assert report.ok
        # every corruption was flagged, the victim left the ring, and the
        # straddling traffic was rerouted — nothing silently lost
        assert fleet.sdc_quarantined == report.injected
        assert fleet.requests_lost == 0
        status = fleet.status()["models"]["resnet20"]
        tombs = [r for r in status["replicas"]
                 if r["state"] == QUARANTINED]
        assert len(tombs) == report.injected
    text = fleet.render_exposition()
    assert 'fleet_sdc_quarantined_total{model="resnet20"} 3' in text


def test_sdc_on_a_plan_without_guard_border(vit_deployed):
    """The ViT pads no register, so its arena has no guard border to flip:
    ``flip_arena`` is scored not applicable, with its reason, outside the
    counts, and the other two rows are still injected, caught and healed."""
    rng = np.random.default_rng(8)
    fleet = Fleet(FleetConfig(
        replicas=3, health_interval_s=0.1, golden_every=2, scrub_every=2,
        server=ServerConfig(max_batch=8, default_deadline_s=2.0,
                            abft_every=4)))
    fleet.add_model("vit-7")
    fleet.register_version("vit-7", "1", vit_deployed)
    with fleet:
        report = ChaosPlan.default("sdc", seed=0).run(
            fleet, "vit-7", rng.standard_normal((3, 32, 32)).astype(np.float32))
    arena = next(r for r in report.records if r.injector == "flip_arena")
    assert not arena.applicable and "guard border" in arena.not_applicable
    assert (report.injected, report.not_applicable) == (2, 1)
    assert report.detected == report.recovered == 2, report.render()
    assert report.ok and scored_by_catalog(report)
    assert report.to_json()["summary"]["not_applicable"] == 1
    assert "flip_arena       not applicable" in report.render()


def test_close_during_inflight_golden_probe_does_not_deadlock():
    """Shutdown race: the health loop's golden probe is waiting on a slow
    replica when ``close()`` lands.  The probe wait is bounded and
    re-checks ``closing`` — close must finish promptly and the cut-off
    probe must stay inconclusive (no quarantine)."""
    def fast(batch):
        flat = np.asarray(batch, dtype=np.float32).reshape(len(batch), -1)
        return flat[:, :4] * np.float32(2.0)

    probe_entered = threading.Event()

    def slow_runner(batch):
        probe_entered.set()
        time.sleep(0.4)
        return fast(batch)

    # record against the fast twin so recording itself does not trip the
    # event; outputs are identical by construction
    golden = GoldenSet.record(fast, (2, 4), k=4, seed=7)
    fleet = Fleet(FleetConfig(
        replicas=2, health_interval_s=0.05, golden_every=1,
        golden_timeout_s=5.0,
        server=ServerConfig(max_batch=4, default_deadline_s=5.0)))
    fleet.add_model("m")
    fleet.register_version("m", "1", runner=slow_runner,
                           golden=golden.to_json())
    fleet.start()
    assert probe_entered.wait(timeout=10.0), "no golden probe started"
    start = time.monotonic()
    fleet.close()
    assert time.monotonic() - start < 10.0
    assert fleet.sdc_quarantined == 0
    assert fleet.requests_lost == 0
