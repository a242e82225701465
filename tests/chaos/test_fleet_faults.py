"""Fleet-side fault injection: replica kill and network partition.

The scorecard contract: *detected* means the router ejected the victim and
straddling requests were rerouted (nothing lost); *recovered* means the
fleet returned to its target replica count (kill) or the victim rejoined
the ring after the partition healed (partition).
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from repro.chaos import ChaosPlan, kill_replica, partition_replica
from repro.fleet import Fleet, FleetConfig
from repro.fleet.router import ROLE_STABLE
from repro.server import ServerConfig
from tests.chaos.conftest import scored_by_catalog


def _runner(batch):
    flat = np.asarray(batch, dtype=np.float32).reshape(len(batch), -1)
    return flat[:, :4] * np.float32(2.0)


def _sample():
    return np.full((2, 4), 1.0, dtype=np.float32)


def _fleet(replicas=3):
    fleet = Fleet(FleetConfig(
        replicas=replicas, health_interval_s=0.05,
        server=ServerConfig(max_batch=4, default_deadline_s=5.0)))
    fleet.add_model("m")
    fleet.register_version("m", "1", runner=_runner)
    return fleet.start()


def test_fleet_default_plan_fully_detected_and_recovered():
    fleet = _fleet()
    try:
        report = ChaosPlan.default("fleet", seed=5).run(
            fleet, "m", _sample())
    finally:
        fleet.close()
    assert report.injected == len(report.records) >= 2
    assert report.detected == report.injected, report.render()
    assert report.recovered == report.injected, report.render()
    assert report.ok and scored_by_catalog(report)
    assert fleet.requests_lost == 0


def test_kill_replica_scorecard_layers():
    fleet = _fleet()
    try:
        report = ChaosPlan(seed=1).add("kill_replica").run(
            fleet, "m", _sample())
        rec = report.records[0]
        assert rec.detected and rec.recovered
        assert rec.layers.get("ejected") and rec.layers.get("requeued")
        assert rec.layers.get("rerouted")
        # the fleet healed back to target
        assert len(fleet.replicas("m")) == 3
    finally:
        fleet.close()


def test_partition_replica_heals_and_rejoins():
    fleet = _fleet()
    try:
        report = ChaosPlan(seed=2).add("partition_replica").run(
            fleet, "m", _sample())
        rec = report.records[0]
        assert rec.detected and rec.recovered, report.render()
        assert rec.layers.get("not_replaced"), (
            "a partitioned replica must not be replaced (it will rejoin)")
    finally:
        fleet.close()


def test_partition_lasts_until_scored():
    """The partition heals when the harness undoes it, not on a clock: a
    scorer that first looks a second late (a loaded host) still finds the
    victim ejected, and it rejoins after the undo."""
    fleet = _fleet()
    try:
        details = partition_replica(fleet, "m", np.random.default_rng(2))
        time.sleep(1.0)
        fleet.health_tick()
        victim = details["replica"]
        assert victim not in fleet.router.members("m", ROLE_STABLE)
        details["undo"]()
        fleet.health_tick()
        assert victim in fleet.router.members("m", ROLE_STABLE)
    finally:
        fleet.close()


def test_fleet_faults_are_seed_deterministic():
    victims = []
    for _ in range(2):
        fleet = _fleet()
        try:
            report = ChaosPlan(seed=9).add("kill_replica").run(
                fleet, "m", _sample())
        finally:
            fleet.close()
        victims.append(report.records[0].details["replica"])
    assert victims[0] == victims[1], f"same seed, different victim: {victims}"


def test_partition_rejoin_is_ring_idempotent():
    """A healed replica rejoins at *exactly* its original vnode positions.

    Vnode hashes are a pure function of the member id
    (``hash64(f"{member}#{i}", salt="ring")``), so a partition round-trip
    must restore the ring byte for byte — re-admission never reshuffles
    keys between the survivors.
    """
    from repro.fleet.router import ROLE_STABLE

    fleet = _fleet()
    try:
        assert fleet.submit("m", _sample()).result(timeout=10).ok
        with fleet.router._lock:
            before = list(fleet.router._ring("m", ROLE_STABLE)._points)
        report = ChaosPlan(seed=2).add("partition_replica").run(
            fleet, "m", _sample())
        rec = report.records[0]
        assert rec.detected and rec.recovered, report.render()
        with fleet.router._lock:
            after = list(fleet.router._ring("m", ROLE_STABLE)._points)
        assert before == after, (
            "ring changed across a partition/heal round-trip")
    finally:
        fleet.close()


def test_kill_requires_spare_capacity():
    fleet = _fleet(replicas=1)
    try:
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="need >= 2"):
            kill_replica(fleet, "m", rng)
    finally:
        fleet.close()
