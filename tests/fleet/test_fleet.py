"""Fleet integration: failover, self-heal, rollouts, SLO windows, metrics.

Tests drive :meth:`Fleet.health_tick` by hand instead of starting the
background loop — every lifecycle transition is deterministic.
"""
from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.fleet import (DRAINING, PARTITIONED, READY, ROLE_CANARY, CANARY,
                         ROLLED_BACK, AutoscalePolicy, Fleet, FleetConfig)
from repro.integrity import SDCDetected
from repro.server import ServerConfig
from repro.telemetry.obs import parse_prometheus
from tests.fleet.conftest import (failing_runner, gain_runner, make_fleet,
                                  sample)


def _drain(requests, timeout=10.0):
    return [r.result(timeout=timeout) for r in requests]


def test_serves_and_accounts_primary_window_only():
    with make_fleet(replicas=3) as fleet:
        resps = _drain([fleet.submit("m", sample(float(i)))
                        for i in range(30)])
    assert all(r.ok for r in resps)
    assert np.array_equal(resps[3].logits,
                          np.full(4, 6.0, dtype=np.float32))
    st = fleet.status()["models"]["m"]
    assert st["window"]["primary"]["requests"] == 30
    assert st["window"]["canary"]["requests"] == 0
    assert st["window"]["shadow"]["requests"] == 0
    assert len(st["replicas"]) == 3
    assert fleet.requests_lost == 0


def test_late_collection_does_not_sink_other_callers():
    """A caller sitting on resolved futures (collecting 0.2 s late) costs
    nobody anything: traffic served meanwhile sees no failed or shed
    request, and the late answers are still Ok."""
    with make_fleet(replicas=2) as fleet:
        held = [fleet.submit("m", sample(1.0)) for _ in range(10)]
        prompt = _drain([fleet.submit("m", sample(2.0)) for _ in range(20)])
        deadline = time.monotonic() + 10.0
        while not all(r.done() for r in held):
            assert time.monotonic() < deadline, "held requests never resolved"
            time.sleep(0.01)
        time.sleep(0.2)
        prompt += _drain([fleet.submit("m", sample(3.0)) for _ in range(20)])
        late = _drain(held)
        window = fleet.status()["models"]["m"]["window"]["primary"]
    assert all(r.ok for r in prompt + late)
    assert window["requests"] == 50
    assert window["failed"] == 0 and window["shed"] == 0
    assert fleet.requests_lost == 0


def test_two_models_are_routed_and_accounted_separately():
    fleet = make_fleet(replicas=2, model="small")
    try:
        fleet.add_model("large")
        fleet.register_version("large", "1", runner=gain_runner(7.0))
        fleet.start()
        pending = [fleet.submit("large" if i % 3 == 0 else "small",
                                sample(1.0)) for i in range(30)]
        resps = _drain(pending)
        st = fleet.status()["models"]
    finally:
        fleet.close()
    assert all(r.ok for r in resps)
    gains = [float(r.logits[0]) for r in resps]
    assert gains == [7.0 if i % 3 == 0 else 2.0 for i in range(30)]
    assert st["small"]["window"]["primary"]["requests"] == 20
    assert st["large"]["window"]["primary"]["requests"] == 10
    assert len(st["small"]["replicas"]) == len(st["large"]["replicas"]) == 2


def test_requests_lost_are_counted_per_model():
    """A request that exhausts its failovers counts against its own model:
    the per-model ``fleet_requests_lost`` series sum to
    ``requests_lost``, and the healthy model's reads 0."""
    def corrupt_runner(batch):
        raise SDCDetected("abft", "checksum mismatch", {})

    fleet = make_fleet(replicas=3, model="good")
    try:
        fleet.add_model("bad")
        fleet.register_version("bad", "1", runner=corrupt_runner)
        resps = _drain([fleet.submit("bad", sample(1.0)) for _ in range(3)]
                       + [fleet.submit("good", sample(1.0))
                          for _ in range(5)])
        assert not any(r.ok for r in resps[:3])
        assert all(r.ok for r in resps[3:])
        assert fleet.requests_lost == 3
        series = parse_prometheus(fleet.render_exposition())
    finally:
        fleet.close()
    lost = {labels["model"]: v for labels, v in series["fleet_requests_lost"]}
    assert lost == {"good": 0.0, "bad": 3.0}
    assert sum(lost.values()) == fleet.requests_lost


def test_kill_under_load_fails_over_and_self_heals():
    fleet = make_fleet(replicas=3)
    try:
        pending = [fleet.submit("m", sample(1.0)) for _ in range(20)]
        victim = fleet.replicas("m")[1]
        victim.kill()
        pending += [fleet.submit("m", sample(2.0)) for _ in range(20)]
        resps = _drain(pending)
        assert all(r.ok for r in resps), (
            f"{sum(not r.ok for r in resps)} requests lost to the kill")
        assert fleet.requests_lost == 0
        fleet.health_tick()            # detect the corpse, spawn replacement
        reps = fleet.replicas("m")
        assert victim.replica_id not in {r.replica_id for r in reps}
        assert len([r for r in reps if r.state == READY]) == 3
        # the replacement serves
        assert fleet.submit("m", sample(3.0)).result(timeout=10.0).ok
    finally:
        fleet.close()


def test_partition_ejects_but_does_not_replace():
    fleet = make_fleet(replicas=3)
    try:
        fleet.health_tick()
        victim = fleet.replicas("m")[0]
        victim.partition()
        fleet.health_tick()
        assert victim.state == PARTITIONED
        routing = fleet.status()["models"]["m"]["routing"]
        assert victim.replica_id not in routing["stable"]
        # partitioned counts toward target: no replacement is spawned
        assert len(fleet.replicas("m")) == 3
        # traffic still flows on the survivors
        assert fleet.submit("m", sample(1.0)).result(timeout=10.0).ok
        victim.heal()
        fleet.health_tick()
        assert victim.state == READY
        routing = fleet.status()["models"]["m"]["routing"]
        assert victim.replica_id in routing["stable"]
    finally:
        fleet.close()


def test_canary_serves_candidate_and_promote_cuts_over():
    fleet = make_fleet(replicas=3)
    try:
        fleet.register_version("m", "2", runner=gain_runner(5.0))
        fleet.begin_canary("m", "2", fraction=0.5)
        canaries = [r for r in fleet.replicas("m") if r.role == ROLE_CANARY]
        assert canaries and all(r.active_version() == "2" for r in canaries)
        resps = _drain([fleet.submit("m", sample(1.0),
                                     route_key=f"user-{i}")
                        for i in range(40)])
        gains = {float(r.logits[0]) for r in resps if r.ok}
        assert gains == {2.0, 5.0}, f"expected both versions, saw {gains}"
        st = fleet.status()["models"]["m"]
        assert 0 < st["window"]["canary"]["requests"] < 40
        assert st["window"]["primary"]["requests"] == 40
        fleet.promote("m")
        assert all(r.active_version() == "2" for r in fleet.replicas("m"))
        resp = fleet.submit("m", sample(1.0)).result(timeout=10.0)
        assert float(resp.logits[0]) == 5.0
    finally:
        fleet.close()


def test_auto_rollback_on_canary_budget_burn():
    fleet = make_fleet(replicas=3, rollback_min_requests=5,
                       rollback_burn=1.0)
    try:
        fleet.register_version("m", "2", runner=failing_runner)
        fleet.begin_canary("m", "2", fraction=0.5)
        assert fleet.splitter.get("m").state == CANARY
        # push keys until enough land on the (failing) canary
        for i in range(60):
            fleet.submit("m", sample(1.0),
                         route_key=f"user-{i}").result(timeout=10.0)
        fleet.health_tick()
        ro = fleet.splitter.get("m")
        assert ro.state == ROLLED_BACK, (
            f"burning canary not rolled back: {ro.to_json()}")
        assert "burn" in ro.reason
        # every replica is back on stable and serving
        assert all(r.active_version() == "1" for r in fleet.replicas("m"))
        resp = fleet.submit("m", sample(1.0),
                            route_key="user-0").result(timeout=10.0)
        assert resp.ok and float(resp.logits[0]) == 2.0
    finally:
        fleet.close()


def test_shadow_traffic_never_touches_primary_slo():
    fleet = make_fleet(replicas=3)
    try:
        fleet.register_version("m", "2", runner=failing_runner)
        fleet.begin_shadow("m", "2", mirror_fraction=1.0)
        resps = _drain([fleet.submit("m", sample(1.0),
                                     route_key=f"user-{i}")
                        for i in range(20)])
        assert all(r.ok for r in resps)
        # let the mirrored copies resolve
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            st = fleet.status()["models"]["m"]
            if st["window"]["shadow"]["requests"] >= 20:
                break
            time.sleep(0.05)
        st = fleet.status()["models"]["m"]
        primary, shadow = st["window"]["primary"], st["window"]["shadow"]
        assert primary["requests"] == 20 and primary["failed"] == 0
        assert shadow["requests"] == 20 and shadow["failed"] == 20, (
            "the failing candidate must burn only the shadow window")
        # a silently failing shadow never triggers rollback (operator's call)
        fleet.health_tick()
        assert fleet.splitter.get("m").state == "shadow"
        assert fleet.requests_lost == 0
    finally:
        fleet.close()


def test_exposition_namespaces_replicas_and_round_trips():
    with make_fleet(replicas=2) as fleet:
        _drain([fleet.submit("m", sample(1.0)) for _ in range(10)])
        text = fleet.render_exposition()
    series = parse_prometheus(text)
    ups = series["fleet_replica_up"]
    replicas = {labels["replica"] for labels, _ in ups}
    assert len(replicas) == 2, f"expected 2 replica labels, got {replicas}"
    assert all(labels["model"] == "m" for labels, _ in ups)
    # per-replica server series carry the replica label too, so two
    # replicas of one model never collide into one series
    for name in ("server_queue_depth", "server_requests_total"):
        assert {labels["replica"] for labels, _ in series[name]} == replicas
    per_rep = series["server_window_requests"]
    assert all("replica" in labels for labels, _ in per_rep)
    assert sum(v for _, v in per_rep) == 10
    # fleet-level window series aggregate per traffic class
    fw = series["fleet_window_requests"]
    assert {labels["class"] for labels, _ in fw} == {
        "primary", "canary", "shadow"}
    assert {(l["class"], v) for l, v in fw} == {
        ("primary", 10.0), ("canary", 0.0), ("shadow", 0.0)}


def _autoscaled_fleet(**kwargs):
    return make_fleet(replicas=2, autoscale=AutoscalePolicy(
        max_replicas=3, scale_out_cooldown_s=0, scale_in_cooldown_s=0,
        min_window_requests=5), **kwargs)


def test_autoscale_scales_out_on_burn():
    fleet = _autoscaled_fleet(runner=failing_runner)
    try:
        resps = _drain([fleet.submit("m", sample(1.0)) for _ in range(10)])
        assert not any(r.ok for r in resps)
        fleet.health_tick()
        assert fleet.status()["models"]["m"]["target_replicas"] == 3
        assert [r.state for r in fleet.replicas("m")] == [READY] * 3
    finally:
        fleet.close()


def test_autoscale_scales_in_and_drains_when_idle():
    fleet = _autoscaled_fleet()
    try:
        assert all(r.ok for r in _drain([fleet.submit("m", sample(1.0))
                                         for _ in range(10)]))
        fleet.health_tick()
        assert fleet.status()["models"]["m"]["target_replicas"] == 1
        draining = [r for r in fleet.replicas("m") if r.state == DRAINING]
        assert len(draining) == 1
        for _ in range(5):
            fleet.health_tick()
        assert draining[0] not in fleet.replicas("m")
        assert [r.state for r in fleet.replicas("m")] == [READY]
    finally:
        fleet.close()


def test_fleet_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(FleetConfig)] == [
        "replicas", "health_interval_s", "self_heal", "server",
        "rollback_burn", "rollback_min_requests", "autoscale",
        "golden_every", "golden_timeout_s", "scrub_every"]
    cfg = FleetConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.replicas = 3
    assert cfg.server == ServerConfig()
    for gone in ("default_deadline_s", "slo_target", "window_s",
                 "max_attempts", "auto_rollback", "vnodes"):
        with pytest.raises(TypeError):
            FleetConfig(**{gone: None})
    with pytest.raises(TypeError):
        Fleet(cfg).add_model("m", replicas=3)


def test_fleet_deadline_and_slo_come_from_server_config():
    fleet = Fleet(FleetConfig(replicas=1, server=ServerConfig(
        default_deadline_s=2.0, slo_target=0.95)))
    fleet.add_model("m")
    fleet.register_version("m", "1", runner=gain_runner(2.0))
    try:
        freq = fleet.submit("m", sample(1.0))
        assert freq.deadline_s == 2.0
        assert freq.result(timeout=10.0).ok
        windows = fleet.status()["models"]["m"]["window"]
        assert {w["slo"]["target"] for w in windows.values()} == {0.95}
    finally:
        fleet.close()


def test_submit_unknown_model_raises():
    with make_fleet(replicas=1) as fleet:
        with pytest.raises(KeyError, match="not added"):
            fleet.submit("ghost", sample(1.0))


def test_group_down_resolves_failed_not_hangs():
    fleet = make_fleet(replicas=2, self_heal=False)
    try:
        for rep in fleet.replicas("m"):
            rep.kill()
        fleet.health_tick()
        resp = fleet.submit("m", sample(1.0)).result(timeout=10.0)
        assert not resp.ok and resp.retryable
    finally:
        fleet.close()
