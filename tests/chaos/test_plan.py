"""ChaosPlan end to end: every artifact fault detected by every consumer
layer, registry stays on known-good state, gateway survives server faults;
one catalog, one factory, one runner."""
import numpy as np
import pytest

from repro.chaos import CATALOG, KINDS, ChaosPlan
from repro.runtime.serve import _can_fork
from repro.server import ModelRegistry, Server
from tests.chaos.conftest import scored_by_catalog
from tests.server.conftest import StubPlan, stub_sample

#: the catalog, pinned: adding, dropping or moving an injector is a
#: deliberate edit here too
PINNED = {
    "artifact": {"flip_bits", "truncate_file", "corrupt_header",
                 "stale_manifest"},
    "plan": {"swap_register", "widen_scale", "drop_op", "fuse_illegal"},
    "server": {"kill_worker", "stall_worker", "delay_clock"},
    "fleet": {"kill_replica", "partition_replica"},
    "sdc": {"flip_live_weights", "flip_arena", "corrupt_golden"},
}


@pytest.mark.parametrize("kind", KINDS)
def test_catalog_pins_kind(kind):
    assert set(PINNED) == set(KINDS)
    rows = [n for n, row in CATALOG.items() if row.kind == kind]
    assert set(rows) == PINNED[kind]
    assert [n for n, _ in ChaosPlan.default(kind, seed=3).schedule] == rows
    assert [n for n, _ in ChaosPlan.default(kind, rounds=2).schedule] \
        == rows * 2


def _server(workers=0, **cfg):
    registry = ModelRegistry()
    registry.register("stub", "1", runner=StubPlan(gain=2.0))
    return Server(registry, max_batch=8, workers=workers,
                  default_deadline_s=2.0, **cfg)


@pytest.fixture
def stub_server():
    with _server() as srv:
        yield srv


@pytest.mark.parametrize("target, schedule", [
    ("clean_export", ["kill_worker"]),
    ("stub_server", ["flip_bits"]),
    ("compiled_plan", ["truncate_file"]),
    ("clean_export", ["flip_bits", "kill_worker"]),
    ("clean_export", []),
], ids=["server-fault-on-dir", "artifact-fault-on-server",
        "artifact-fault-on-plan", "mixed-kinds", "empty"])
def test_wrong_kind_is_rejected(request, target, schedule):
    plan = ChaosPlan(seed=0)
    for name in schedule:
        plan.add(name)
    with pytest.raises(ValueError, match="needs a schedule of one kind and "
                                         "that kind's target"):
        plan.run(request.getfixturevalue(target), "stub", stub_sample(1.0))


class TestArtifactRuns:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_full_catalog_fully_detected(self, clean_export, seed):
        """The acceptance bar: a seeded schedule over every artifact-fault
        class reports 100% detected — verify, load AND registry each refuse,
        and the registry stays on the previous active version."""
        report = ChaosPlan.default("artifact", seed=seed).run(clean_export)
        assert report.injected == 4
        assert report.missed == 0 and report.ok
        assert report.detected == report.injected
        assert report.recovered == report.injected
        assert scored_by_catalog(report)
        for rec in report.records:
            assert rec.layers == {"verify": True, "load": True,
                                  "registry": True}

    def test_multi_round_stays_detected(self, clean_export):
        report = ChaosPlan.default("artifact", seed=3, rounds=3).run(
            clean_export)
        assert report.injected == 12 and report.missed == 0

    def test_reports_are_reproducible(self, clean_export):
        r1 = ChaosPlan.default("artifact", seed=9).run(clean_export)
        r2 = ChaosPlan.default("artifact", seed=9).run(clean_export)
        assert [a.details for a in r1.records] \
            == [b.details for b in r2.records]
        assert r1.to_json()["summary"] == r2.to_json()["summary"]

    def test_clean_dir_is_never_mutated(self, clean_export):
        from repro.export.integrity import verify_artifacts

        ChaosPlan.default("artifact", seed=1).run(clean_export)
        assert verify_artifacts(clean_export).ok

    def test_unknown_injector_rejected(self):
        with pytest.raises(ValueError, match="unknown injector"):
            ChaosPlan().add("set_on_fire")

    def test_chaos_telemetry_events(self, clean_export):
        from repro import telemetry

        with telemetry.TelemetrySession(out_dir=None) as session:
            ChaosPlan.default("artifact", seed=0).run(clean_export)
        kinds = [e["kind"] for e in session.events.events
                 if e["kind"].startswith("chaos_")]
        assert kinds.count("chaos_inject") == 4
        assert kinds.count("chaos_detected") == 4
        assert "chaos_missed" not in kinds


class TestServerRuns:
    def test_delay_clock_forces_typed_shedding(self):
        with _server() as srv:
            report = ChaosPlan(seed=0).add("delay_clock", skew_s=1.0) \
                .run(srv, "stub", stub_sample(1.0))
        assert report.ok and report.injected == 1
        rec = report.records[0]
        assert rec.layers == {"admission": True} and rec.recovered

    @pytest.mark.skipif(not _can_fork(), reason="requires fork for PlanPool")
    def test_kill_worker_detected_and_recovered(self):
        with _server(workers=2) as srv:
            report = ChaosPlan(seed=0).add("kill_worker") \
                .run(srv, "stub", stub_sample(1.0))
            deaths = srv._lanes["stub"].stats.worker_deaths
        assert report.ok and report.records[0].recovered
        assert deaths >= 1

    @pytest.mark.skipif(not _can_fork(), reason="requires fork for PlanPool")
    def test_stall_worker_liveness(self):
        with _server(workers=2) as srv:
            report = ChaosPlan(seed=0).add("stall_worker", stall_s=0.2) \
                .run(srv, "stub", stub_sample(1.0))
        rec = report.records[0]
        assert report.ok and rec.layers == {"liveness": True}

    @pytest.mark.skipif(not _can_fork(), reason="requires fork for PlanPool")
    def test_default_server_schedule(self):
        with _server(workers=2) as srv:
            report = ChaosPlan.default("server", seed=5).run(
                srv, "stub", stub_sample(1.0))
        assert report.injected == 3
        assert report.missed == 0, report.render()
        assert scored_by_catalog(report)


class TestRegistryStaysOnGoodVersion:
    def test_corrupted_candidate_never_activates(self, clean_export,
                                                 tmp_path):
        """The recovery contract in miniature: registry serving a good
        version refuses a corrupted successor and keeps serving."""
        import shutil

        from repro.chaos import flip_bits
        from repro.export.errors import ArtifactError

        damaged = str(tmp_path / "damaged")
        shutil.copytree(clean_export, damaged)
        flip_bits(damaged, np.random.default_rng([0, 0]))

        reg = ModelRegistry()
        reg.register("m", "1", runner=StubPlan(gain=1.0),
                     artifacts=clean_export)
        with pytest.raises(ArtifactError):
            reg.register("m", "2", runner=StubPlan(gain=9.0),
                         artifacts=damaged, activate=True)
        assert reg.active_version("m") == "1"
        assert reg.versions("m") == ["1"], "rejected entry must not linger"
