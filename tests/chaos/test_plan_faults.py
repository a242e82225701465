"""Plan-mutation chaos: every seeded IR fault must be refused by the static
verifier AND the registry gate, and the pristine plan must keep verifying
clean afterwards.  A silent miss here means a corrupted program could serve."""
import copy

import numpy as np
import pytest

from repro.chaos import CATALOG, ChaosPlan
from tests.chaos.conftest import scored_by_catalog

PLAN = [n for n, row in CATALOG.items() if row.kind == "plan"]


class TestCatalog:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_full_catalog_fully_detected(self, compiled_plan, seed):
        """The acceptance bar: every plan-fault class is caught by both
        layers and the pristine plan still proves clean (recovered)."""
        report = ChaosPlan.default("plan", seed=seed).run(compiled_plan)
        assert report.injected == len(PLAN) == 4
        assert report.missed == 0 and report.ok
        assert report.recovered == report.injected
        assert scored_by_catalog(report)
        for rec in report.records:
            assert rec.layers == {"verifier": True, "registry": True}
            assert "plan." in rec.note, rec.note

    def test_multi_round_stays_detected(self, compiled_plan):
        report = ChaosPlan.default("plan", seed=3, rounds=2) \
            .run(compiled_plan)
        assert report.injected == 8 and report.missed == 0

    def test_widen_scale_trips_overflow_rule(self, compiled_plan):
        report = ChaosPlan(seed=5).add("widen_scale").run(compiled_plan)
        assert report.ok
        assert "plan.accum-overflow" in report.records[0].note

    def test_widen_scale_on_a_vit_plan_is_a_stale_range(self, vit_deployed):
        """The ViT has no conv->conv edge and every consumer of a requant
        re-clamps, so no accumulator bound goes stale: the register range
        the compiler proved for the widened output does, for every requant,
        the head's logits included (no later op re-clamps those)."""
        plan = vit_deployed.plan
        targets = [i for i, op in enumerate(plan.ops)
                   if getattr(op, "mq", None) is not None]
        assert len(targets) == 16   # patch conv + two per block + head
        assert plan.ops[targets[-1]].kind == "head"
        for i in targets:
            mutant = copy.deepcopy(plan)
            mq = mutant.ops[i].mq
            mq.m, mq.lo, mq.hi = mq.m * 16.0, mq.lo * 16.0, mq.hi * 16.0
            mutant.drop_bindings()
            stale = [f for f in mutant.verify(refresh=True).findings
                     if f.rule == "plan.accum-overflow"
                     and "stale range" in f.message]
            assert stale, plan.ops[i].name
        for seed in range(6):
            report = ChaosPlan(seed=seed).add("widen_scale").run(plan)
            assert report.ok and report.records[0].detected, report.render()

    def test_swap_register_breaks_dataflow(self, compiled_plan):
        report = ChaosPlan(seed=5).add("swap_register").run(compiled_plan)
        assert report.ok and report.records[0].layers["verifier"]

    def test_drop_op_detected(self, compiled_plan):
        report = ChaosPlan(seed=5).add("drop_op").run(compiled_plan)
        assert report.ok
        assert report.records[0].details["op_kind"]

    def test_fuse_illegal_trips_dataflow_rule(self, compiled_plan):
        """A fusion that reads a forward register (broken legality oracle)
        is structurally a use-before-def: the dataflow pass must refuse it
        without needing any shape information."""
        report = ChaosPlan(seed=5).add("fuse_illegal").run(compiled_plan)
        assert report.ok and report.records[0].layers["verifier"]
        assert "plan.dead-read" in report.records[0].note
        assert report.records[0].details["shortcut_reg"] is not None


class TestHarnessContracts:
    def test_reports_are_reproducible(self, compiled_plan):
        r1 = ChaosPlan.default("plan", seed=9).run(compiled_plan)
        r2 = ChaosPlan.default("plan", seed=9).run(compiled_plan)
        assert [a.details for a in r1.records] \
            == [b.details for b in r2.records]
        assert r1.to_json()["summary"] == r2.to_json()["summary"]

    def test_injectors_are_seed_deterministic(self, compiled_plan):
        for name in PLAN:
            inject = CATALOG[name].inject
            d1 = inject(copy.deepcopy(compiled_plan),
                        np.random.default_rng([11, 0]))
            d2 = inject(copy.deepcopy(compiled_plan),
                        np.random.default_rng([11, 0]))
            assert d1 == d2, name

    def test_clean_plan_is_never_mutated(self, compiled_plan):
        sig = compiled_plan.signature()
        ChaosPlan.default("plan", seed=1).run(compiled_plan)
        assert compiled_plan.signature() == sig
        assert compiled_plan.verify(refresh=True).ok

    def test_chaos_telemetry_events(self, compiled_plan):
        from repro import telemetry

        with telemetry.TelemetrySession(out_dir=None) as session:
            ChaosPlan.default("plan", seed=0).run(compiled_plan)
        kinds = [e["kind"] for e in session.events.events
                 if e["kind"].startswith("chaos_")]
        assert kinds.count("chaos_inject") == 4
        assert kinds.count("chaos_detected") == 4
        assert "chaos_missed" not in kinds

    def test_report_json_roundtrips(self, compiled_plan):
        import json

        report = ChaosPlan.default("plan", seed=2).run(compiled_plan)
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["summary"]["missed"] == 0
        assert {r["injector"] for r in doc["faults"]} == set(PLAN)
