"""Serving gates on plan verification: a compiled program that fails the
static verifier can never be registered, activated, or swapped in — the
previous known-good version keeps serving in every case."""
import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.lint.plan import PlanVerificationError
from repro.server import ModelRegistry, Server


class PlanRunner:
    """Minimal registry runner carrying a real compiled plan."""

    def __init__(self, plan):
        self.plan = plan
        self.out_features = plan.out_features
        self.model_name = plan.model_name

    def __call__(self, x):
        return self.plan(np.asarray(x, dtype=np.float32))


def _corrupt(plan):
    """Self-read on the final op: a use-before-def the verifier must flag."""
    plan.ops[-1].src = (plan.ops[-1].dst,)
    plan.drop_bindings()
    plan._verification = None
    return plan


@pytest.fixture()
def good_plan(served_factory):
    d, _, _ = served_factory("vgg8")
    return copy.deepcopy(d.plan)


@pytest.fixture()
def bad_plan(served_factory):
    d, _, _ = served_factory("vgg8")
    return _corrupt(copy.deepcopy(d.plan))


class TestRegistryGate:
    def test_register_refuses_bad_plan(self, good_plan, bad_plan):
        registry = ModelRegistry()
        registry.register("m", "1", runner=PlanRunner(good_plan))
        with pytest.raises(PlanVerificationError) as ei:
            registry.register("m", "2", runner=PlanRunner(bad_plan),
                              activate=True)
        assert "plan.dead-read" in str(ei.value)
        assert registry.active_version("m") == "1"
        with pytest.raises(KeyError):
            registry.get("m@2")     # rejected entry never entered

    def test_set_active_reverifies(self, good_plan, served_factory):
        d, _, _ = served_factory("vgg8")
        registry = ModelRegistry()
        registry.register("m", "1", runner=PlanRunner(good_plan))
        v2 = copy.deepcopy(d.plan)
        registry.register("m", "2", runner=PlanRunner(v2))
        _corrupt(v2)                # rots *after* registration
        with pytest.raises(PlanVerificationError):
            registry.set_active("m", "2")
        assert registry.active_version("m") == "1"

    def test_rejection_emits_typed_telemetry(self, good_plan, bad_plan):
        registry = ModelRegistry()
        registry.register("m", "1", runner=PlanRunner(good_plan))
        with telemetry.TelemetrySession(out_dir=None) as session:
            with pytest.raises(PlanVerificationError):
                registry.register("m", "2", runner=PlanRunner(bad_plan))
        events = [e for e in session.events.events
                  if e["kind"] == "registry_rejected"]
        assert [(e["action"], e["reason"]) for e in events] == [
            ("register", "plan")]
        assert events[0]["errors"] >= 1

    def test_spec_opt_out_skips_gate(self, bad_plan):
        # the gate reads no opt-out off a bundle's spec: a spec still
        # spelling the old verify_plan=False is proved and refused
        fake = SimpleNamespace(
            plan=bad_plan, qnn=None, manifest=None,
            spec=SimpleNamespace(export_dir=None, verify_plan=False))
        registry = ModelRegistry()
        with pytest.raises(PlanVerificationError):
            registry.register("m", "1", deployed=fake)
        assert "m" not in registry

    def test_good_plan_reuses_deploy_proof(self, good_plan):
        # deploy() seeded _verification; the gate must reuse it, not re-prove
        report = good_plan.verify()
        registry = ModelRegistry()
        registry.register("m", "1", runner=PlanRunner(good_plan))
        assert good_plan.verify() is report


class TestSwapGate:
    def test_swap_refuses_bad_plan(self, good_plan, served_factory):
        d, _, _ = served_factory("vgg8")
        registry = ModelRegistry()
        registry.register("m", "1", runner=PlanRunner(good_plan))
        v2 = copy.deepcopy(d.plan)
        registry.register("m", "2", runner=PlanRunner(v2))
        _corrupt(v2)
        with Server(registry, max_batch=4, workers=0,
                    default_deadline_s=2.0) as srv:
            with telemetry.TelemetrySession(out_dir=None) as session:
                with pytest.raises(PlanVerificationError):
                    srv.swap("m", "2")
            assert registry.active_version("m") == "1"
        events = [e for e in session.events.events
                  if e["kind"] == "registry_rejected"]
        assert [(e["action"], e["reason"]) for e in events] == [
            ("swap", "plan")]

    def test_swap_to_good_version_still_works(self, good_plan,
                                              served_factory):
        d, _, _ = served_factory("vgg8")
        registry = ModelRegistry()
        registry.register("m", "1", runner=PlanRunner(good_plan))
        registry.register("m", "2",
                          runner=PlanRunner(copy.deepcopy(d.plan)))
        with Server(registry, max_batch=4, workers=0,
                    default_deadline_s=2.0) as srv:
            srv.swap("m", "2")
            assert registry.active_version("m") == "2"
