"""ModelRegistry: keys, versions, activation, the hand-off gate."""
from __future__ import annotations

import numpy as np
import pytest

from repro.server import ModelRegistry, split_key
from tests.server.conftest import StubPlan


def test_split_key():
    assert split_key("resnet20") == ("resnet20", None)
    assert split_key("resnet20@2") == ("resnet20", "2")
    with pytest.raises(ValueError):
        split_key("resnet20@")
    with pytest.raises(ValueError):
        split_key("@2")


def test_register_and_lookup_by_name_and_version():
    reg = ModelRegistry()
    e1 = reg.register("m", "1", runner=StubPlan(gain=1))
    e2 = reg.register("m", "2", runner=StubPlan(gain=2))
    assert e1.key == "m@1" and e2.key == "m@2"
    assert reg.get("m") is e1, "first version auto-activates"
    assert reg.get("m@2") is e2
    assert reg.versions("m") == ["1", "2"]
    assert reg.keys() == ["m@1", "m@2"]
    assert "m@2" in reg and "m@3" not in reg and len(reg) == 2


def test_activation_flip_is_explicit_and_atomic():
    reg = ModelRegistry()
    reg.register("m", "1", runner=StubPlan(gain=1))
    reg.register("m", "2", runner=StubPlan(gain=2))
    assert reg.active_version("m") == "1"
    reg.set_active("m", "2")
    assert reg.active_version("m") == "2" and reg.get("m").version == "2"
    with pytest.raises(KeyError):
        reg.set_active("m", "9")
    reg.register("m", "3", runner=StubPlan(gain=3), activate=True)
    assert reg.active_version("m") == "3"


def test_register_rejects_duplicates_and_bad_names():
    reg = ModelRegistry()
    reg.register("m", "1", runner=StubPlan())
    with pytest.raises(ValueError):
        reg.register("m", "1", runner=StubPlan())
    with pytest.raises(ValueError):
        reg.register("m@1", "2", runner=StubPlan())
    with pytest.raises(ValueError):
        reg.register("n", "1")  # neither deployed nor runner
    with pytest.raises(KeyError):
        reg.get("ghost")


def test_duplicate_version_is_typed_and_replace_opts_in():
    from repro.server import DuplicateVersionError

    reg = ModelRegistry()
    first = StubPlan(gain=1.0)
    reg.register("m", "1", runner=first)
    # same callable: idempotent, returns the existing entry
    assert reg.register("m", "1", runner=first).runner is first
    # different callable: typed refusal, registry unchanged
    with pytest.raises(DuplicateVersionError, match="replace=True"):
        reg.register("m", "1", runner=StubPlan(gain=2.0))
    assert reg.get("m@1").runner is first
    # explicit replace overwrites
    second = StubPlan(gain=2.0)
    entry = reg.register("m", "1", runner=second, replace=True)
    assert entry.runner is second and reg.get("m@1").runner is second


def test_register_and_activate_verify_artifacts(tmp_path):
    import numpy as np

    from repro.export.errors import ArtifactError
    from repro.export.writer import export_state_dict

    good = str(tmp_path / "good")
    export_state_dict({"w": np.arange(-4, 4).astype(np.float32)}, good,
                      formats=("dec", "qint"))
    bad = str(tmp_path / "bad")
    export_state_dict({"w": np.arange(-4, 4).astype(np.float32)}, bad,
                      formats=("dec", "qint"))
    with open(f"{bad}/tensors.dec", "ab") as f:
        f.write(b"corruption")

    reg = ModelRegistry()
    reg.register("m", "1", runner=StubPlan(), artifacts=good)
    with pytest.raises(ArtifactError):
        reg.register("m", "2", runner=StubPlan(), artifacts=bad,
                     activate=True)
    assert reg.active_version("m") == "1" and reg.versions("m") == ["1"]


def test_version_that_rots_after_registration_cannot_activate(tmp_path):
    import numpy as np

    from repro.export.errors import ArtifactError
    from repro.export.writer import export_state_dict

    art = str(tmp_path / "art")
    export_state_dict({"w": np.arange(-4, 4).astype(np.float32)}, art,
                      formats=("dec",))
    reg = ModelRegistry()
    reg.register("m", "1", runner=StubPlan())
    reg.register("m", "2", runner=StubPlan(), artifacts=art)
    with open(f"{art}/tensors.dec", "ab") as f:
        f.write(b"bitrot")
    with pytest.raises(ArtifactError):
        reg.set_active("m", "2")
    assert reg.active_version("m") == "1"


def test_registry_verify_reports(tmp_path):
    from repro import telemetry
    from repro.export.errors import ArtifactError
    from repro.export.writer import export_state_dict

    art = str(tmp_path / "art")
    export_state_dict({"w": np.arange(4).astype(np.float32)}, art,
                      formats=("dec",))
    reg = ModelRegistry()
    reg.register("m", "1", runner=StubPlan(), artifacts=art)
    reg.register("m", "2", runner=StubPlan())
    assert reg.check("m@1", "set_active") is reg.get("m@1")
    # no artifacts -> nothing to audit
    assert reg.check("m@2", "swap").key == "m@2"
    with open(f"{art}/tensors.dec", "ab") as f:
        f.write(b"bitrot")
    with telemetry.TelemetrySession(out_dir=None) as session:
        with pytest.raises(ArtifactError):
            reg.check("m@1", "swap")
    events = [e for e in session.events.events
              if e["kind"] == "registry_rejected"]
    assert [(e["action"], e["reason"]) for e in events] == [
        ("swap", "artifacts")]


def test_bare_name_lookup_without_active_version_is_descriptive():
    reg = ModelRegistry()
    reg.register("m", "1", runner=StubPlan(), activate=False)
    with pytest.raises(KeyError, match="no active version"):
        reg.get("m")
    assert reg.get("m@1").key == "m@1", "exact-version lookup still works"
    reg.set_active("m", "1")
    assert reg.get("m").key == "m@1"


def test_register_unpacks_deployed_bundle(served_factory):
    d, samples, refs = served_factory("resnet20")
    reg = ModelRegistry()
    entry = reg.register("resnet20", "1", d)
    assert entry.plan is d.plan and entry.qnn is d.qnn
    assert entry.deployed is d
    out = entry(np.stack(samples[:2]))
    assert np.array_equal(out[0], refs[0]) and np.array_equal(out[1], refs[1])


def test_build_goes_through_deploy_pipeline(no_ckernel):
    from repro.core import DeploySpec, deploy
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.core.t2c import calibrate_model
    from repro.models import build_model

    rng = np.random.default_rng(0)
    qm = quantize_model(build_model("vgg8", num_classes=10, width_mult=0.5),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)])
    reg = ModelRegistry()
    with no_ckernel():
        entry = reg.register("vgg8", "1", deploy(qm, DeploySpec()))
    assert entry.key == "vgg8@1" and entry.plan is not None
    assert entry.plan.layout == "batch"
    x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    from repro.tensor import no_grad
    from repro.tensor.tensor import Tensor

    with no_grad():
        ref = entry.qnn(Tensor(x)).data
    assert np.array_equal(entry(x), ref)
