"""Bit-exactness matrix: every registry model x fusion mode x scale mode.

The compiled plan's contract is *bitwise* equality with the interpreted
deploy model — fast paths are only taken where exactness is proven, so any
single differing ulp is a bug, not noise.  Both register layouts are
checked: the auto-selected one (channel-major + native kernel on CNNs when
available) and the forced pure-numpy batch replication.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import MODELS
from repro.runtime import CompileSpec, Plan


@pytest.mark.parametrize("float_scale", [False, True],
                         ids=["fixed-point", "float-scale"])
@pytest.mark.parametrize("fusion", ["channel", "prefuse"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_plan_matches_tree_bitwise(deployed_factory, model_name, fusion,
                                   float_scale):
    d, x, ref = deployed_factory(model_name, fusion, float_scale)
    for layout in ("auto", "batch"):
        plan = Plan.compile(d.qnn, CompileSpec(layout=layout))
        out = plan(x)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.array_equal(ref, out), (
            f"{model_name}/{fusion}/float_scale={float_scale}: plan layout "
            f"{plan.layout!r} diverges from the interpreted tree")


def test_deployed_call_uses_plan(deployed_factory):
    """Deployed.__call__ routes through the compiled plan when present."""
    from repro.core import DeploySpec, deploy
    from repro.core.qconfig import QConfig
    from repro.core.qmodels import quantize_model
    from repro.core.t2c import calibrate_model
    from repro.models import build_model

    d, x, ref = deployed_factory("resnet20")
    assert d.plan is None  # factory compiles with runtime="none"
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)])
    d2 = deploy(qm, DeploySpec(compile=CompileSpec(layout="batch")))
    assert d2.plan is not None and d2.plan.layout == "batch"
    x2 = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    assert np.array_equal(d2(x2), d2.plan(x2))
