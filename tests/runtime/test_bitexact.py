"""Bit-exactness matrix: every registry model x fusion mode x scale mode.

The compiled plan's contract is *bitwise* equality with the interpreted
deploy model — fast paths are only taken where exactness is proven, so any
single differing ulp is a bug, not noise.  Both register layouts are
checked: the compiler's pick on this host (channel-major + native kernel on
CNNs when the kernel loaded) and the pure-numpy batch replication a host
without the kernel gets.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.models import MODELS
from repro.runtime import Plan, ckernel


@pytest.mark.parametrize("float_scale", [False, True],
                         ids=["fixed-point", "float-scale"])
@pytest.mark.parametrize("fusion", ["channel", "prefuse"])
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_plan_matches_tree_bitwise(deployed_factory, no_ckernel, model_name,
                                   fusion, float_scale):
    d, x, ref = deployed_factory(model_name, fusion, float_scale)
    plans = [Plan.compile(d.qnn)]
    with no_ckernel():
        plans.append(Plan.compile(d.qnn))
    assert plans[1].layout == "batch"
    for plan in plans:
        out = plan(x)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert np.array_equal(ref, out), (
            f"{model_name}/{fusion}/float_scale={float_scale}: plan layout "
            f"{plan.layout!r} diverges from the interpreted tree")


@pytest.mark.parametrize("model_name", ["resnet20", "mobilenet-v1"])
def test_channel_reference_fallback_matches_tree(deployed_factory,
                                                 monkeypatch, model_name):
    """A conv the native kernel may not take (accumulator bound >= 2^24, or
    more taps than its tables hold) replicates the interpreted sequence
    inside the channel plan.  CLI-width models have no such conv, so the
    kernel's tap cap is shrunk until it refuses every one."""
    ck = ckernel.load()
    if ck is None:
        pytest.skip("native kernel unavailable")

    def refused(*args, **kwargs):
        raise AssertionError("conv reached the native kernel")

    monkeypatch.setattr(ck, "taps_cap", 1)
    monkeypatch.setattr(ck, "conv_mq_cm", refused)
    monkeypatch.setattr(ck, "conv_mq_res_cm", refused)
    d, x, ref = deployed_factory(model_name)
    plan = Plan.compile(d.qnn)
    assert plan.layout == "channel"
    assert np.array_equal(plan(x), ref)


def test_deployed_call_uses_plan(deployed_factory, no_ckernel):
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
    with no_ckernel():
        d2 = deploy(qm, DeploySpec())
    assert d2.plan is not None and d2.plan.layout == "batch"
    x2 = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    assert np.array_equal(d2(x2), d2.plan(x2))
