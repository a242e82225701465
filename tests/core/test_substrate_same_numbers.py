"""Same numbers: calibrated through the fused fake-quant node and the
per-sample conv gather, every registry model (CLI widths) deploys to
bitwise the ``qnn``, plan outputs and golden vectors of the composed
reference substrate (``tests/substrate_ref.py``), at 8/8 and 4/4."""
import numpy as np
import pytest

from repro.cli import MODEL_KWARGS
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import MODELS, build_model
from repro.utils import seed_everything
from tests.substrate_ref import use_reference_substrate


def _calibrate_and_deploy(name, bits):
    seed_everything(0)
    qm = quantize_model(build_model(name, num_classes=10, **MODEL_KWARGS[name]),
                        QConfig(bits, bits))
    rng = np.random.default_rng(39)
    calibrate_model(qm, [rng.standard_normal((8, 3, 32, 32)).astype(np.float32)])
    d = deploy(qm, DeploySpec())
    x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
    return d.qnn.state_dict(), d.plan(x), d.golden.outputs


@pytest.mark.parametrize("bits", [8, 4])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_fused_substrate_calibrates_bitwise_reference(name, bits, monkeypatch):
    shipped = _calibrate_and_deploy(name, bits)
    with monkeypatch.context() as m:
        use_reference_substrate(m)
        reference = _calibrate_and_deploy(name, bits)
    (state, out, golden), (ref_state, ref_out, ref_golden) = shipped, reference
    assert list(state) == list(ref_state)
    for key in state:
        assert state[key].dtype == ref_state[key].dtype, key
        assert state[key].tobytes() == ref_state[key].tobytes(), key
    assert out.tobytes() == ref_out.tobytes()
    assert golden.tobytes() == ref_golden.tobytes()
