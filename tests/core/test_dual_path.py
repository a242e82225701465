"""Dual-Path conformance kit: for every quantizing class (``identity`` is
exempt) and the custom quantizer of ``docs/customization.md`` §1, in eval
mode with the stochastic parts off (QDrop's drop, AdaRound's soft gate):

* the training path's values are the integer path's codes dequantized,
  ``trainFunc(x) == dq(q(x))``, bitwise;
* the deploy-mode forward returns the same codes with telemetry on as off;
* ``q()`` stays inside the class's grid;
* the gradients w.r.t. ``x`` and each learnable (LSQ's step, the PACT and
  RCF clipping levels) match the chain each class ran before it went
  through the one fake-quant node (``tests/substrate_ref.py``), within
  float32 rounding: the two spell the same gradient in a different
  float32 op order (:data:`GRAD_TOL`).
"""
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.core import quantizers
from repro.core.quantizers import QUANTIZERS
from repro.tensor import Tensor, no_grad
from tests.substrate_ref import QUANTIZER_CHAINS

DOCS = Path(__file__).resolve().parents[2] / "docs" / "customization.md"

#: Gradient tolerance.  ``x``'s gradient: relative to its largest element.
#: A range parameter ``p``'s gradient sums one term per element, each as
#: large as ``g * out / p`` (times the ``1/sqrt(N * qub)`` gradient scaling
#: where the class applies it), and those terms cancel; the tolerance is
#: relative to the sum of their magnitudes.  The two spellings measure
#: within 2e-7 of either scale; one element on a different code or mask
#: moves the range gradient by about 1/N of it.
GRAD_TOL = 1e-6
GRAD_SCALED = ("lsq", "rcf_weight", "rcf_act")

#: (constructor kwargs, input kind); "act" inputs are N(0, 2) activations
#: that overshoot the clipping levels, "weight" inputs N(0, 0.1) weights
CASES = {
    "minmax": ({}, "act"),
    "asym_minmax": ({}, "act"),
    "minmax_channel": ({}, "weight"),
    "minmax_weight": ({}, "weight"),
    "sawb": ({}, "weight"),
    "qdrop": (dict(observer="minmax"), "act"),
    "lsq": ({}, "weight"),
    "pact": (dict(alpha_init=2.0), "act"),
    "rcf_weight": ({}, "weight"),
    "rcf_act": ({}, "act"),
    "dorefa_weight": ({}, "weight"),
    "dorefa_act": ({}, "act"),
    "adaround": ({}, "weight"),
    "deadzone": (dict(deadzone=0.05), "weight"),
}


def _docs_quantizer(monkeypatch):
    """Run §1's code block as written; its registration lands in a copy of
    the registry that the test drops afterwards."""
    text = DOCS.read_text()
    section = text.split("## 1.", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.setattr(quantizers, "QUANTIZERS", dict(QUANTIZERS))
    scope = {}
    exec(compile(code, str(DOCS), "exec"), scope)
    return scope["ThresholdQuantizer"]


def _input(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "weight":
        return (rng.standard_normal((16, 8, 3, 3)) * 0.1).astype(np.float32)
    return (rng.standard_normal((4, 8, 6, 6)) * 2.0).astype(np.float32)


def _grid(name, q):
    """The grid each class states: RCF's weights are symmetric."""
    return (-q.qub, q.qub) if name == "rcf_weight" else (q.qlb, q.qub)


def _ready(name, nbit, x, monkeypatch, shrink=False):
    """A calibrated / initialised quantizer in eval mode, stochastic parts
    off; ``shrink`` pulls an RCF weight clip inside the weights."""
    kwargs, _ = CASES[name]
    cls = _docs_quantizer(monkeypatch) if name == "deadzone" else QUANTIZERS[name]
    q = cls(nbit=nbit, **kwargs)
    q.eval()
    if name == "adaround":
        q.init_from_weight(x)
        q.alpha.data = np.random.default_rng(7).standard_normal(x.shape).astype(np.float32)
        q.soft = False
    if hasattr(q, "finalize_calibration"):
        q.observe = True
        q(Tensor(x))
        q.finalize_calibration()
    if name == "qdrop":
        q.drop_enabled = False
    with no_grad():
        q.trainFunc(Tensor(x))   # lazy inits (LSQ, RCF) settle here
        if shrink:   # as a training step would
            q.alpha.data = np.array([0.5 * np.abs(x).max()], dtype=np.float32)
            q.trainFunc(Tensor(x))
    return q


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


PARAMS = [(name, nbit) for name in CASES for nbit in (2, 4, 8)]
IDS = [f"{n}-{b}bit" for n, b in PARAMS]


@pytest.mark.parametrize("name,nbit", PARAMS, ids=IDS)
def test_train_path_is_dequantized_codes(name, nbit, monkeypatch):
    """Over twelve inputs: a step spelled two ways differs in only some
    of its values."""
    for seed in range(12):
        x = _input(CASES[name][1], 10 * seed + nbit)
        q = _ready(name, nbit, x, monkeypatch)
        with no_grad():
            fake = q.trainFunc(Tensor(x)).data
            back = q.dq(q.q(Tensor(x))).data
        assert _bits(fake) == _bits(back), (seed, int(np.count_nonzero(fake != back)))


@pytest.mark.parametrize("name,nbit", PARAMS, ids=IDS)
def test_telemetry_does_not_change_deploy_codes(name, nbit, monkeypatch):
    x = _input(CASES[name][1], nbit)
    q = _ready(name, nbit, x, monkeypatch)
    q.deploy = True
    off = q(Tensor(x)).data
    prev = telemetry.set_enabled(True)
    try:
        on = q(Tensor(x)).data
    finally:
        telemetry.set_enabled(prev)
        telemetry.get_registry().clear()
    assert _bits(on) == _bits(off), int(np.count_nonzero(on != off))


@pytest.mark.parametrize("name,nbit", PARAMS + [("rcf_weight-shrunk", b) for b in (2, 4, 8)],
                         ids=IDS + [f"rcf_weight-shrunk-{b}bit" for b in (2, 4, 8)])
def test_codes_stay_in_grid(name, nbit, monkeypatch):
    shrink = name.endswith("-shrunk")
    name = name.replace("-shrunk", "")
    x = _input(CASES[name][1], nbit)
    q = _ready(name, nbit, x, monkeypatch, shrink=shrink)
    codes = q.q(Tensor(x)).data
    lo, hi = _grid(name, q)
    assert lo <= codes.min() and codes.max() <= hi, (codes.min(), codes.max())
    assert np.array_equal(codes, np.round(codes))
    if shrink:   # the clip bites: both grid ends are reached
        assert codes.min() == lo and codes.max() == hi


def _learnables(q):
    return [p for p in (getattr(q, "step", None), getattr(q, "alpha", None))
            if isinstance(p, Tensor) and p.requires_grad]


@pytest.mark.parametrize("name,nbit", PARAMS, ids=IDS)
def test_gradients_match_the_reference_chain(name, nbit, monkeypatch):
    x_np = _input(CASES[name][1], nbit)
    q = _ready(name, nbit, x_np, monkeypatch)
    g = np.random.default_rng(nbit).standard_normal(x_np.shape).astype(np.float32)
    runs = []
    for fn in (q.trainFunc, lambda t: QUANTIZER_CHAINS[name](q, t)):
        x = Tensor(x_np.copy(), requires_grad=True)
        for p in _learnables(q):
            p.grad = None
        out = fn(x)
        if out.requires_grad:
            out.backward(g)
        runs.append((out, x.grad, [p.grad for p in _learnables(q)]))
    (out, gx, gps), (ref_out, ref_gx, ref_gps) = runs
    assert out.requires_grad == ref_out.requires_grad
    if not ref_out.requires_grad:   # AdaRound's hard gate: no gradient either way
        return
    np.testing.assert_allclose(gx, ref_gx, rtol=0,
                               atol=GRAD_TOL * float(np.abs(ref_gx).max()))
    for p, a, b in zip(_learnables(q), gps, ref_gps):
        mass = float(np.abs(g * ref_out.data).sum()) / float(np.abs(p.data).max())
        if name in GRAD_SCALED:
            mass /= math.sqrt(x_np.size * q.qub)
        np.testing.assert_allclose(a, b, rtol=0, atol=GRAD_TOL * mass)
