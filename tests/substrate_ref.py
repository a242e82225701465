"""Test-side references of the float substrate's fused forms.

The shipped substrate quantizes with one fused fake-quant node
(:func:`repro.core.qbase.fake_quant`) and convolves with a per-sample column
gather (:func:`repro.tensor.functional.conv2d`).  These are the compositions
they replaced, kept only so the tests can prove the fused forms bitwise
equal to them:

* :func:`chain_fake_quant` / :func:`chain_q` — the six-node autograd chain
  ``div, add, round_ste, clamp, sub, mul`` (and its no-dequant ``round``
  form, whose pre-clamp codes :func:`chain_codes` returns);
* :func:`full_batch_conv` — the whole batch's im2col columns first, then
  one GEMM per sample;
* :func:`use_reference_substrate` — monkeypatches both into the package;
* :data:`QUANTIZER_CHAINS` — the training chains each quantizer spelled for
  itself before all of them went through one fake-quant node, as functions
  of ``(quantizer, x)``: the Dual-Path kit checks the shipped gradients
  against them.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.qbase import _QBase
from repro.tensor import functional as F
from repro.tensor import minimum
from repro.tensor.im2col import conv_out_size, im2col
from repro.tensor.tensor import Tensor, _make


def chain_fake_quant(x: Tensor, scale, zero_point, lo, hi) -> Tensor:
    """The six-node chain; a ``Tensor`` scale stays in the graph."""
    s = scale if isinstance(scale, Tensor) else Tensor(scale)
    zp = Tensor(zero_point)
    xq = (x / s + zp).round_ste().clamp(lo, hi)
    return (xq - zp) * s


def chain_codes(x: Tensor, scale, zero_point) -> Tensor:
    """The chain's rounded codes before the clamp."""
    return (x / Tensor(scale) + Tensor(zero_point)).round()


def chain_q(x: Tensor, scale, zero_point, lo, hi) -> Tensor:
    return chain_codes(x, scale, zero_point).clamp(lo, hi)


def full_batch_conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int,
                    groups: int) -> np.ndarray:
    """Forward of the batch-wide im2col conv: every sample's columns are
    built before the first GEMM."""
    n, _, h, ww = x.shape
    o, cg, kh, kw = w.shape
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(ww, kw, stride, padding)
    og = o // groups
    cols = im2col(x, kh, kw, stride, padding)
    wm_g = w.reshape(groups, og, cg * kh * kw)
    cols_g = cols.reshape(n, groups, cg * kh * kw, oh * ow)
    out = np.empty((n, o, oh, ow), dtype=np.result_type(w, cols))
    out_g = out.reshape(n, groups, og, oh * ow)
    for i in range(n):
        np.matmul(wm_g, cols_g[i], out=out_g[i])
    return out


def _full_batch_conv2d(x, weight, bias=None, stride=1, padding=0, groups=1):
    out = _make(full_batch_conv(x.data, weight.data, stride, padding, groups),
                (x, weight), "conv2d")
    if bias is not None:
        out = out + bias.reshape(1, weight.shape[0], 1, 1)
    return out


def use_reference_substrate(monkeypatch) -> None:
    """Route every ``_QBase`` fake-quant and every conv forward through the
    references (forward only: calibration and deploy record no graph)."""
    monkeypatch.setattr(_QBase, "trainFunc", lambda self, x: chain_fake_quant(
        x, self.scale.data, self.zero_point.data, self.qlb, self.qub))
    monkeypatch.setattr(_QBase, "q", lambda self, x: chain_q(
        x, self.scale.data, self.zero_point.data, self.qlb, self.qub))
    monkeypatch.setattr(F, "conv2d", _full_batch_conv2d)


# ------------------------------------------------ per-quantizer chains
def _grad_scaled(p: Tensor, n: int, qub: int) -> Tensor:
    g = 1.0 / math.sqrt(max(n * qub, 1))
    return p * g + Tensor(p.data.copy()) * (1.0 - g)


def _base_chain(q, x: Tensor) -> Tensor:
    return chain_fake_quant(x, q.scale.data, q.zero_point.data, q.qlb, q.qub)


def lsq_chain(q, x: Tensor) -> Tensor:
    step = q.step.clamp(1e-6)
    s = _grad_scaled(step, x.size, q.qub)
    return (x / s).round_ste().clamp(q.qlb, q.qub) * s


def pact_chain(q, x: Tensor) -> Tensor:
    alpha = q.alpha.clamp(1e-4)
    scale = alpha * (1.0 / q.qub)
    return (minimum(x.relu(), alpha) / scale).round_ste() * scale


def rcf_weight_chain(q, x: Tensor) -> Tensor:
    alpha = _grad_scaled(q.alpha, x.size, q.qub).clamp(1e-4)
    yq = ((x / alpha).clamp(-1.0, 1.0) * q.qub).round_ste()
    return yq * (alpha * (1.0 / q.qub))


def rcf_act_chain(q, x: Tensor) -> Tensor:
    alpha = _grad_scaled(q.alpha, x.size, q.qub).clamp(1e-4)
    scale = alpha * (1.0 / q.qub)
    return (minimum(x.relu(), alpha) / scale).round_ste() * scale


def dorefa_weight_chain(q, x: Tensor) -> Tensor:
    t = x.tanh()
    w = t / float(np.abs(t.data).max() + 1e-12)
    return (w * q.qub).round_ste().clamp(q.qlb, q.qub) * (1.0 / q.qub)


def dorefa_act_chain(q, x: Tensor) -> Tensor:
    s = q.alpha / q.qub
    return (x.clamp(0.0, q.alpha) * (1.0 / s)).round_ste() * s


def adaround_hard_chain(q, x: Tensor) -> Tensor:
    s = float(q.scale.data)
    gate = Tensor((q.alpha.data >= 0).astype(np.float32))
    wq = (Tensor(np.floor(x.data / s)) + gate).clamp(q.qlb, q.qub)
    return wq * Tensor(q._nonzero) * s


def deadzone_chain(q, x: Tensor) -> Tensor:
    """``docs/customization.md``'s first ``ThresholdQuantizer.trainFunc``."""
    s = float(q.scale.data)
    gated = x * Tensor((np.abs(x.data) > q.deadzone).astype(np.float32))
    return (gated / s).round_ste().clamp(q.qlb, q.qub) * s


#: registry name (``deadzone``: the docs example) -> the chain its
#: ``trainFunc`` ran; the observer- and data-scaled quantizers always ran
#: the base chain
QUANTIZER_CHAINS = {
    "minmax": _base_chain, "asym_minmax": _base_chain,
    "minmax_channel": _base_chain, "minmax_weight": _base_chain,
    "sawb": _base_chain, "qdrop": _base_chain,
    "lsq": lsq_chain, "pact": pact_chain,
    "rcf_weight": rcf_weight_chain, "rcf_act": rcf_act_chain,
    "dorefa_weight": dorefa_weight_chain, "dorefa_act": dorefa_act_chain,
    "adaround": adaround_hard_chain, "deadzone": deadzone_chain,
}
