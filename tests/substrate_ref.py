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
* :func:`use_reference_substrate` — monkeypatches both into the package.
"""
from __future__ import annotations

import numpy as np

from repro.core.qbase import _QBase
from repro.tensor import functional as F
from repro.tensor.im2col import conv_out_size, im2col
from repro.tensor.tensor import Tensor, _make


def chain_fake_quant(x: Tensor, scale, zero_point, lo, hi) -> Tensor:
    s = Tensor(scale)
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
