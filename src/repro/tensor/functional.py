"""Differentiable neural-network primitives on :class:`~repro.tensor.Tensor`.

Convolution (with groups, covering depthwise for MobileNet), pooling, GELU,
linear, dropout and the straight-through estimators used by the quantizers.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.tensor.im2col import col2im, conv_out_size, im2col, windows
from repro.tensor.tensor import Tensor, _make, _unary


def relu(x: Tensor) -> Tensor:
    return x.relu()


def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (matches common accelerator LUTs)."""
    c = math.sqrt(2.0 / math.pi)

    def fwd(v):
        return 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * (v * v * v))))

    def bwd(g, v, o):
        t = np.tanh(c * (v + 0.044715 * (v * v * v)))
        dt = (1 - t * t) * c * (1 + 3 * 0.044715 * v * v)
        return g * (0.5 * (1 + t) + 0.5 * v * dt)

    return _unary(x, fwd, bwd, "gelu")


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``y = x @ W^T + b`` with ``weight`` of shape ``(out, in)``."""
    y = x @ weight.transpose(*range(weight.ndim - 2), weight.ndim - 1, weight.ndim - 2)
    if bias is not None:
        y = y + bias
    return y


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * Tensor(mask)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-D convolution via im2col + matmul, one GEMM per sample.

    ``x``: ``(N, C, H, W)``; ``weight``: ``(O, C // groups, KH, KW)``.
    Supports grouped and depthwise convolution (``groups == C``).  The input
    is zero-padded once; each sample's ``(C*KH*KW, OH*OW)`` columns are
    gathered into one reused buffer just before that sample's GEMM, so the
    batch's column matrix (``KH*KW`` times the input) is never built.  The
    result keeps its operands' type: a ``float64`` weight (the deploy path's
    integer kernel) makes it an exact ``float64`` GEMM that casts one
    sample's columns at a time.
    """
    n, c, h, w = x.shape
    o, cg, kh, kw = weight.shape
    if c % groups or o % groups:
        raise ValueError(f"channels {c}/{o} not divisible by groups {groups}")
    if cg != c // groups:
        raise ValueError(f"weight expects {cg} in-channels per group, input gives {c // groups}")
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    og = o // groups

    win = windows(x.data, kh, kw, stride, padding)  # (N, C, kh, kw, OH, OW)
    cols = np.empty(win.shape[1:], dtype=win.dtype)  # one sample's columns
    cols_g = cols.reshape(groups, cg * kh * kw, oh * ow)
    wm = weight.data.reshape(o, cg * kh * kw)
    wm_g = wm.reshape(groups, og, cg * kh * kw)
    out_data = np.empty((n, o, oh, ow), dtype=np.result_type(wm, cols))
    out_g = out_data.reshape(n, groups, og, oh * ow)
    for i in range(n):
        np.copyto(cols, win[i])
        np.matmul(wm_g, cols_g, out=out_g[i])

    out = _make(out_data, (x, weight), "conv2d")
    if out.requires_grad:
        x_data = x.data  # keep the input, NOT the im2col matrix: columns are
        # ~k^2 times larger and would otherwise live as long as the graph —
        # recomputing them in the backward pass trades one memcpy-scale
        # gather for gigabytes of retained memory on deep models.

        def _bw(g):
            bw_cols = im2col(x_data, kh, kw, stride, padding)
            gl = g.reshape(n, o, oh * ow)
            if groups == 1:
                gw = np.einsum("nol,nkl->ok", gl, bw_cols).reshape(weight.shape)
                gcols = np.matmul(wm.T[None], gl)  # (N, C*kh*kw, L)
            else:
                gl_g = gl.reshape(n, groups, og, oh * ow)
                cols_g2 = bw_cols.reshape(n, groups, cg * kh * kw, oh * ow)
                gw = np.einsum("ngol,ngkl->gok", gl_g, cols_g2).reshape(weight.shape)
                gcols = np.matmul(np.swapaxes(wm.reshape(groups, og, cg * kh * kw), -1, -2)[None], gl_g)
                gcols = gcols.reshape(n, c * kh * kw, oh * ow)
            gx = col2im(gcols, (n, c, h, w), kh, kw, stride, padding)
            return ((x, gx.astype(np.float32)), (weight, gw.astype(np.float32)))
        out._backward = _bw

    if bias is not None:
        out = out + bias.reshape(1, o, 1, 1)
    return out


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Fused training-mode batch norm over ``(N, C, H, W)``.

    Returns ``(y, batch_mean, batch_var)`` (the statistics as plain arrays
    for the running-stat update).  A single graph node holding only ``xhat``
    and ``invstd`` — the op-by-op composition would retain ~6 full-size
    intermediates per layer, which dominates training memory on deep nets.
    """
    data = x.data
    axes = (0, 2, 3)
    n = data.shape[0] * data.shape[2] * data.shape[3]
    mean = data.mean(axis=axes, keepdims=True)
    var = data.var(axis=axes, keepdims=True)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (data - mean) * invstd
    g = gamma.data.reshape(1, -1, 1, 1)
    b = beta.data.reshape(1, -1, 1, 1)
    out = _make((xhat * g + b).astype(np.float32), (x, gamma, beta), "batch_norm")
    if out.requires_grad:
        def _bw(grad):
            dgamma = (grad * xhat).sum(axis=axes)
            dbeta = grad.sum(axis=axes)
            dxhat = grad * g
            s1 = dxhat.sum(axis=axes, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=axes, keepdims=True)
            dx = invstd / n * (n * dxhat - s1 - xhat * s2)
            return ((x, dx.astype(np.float32)),
                    (gamma, dgamma.astype(np.float32)),
                    (beta, dbeta.astype(np.float32)))
        out._backward = _bw
    return out, mean.reshape(-1), var.reshape(-1)


def max_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, 0)
    ow = conv_out_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, kernel, stride, 0).reshape(n, c, kernel * kernel, oh * ow)
    idx = cols.argmax(axis=2)
    out_data = np.take_along_axis(cols, idx[:, :, None, :], axis=2)[:, :, 0, :].reshape(n, c, oh, ow)

    out = _make(out_data.astype(np.float32), (x,), "max_pool2d")
    if out.requires_grad:
        def _bw(g):
            gcols = np.zeros((n, c, kernel * kernel, oh * ow), dtype=np.float32)
            np.put_along_axis(gcols, idx[:, :, None, :], g.reshape(n, c, 1, oh * ow), axis=2)
            gx = col2im(gcols.reshape(n, c * kernel * kernel, oh * ow), (n, c, h, w), kernel, kernel, stride, 0)
            return ((x, gx),)
        out._backward = _bw
    return out


def avg_pool2d(x: Tensor, kernel: int, stride: Optional[int] = None) -> Tensor:
    stride = stride or kernel
    n, c, h, w = x.shape
    oh = conv_out_size(h, kernel, stride, 0)
    ow = conv_out_size(w, kernel, stride, 0)
    cols = im2col(x.data, kernel, kernel, stride, 0).reshape(n, c, kernel * kernel, oh * ow)
    out_data = cols.mean(axis=2).reshape(n, c, oh, ow)

    out = _make(out_data.astype(np.float32), (x,), "avg_pool2d")
    if out.requires_grad:
        k2 = kernel * kernel

        def _bw(g):
            gcols = np.broadcast_to(g.reshape(n, c, 1, oh * ow) / k2, (n, c, k2, oh * ow))
            gx = col2im(np.ascontiguousarray(gcols).reshape(n, c * k2, oh * ow), (n, c, h, w), kernel, kernel, stride, 0)
            return ((x, gx.astype(np.float32)),)
        out._backward = _bw
    return out


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Global average pooling when ``output_size == 1`` (the only case used)."""
    if output_size != 1:
        raise NotImplementedError("only global average pooling is supported")
    return x.mean(axis=(2, 3), keepdims=True)


def cross_entropy(logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy over a batch of integer class targets."""
    n, k = logits.shape
    logp = logits.log_softmax(axis=-1)
    targets = np.asarray(targets).astype(np.int64).reshape(-1)
    onehot = np.zeros((n, k), dtype=np.float32)
    onehot[np.arange(n), targets] = 1.0
    if label_smoothing > 0:
        onehot = onehot * (1.0 - label_smoothing) + label_smoothing / k
    return -(logp * Tensor(onehot)).sum(axis=-1).mean()


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    d = pred - target
    return (d * d).mean()


def kl_div_loss(logp_student: Tensor, p_teacher: Tensor) -> Tensor:
    """KL(p_teacher || p_student) given student log-probs, teacher probs."""
    pt = p_teacher.detach()
    return (pt * (pt.clamp(1e-8).log() - logp_student)).sum(axis=-1).mean()
