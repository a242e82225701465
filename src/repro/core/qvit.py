"""Integer-only Vision Transformer (paper §3.2.2, Fig. 4).

Dual-path counterparts of the ViT building blocks:

* :class:`QAttention` — fused-QKV multi-head attention with quantizers on the
  Q/K/V tensors, the attention scores, and the probabilities; the deploy path
  is integer matmuls + :class:`~repro.core.lut.LUTSoftmax`.
* :class:`QMLP` — the feed-forward block with a
  :class:`~repro.core.lut.LUTGelu` in the deploy path.
* :class:`QLNUnit` — LayerNorm with two deploy strategies: pre-computed
  running statistics fused into a per-channel MulQuant (fully integer), or
  instant statistics computed on dequantized values (the float-division
  reference, for accuracy/latency trade-off studies).
* :class:`QViTBlock` / :class:`QVisionTransformer` — residual-stream
  bookkeeping: every residual add happens on integers in a per-junction
  signed domain defined by a stream quantizer.

``ViTFuser`` wires all the MulQuants and LUTs from the calibrated scales.
"""
from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import nn
from repro.core.fusion import FuserBase, _scalar_scale, _weight_scale_vector
from repro.core.lut import LUTGelu, LUTSoftmax
from repro.core.mulquant import MulQuant
from repro.core.qbase import _QBase
from repro.core.qconfig import QConfig
from repro.core.qlayers import QConv2d, QLinear
from repro.core.qmodels import QConvBNReLU, QLinearUnit
from repro.models.vit import Block, VisionTransformer
from repro.nn.module import Parameter
from repro.tensor import cat
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class QLNUnit(nn.Module):
    """LayerNorm with a dual-path deploy strategy.

    * running-stats LN -> fully-integer per-channel MulQuant (wired by fuser);
    * instant-stats LN -> dequantize, normalize, requantize (reference mode
      the paper keeps customizable for latency/accuracy studies).
    """

    def __init__(self, ln: nn.LayerNorm):
        super().__init__()
        self.ln = ln
        self.running_stats = ln.running_stats
        self.deploy = False
        self.mq: Optional[MulQuant] = None        # running-stats path
        # instant path: input grid step + output grid (plain values so the
        # vanilla re-pack carries them without any quantizer module)
        self.in_scale: Optional[float] = None
        self.out_scale: Optional[float] = None
        self.out_qlb: int = 0
        self.out_qub: int = 0

    def forward(self, x: Tensor) -> Tensor:
        if not self.deploy:
            return self.ln(x)
        if self.running_stats:
            return self.mq(x)
        # Instant statistics: float normalization between integer domains.
        xf = x * self.in_scale
        y = self.ln(xf)
        yq = np.clip(np.round(y.data / self.out_scale), self.out_qlb, self.out_qub)
        return Tensor(yq.astype(np.float32))


class QAttention(nn.Module):
    """Dual-path multi-head self-attention."""

    def __init__(self, attn: nn.MultiheadAttention, qcfg: QConfig):
        super().__init__()
        self.embed_dim = attn.embed_dim
        self.num_heads = attn.num_heads
        self.head_dim = attn.head_dim
        self.softmax_scale = 1.0 / math.sqrt(self.head_dim)
        self.qkv = QLinear.from_float(attn.qkv, qcfg.make_wq(), qcfg.make_aq(signed=True))
        self.proj = QLinear.from_float(attn.proj, qcfg.make_wq(), qcfg.make_aq(signed=True))
        self.qq = qcfg.make_aq(signed=True)
        self.kq = qcfg.make_aq(signed=True)
        self.vq = qcfg.make_aq(signed=True)
        self.sq = qcfg.make_aq(signed=True)  # attention-score quantizer
        self.prob_bits = qcfg.prob_bits
        self.deploy = False
        # wired by the fuser:
        self.mq_qkv: Optional[MulQuant] = None
        self.mq_score: Optional[MulQuant] = None
        self.lut_softmax: Optional[LUTSoftmax] = None
        self.mq_ctx: Optional[MulQuant] = None
        self.mq_proj: Optional[MulQuant] = None

    def _split_qkv(self, qkv: Tensor, n: int, l: int):
        qkv = qkv.reshape(n, l, 3, self.num_heads, self.head_dim).transpose(2, 0, 3, 1, 4)
        return qkv[0], qkv[1], qkv[2]  # each (N, H, L, hd)

    def _merge_heads(self, ctx: Tensor, n: int, l: int) -> Tensor:
        return ctx.transpose(0, 2, 1, 3).reshape(n, l, self.embed_dim)

    def forward(self, x: Tensor) -> Tensor:
        n, l, _ = x.shape
        if self.deploy:
            t = self.mq_qkv(self.qkv(x))          # int acc -> q/k/v domains
            q, k, v = self._split_qkv(t, n, l)
            s_int = self.mq_score(q @ k.swapaxes(-1, -2))
            p_int = self.lut_softmax(s_int)       # probs on the 2^-pb grid
            c_int = self.mq_ctx(p_int @ v)        # -> proj input domain
            return self.mq_proj(self.proj(self._merge_heads(c_int, n, l)))
        qkv = self.qkv(x)
        q, k, v = self._split_qkv(qkv, n, l)
        q, k, v = self.qq(q), self.kq(k), self.vq(v)
        scores = (q @ k.swapaxes(-1, -2)) * self.softmax_scale
        s = self.sq(scores)
        p = s.softmax(axis=-1)
        # Fake-quantize probabilities onto the deploy LUT's output grid.
        pb = float(1 << self.prob_bits)
        p = ((p * pb).round_ste() * (1.0 / pb)).clamp(0.0, 1.0)
        ctx = self._merge_heads(p @ v, n, l)
        return self.proj(ctx)


class QMLP(nn.Module):
    """Dual-path transformer feed-forward block with LUT GELU."""

    def __init__(self, mlp, qcfg: QConfig):
        super().__init__()
        self.fc1 = QLinear.from_float(mlp.fc1, qcfg.make_wq(), qcfg.make_aq(signed=True))
        self.fc2 = QLinear.from_float(mlp.fc2, qcfg.make_wq(), qcfg.make_aq(signed=True))
        self.gq = qcfg.make_aq(signed=True)  # GELU-input quantizer
        self.deploy = False
        self.mq_fc1: Optional[MulQuant] = None
        self.lut_gelu: Optional[LUTGelu] = None
        self.mq_fc2: Optional[MulQuant] = None

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            g = self.lut_gelu(self.mq_fc1(self.fc1(x)))
            return self.mq_fc2(self.fc2(g))
        h = self.gq(self.fc1(x))
        return self.fc2(F.gelu(h))


class QViTBlock(nn.Module):
    """Dual-path transformer block with quantized residual stream."""

    def __init__(self, block: Block, qcfg: QConfig):
        super().__init__()
        self.ln1 = QLNUnit(block.norm1)
        self.attn = QAttention(block.attn, qcfg)
        self.ln2 = QLNUnit(block.norm2)
        self.mlp = QMLP(block.mlp, qcfg)
        self.rq1 = qcfg.make_aq(signed=True)  # stream domain after attn add
        self.rq2 = qcfg.make_aq(signed=True)  # stream domain after mlp add
        self.deploy = False
        self.mq_id1: Optional[MulQuant] = None
        self.mq_id2: Optional[MulQuant] = None
        self.res_scale = 1.0  # pre-add domain refinement (set by fuser)

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            from repro.core.qmodels import _residual_merge

            a = self.attn(self.ln1(x))
            x = _residual_merge(a, self.mq_id1(x), self.res_scale,
                                (self.rq1.qlb, self.rq1.qub))
            m = self.mlp(self.ln2(x))
            x = _residual_merge(m, self.mq_id2(x), self.res_scale,
                                (self.rq2.qlb, self.rq2.qub))
            return x
        x = self.rq1(x + self.attn(self.ln1(x)))
        x = self.rq2(x + self.mlp(self.ln2(x)))
        return x


class QVisionTransformer(nn.Module):
    """Dual-path ViT: patch embedding, quantized blocks, classifier head."""

    def __init__(self, model: VisionTransformer, qcfg: QConfig):
        super().__init__()
        self.qcfg = qcfg
        self.embed_dim = model.embed_dim
        self.input_q = qcfg.make_input_q()
        self.patch = QConvBNReLU(
            QConv2d.from_float(model.patch_embed.proj, qcfg.make_wq(), self.input_q),
            bn=None, relu=False)
        self.cls_token = Parameter(model.cls_token.data.copy())
        self.pos_embed = Parameter(model.pos_embed.data.copy())
        self.embed_q = qcfg.make_aq(signed=True)
        self.blocks = nn.Sequential(*[QViTBlock(b, qcfg) for b in model.blocks])
        self.norm = QLNUnit(model.norm)
        self.head = QLinearUnit(QLinear.from_float(model.head, qcfg.make_wq(), qcfg.make_aq(signed=True)))
        self.deploy = False
        self.register_buffer("cls_int", np.zeros_like(model.cls_token.data))
        self.register_buffer("pos_int", np.zeros_like(model.pos_embed.data))

    def _tokens(self, x: Tensor) -> Tensor:
        out = self.patch(x)  # (N, D, h, w)
        n, d = out.shape[0], out.shape[1]
        return out.reshape(n, d, -1).transpose(0, 2, 1)

    def forward(self, x: Tensor) -> Tensor:
        if self.deploy:
            xi = self.input_q(x)
            tok = self._tokens(xi)  # int tokens in the embed domain
            n = tok.shape[0]
            cls = Tensor(np.broadcast_to(self.cls_int.data, (n, 1, self.embed_dim)).copy())
            tok = cat([cls, tok], axis=1)
            tok = Tensor(np.clip(tok.data + self.pos_int.data, self.embed_q.qlb, self.embed_q.qub))
            tok = self.blocks(tok)
            tok = self.norm(tok)
            return self.head(tok[:, 0])
        tok = self._tokens(x)
        n = tok.shape[0]
        cls = self.cls_token.broadcast_to((n, 1, self.embed_dim))
        tok = cat([cls, tok], axis=1) + self.pos_embed
        tok = self.embed_q(tok)
        tok = self.blocks(tok)
        tok = self.norm(tok)
        return self.head(tok[:, 0])


class ViTFuser(FuserBase):
    """Fuser for :class:`QVisionTransformer`."""

    def _fuse_ln(self, unit: QLNUnit, s_in: float, out_q: _QBase) -> None:
        s_out = _scalar_scale(out_q)
        if unit.running_stats:
            ln = unit.ln
            gamma = ln.weight.data.astype(np.float64).reshape(-1)
            beta = ln.bias.data.astype(np.float64).reshape(-1)
            # Per-position running statistics (e.g. (L, 1) for token streams)
            # broadcast against the per-channel gamma/beta into an affine
            # table — one INT16 word pair per (position, channel).
            mu = np.asarray(ln.running_mean.data, dtype=np.float64)
            sigma = np.sqrt(np.asarray(ln.running_var.data, dtype=np.float64) + ln.eps)
            scale = gamma * s_in / (sigma * s_out)
            bias = (beta - gamma * mu / sigma) / s_out
            unit.mq = MulQuant(scale, bias, fmt=self.fmt, channel_axis=-1,
                               out_lo=out_q.qlb, out_hi=out_q.qub,
                               float_scale=self.float_scale)
        else:
            unit.in_scale = s_in
            unit.out_scale = s_out
            unit.out_qlb = out_q.qlb
            unit.out_qub = out_q.qub

    def _fuse_linear_to(self, lin: QLinear, s_targets: np.ndarray, out_lo: float,
                        out_hi: float) -> MulQuant:
        """MulQuant mapping a linear's int accumulator into target domain(s)."""
        lin.freeze_int_weight()
        s_x = _scalar_scale(lin.aq)
        s_w = _weight_scale_vector(lin, lin.out_features)
        scale = s_w * s_x / s_targets
        bias_f = lin.bias.data.astype(np.float64) if lin.bias is not None else np.zeros(lin.out_features)
        bias = bias_f / s_targets
        return MulQuant(scale, bias, fmt=self.fmt, channel_axis=-1,
                        out_lo=out_lo, out_hi=out_hi, float_scale=self.float_scale)

    def _fuse_attention(self, attn: QAttention, s_stream_out: float, stream_range) -> None:
        d = attn.embed_dim
        sq_, sk_, sv_ = (_scalar_scale(attn.qq), _scalar_scale(attn.kq), _scalar_scale(attn.vq))
        targets = np.concatenate([np.full(d, sq_), np.full(d, sk_), np.full(d, sv_)])
        qgrid = attn.qq  # all three share the same integer grid width
        attn.mq_qkv = self._fuse_linear_to(attn.qkv, targets, qgrid.qlb, qgrid.qub)

        s_score = _scalar_scale(attn.sq)
        attn.mq_score = MulQuant(sq_ * sk_ * attn.softmax_scale / s_score, fmt=self.fmt,
                                 out_lo=attn.sq.qlb, out_hi=attn.sq.qub,
                                 float_scale=self.float_scale)
        attn.lut_softmax = LUTSoftmax(s_score, attn.sq.qlb, attn.sq.qub,
                                      prob_bits=attn.prob_bits)
        s_proj_in = _scalar_scale(attn.proj.aq)
        pb = float(1 << attn.prob_bits)
        attn.mq_ctx = MulQuant(sv_ / (pb * s_proj_in), fmt=self.fmt,
                               out_lo=attn.proj.aq.qlb, out_hi=attn.proj.aq.qub,
                               float_scale=self.float_scale)
        attn.mq_proj = self._fuse_linear_to(
            attn.proj, np.full(d, s_stream_out), *stream_range)

    def _fuse_mlp(self, mlp: QMLP, s_stream_out: float, stream_range) -> None:
        s_g = _scalar_scale(mlp.gq)
        hidden = mlp.fc1.out_features
        mlp.mq_fc1 = self._fuse_linear_to(mlp.fc1, np.full(hidden, s_g),
                                          mlp.gq.qlb, mlp.gq.qub)
        s_fc2_in = _scalar_scale(mlp.fc2.aq)
        mlp.lut_gelu = LUTGelu(s_g, mlp.gq.qlb, mlp.gq.qub,
                               s_fc2_in, mlp.fc2.aq.qlb, mlp.fc2.aq.qub)
        mlp.mq_fc2 = self._fuse_linear_to(
            mlp.fc2, np.full(mlp.fc2.out_features, s_stream_out), *stream_range)

    def fuse(self) -> QVisionTransformer:
        m: QVisionTransformer = self.model
        s_embed = _scalar_scale(m.embed_q)

        # Patch embedding -> embed domain; cls/pos land on the same grid.
        self.fuse_unit(m.patch, s_embed, (float(m.embed_q.qlb), float(m.embed_q.qub)))
        m.cls_int.data = np.clip(np.round(m.cls_token.data / s_embed),
                                 m.embed_q.qlb, m.embed_q.qub).astype(np.float32)
        m.pos_int.data = np.clip(np.round(m.pos_embed.data / s_embed),
                                 m.embed_q.qlb, m.embed_q.qub).astype(np.float32)

        s_prev = s_embed
        r = self.res_scale
        for blk in m.blocks:
            # Branches land in pre-add domains res_scale finer than the
            # stream grids (see FuserBase.res_scale).
            s1 = _scalar_scale(blk.rq1) / r
            s2 = _scalar_scale(blk.rq2) / r
            r1 = tuple(v * r for v in self._signed_range(blk.rq1.qub))
            r2 = tuple(v * r for v in self._signed_range(blk.rq2.qub))
            self._fuse_ln(blk.ln1, s_prev, blk.attn.qkv.aq)
            self._fuse_attention(blk.attn, s1, r1)
            blk.mq_id1 = MulQuant(s_prev / s1, fmt=self.fmt, out_lo=r1[0], out_hi=r1[1],
                                  float_scale=self.float_scale)
            self._fuse_ln(blk.ln2, _scalar_scale(blk.rq1), blk.mlp.fc1.aq)
            self._fuse_mlp(blk.mlp, s2, r2)
            blk.mq_id2 = MulQuant(_scalar_scale(blk.rq1) / s2, fmt=self.fmt,
                                  out_lo=r2[0], out_hi=r2[1],
                                  float_scale=self.float_scale)
            blk.res_scale = r
            s_prev = _scalar_scale(blk.rq2)

        self._fuse_ln(m.norm, s_prev, m.head.linear.aq)
        self.fuse_fc_logits(m.head)
        return m
