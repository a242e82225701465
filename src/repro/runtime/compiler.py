"""Plan compiler: flatten a re-packed deploy model into a linear op program.

The compiler walks the four supported deploy architectures (``QResNet``,
``QMobileNetV1``, ``QVGG``, ``QVisionTransformer``) **structurally** — it
mirrors exactly what each deploy ``forward`` executes, op for op, so the
compiled program is bit-exact against the interpreted tree by construction.

While walking, it tracks the proven integer code range of every register
(input grid, MulQuant clamp ranges, residual clamps); each convolution's
input range and weights decide whether it may run on the native integer
kernel (see :mod:`repro.runtime.kernels`), and its worst-case accumulator
bound over that range is recorded for the verifier.  Every model, the ViT
included, compiles onto the one register model of
:mod:`repro.runtime.arena`; each op picks the kernel or its numpy reference
at bind, by whether the kernel is loaded there.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

from repro.runtime import kernels
from repro.runtime.program import (AttentionOp, CallModuleOp, ConvMQOp,
                                   GapMQOp, HeadOp, InputQuantOp, LinearMQOp,
                                   MaxPoolOp, MLPOp, MulQuantOp, ResidualOp,
                                   TokensOp)
from repro.runtime.spec import CompileSpec


class CompileError(RuntimeError):
    """The model cannot be compiled into a runtime plan."""


def native_ok(ck, weight, in_range) -> bool:
    """May a conv run on the integer kernel ``ck``: 8-bit input codes and
    taps within the kernel's tables?  (The op itself checks that its
    weights pack as int8; int8 weights over at most ``taps_cap`` taps keep
    the int32 sum exact, which ``plan.kernel-operand`` proves.)"""
    if ck is None:
        return False
    o, cg, kh, kw = weight.shape
    return (kernels.register_dtype(*in_range).itemsize == 1
            and cg * kh * kw <= ck.taps_cap and o <= ck.taps_cap)


class _Builder:
    """Accumulates ops, register ids and proven integer ranges."""

    def __init__(self, qnn, ck=None):
        self.qnn = qnn
        self.ck = ck  # the native kernel, or None: no conv is native
        self.names: Dict[int, str] = {id(m): n for n, m in qnn.named_modules()}
        self.ops = []
        self.num_regs = 1  # register 0 is the model input
        self.ranges: Dict[int, Tuple[float, float]] = {}

    def name_of(self, module) -> str:
        return self.names.get(id(module), type(module).__name__)

    def new_reg(self) -> int:
        r = self.num_regs
        self.num_regs += 1
        return r

    def emit(self, op, out_range=None) -> int:
        self.ops.append(op)
        if out_range is not None:
            self.ranges[op.dst] = (float(out_range[0]), float(out_range[1]))
        return op.dst

    # ---------------------------------------------------------- shared ops
    def input_quant(self, iq, src: int) -> int:
        dst = self.new_reg()
        return self.emit(
            InputQuantOp(self.name_of(iq), (src,), dst,
                         float(iq.scale.data), iq.qlb, iq.qub),
            out_range=(iq.qlb, iq.qub))

    def conv_unit(self, unit, src: int) -> int:
        """A re-packed QConvBNReLU: vanilla integer conv + its MulQuant."""
        conv, mq = unit.conv, unit.mq
        if mq is None:
            raise CompileError(
                f"{self.name_of(unit)}: no MulQuant wired — run T2C.fuse() "
                "before nn2chip()")
        in_range = self.ranges.get(src)
        if in_range is None:
            raise CompileError(
                f"{self.name_of(unit)}: input register has no proven integer "
                "range; cannot bound the fused conv kernel")
        weight = conv.weight.data
        dst = self.new_reg()
        return self.emit(
            ConvMQOp(self.name_of(unit), (src,), dst, weight, conv.stride,
                     conv.padding, conv.groups, kernels.MQParams.of(mq),
                     bound=kernels.conv_accum_bound(weight, in_range),
                     native=native_ok(self.ck, weight, in_range)),
            out_range=(mq.out_lo, mq.out_hi))

    def mulquant(self, mq, src: int) -> int:
        dst = self.new_reg()
        return self.emit(MulQuantOp(self.name_of(mq), (src,), dst,
                                    kernels.MQParams.of(mq)),
                         out_range=(mq.out_lo, mq.out_hi))

    def residual(self, owner, a: int, s: int, res_scale, clamp) -> int:
        dst = self.new_reg()
        return self.emit(
            ResidualOp(self.name_of(owner), (a, s), dst, res_scale,
                       clamp[0], clamp[1]),
            out_range=clamp)

    def gap_fc(self, model, src: int) -> int:
        """Shared CNN tail: global-average-pool + mq_pool + fc logits."""
        if model.mq_pool is None:
            raise CompileError("mq_pool missing — model is not fully fused")
        dst = self.new_reg()
        pooled = self.emit(GapMQOp(self.name_of(model.mq_pool), (src,), dst,
                                   kernels.MQParams.of(model.mq_pool)))
        fc = model.fc
        out = self.new_reg()
        return self.emit(LinearMQOp(self.name_of(fc), (pooled,), out,
                                    fc.linear.weight.data,
                                    kernels.MQParams.of(fc.mq)))


# ------------------------------------------------------------ architectures
def _compile_resnet(b: _Builder) -> int:
    from repro.core.qmodels import QBasicBlock, QBottleneck

    m = b.qnn
    r = b.input_quant(m.input_q, 0)
    r = b.conv_unit(m.stem, r)
    for blk in m.blocks:
        if isinstance(blk, QBasicBlock):
            a = b.conv_unit(blk.unit2, b.conv_unit(blk.unit1, r))
        elif isinstance(blk, QBottleneck):
            a = b.conv_unit(blk.unit3, b.conv_unit(blk.unit2, b.conv_unit(blk.unit1, r)))
        else:
            raise CompileError(f"unknown residual block {type(blk).__name__}")
        if blk.down is not None:
            s = b.conv_unit(blk.down, r)
        else:
            s = b.mulquant(blk.mq_id, r)
        r = b.residual(blk, a, s, blk.res_scale, blk.out_clamp)
    return b.gap_fc(m, r)


def _compile_mobilenet(b: _Builder) -> int:
    m = b.qnn
    r = b.input_quant(m.input_q, 0)
    for unit in m.units:
        r = b.conv_unit(unit, r)
    return b.gap_fc(m, r)


def _compile_vgg(b: _Builder) -> int:
    from repro import nn
    from repro.core.qmodels import QConvBNReLU

    m = b.qnn
    r = b.input_quant(m.input_q, 0)
    for step in m.chain:
        if isinstance(step, QConvBNReLU):
            r = b.conv_unit(step, r)
        elif isinstance(step, nn.MaxPool2d):
            dst = b.new_reg()
            r = b.emit(MaxPoolOp(b.name_of(step), (r,), dst,
                                 step.kernel_size, step.stride),
                       out_range=b.ranges[r])
        else:
            raise CompileError(f"unexpected chain step {type(step).__name__}")
    return b.gap_fc(m, r)


def _ln(b: _Builder, unit, src: int) -> int:
    """QLNUnit: fused running-stats table, or the interpreted instant path."""
    if unit.running_stats:
        if unit.mq is None:
            raise CompileError(f"{b.name_of(unit)}: running-stats LayerNorm "
                               "without a fused MulQuant")
        return b.mulquant(unit.mq, src)
    dst = b.new_reg()
    return b.emit(CallModuleOp(b.name_of(unit), (src,), dst, unit))


def _compile_vit(b: _Builder) -> int:
    m = b.qnn
    r = b.input_quant(m.input_q, 0)
    r = b.conv_unit(m.patch, r)
    dst = b.new_reg()
    r = b.emit(TokensOp(b.name_of(m), (r,), dst, m.cls_int.data, m.pos_int.data,
                        m.embed_q.qlb, m.embed_q.qub),
               out_range=(m.embed_q.qlb, m.embed_q.qub))
    for blk in m.blocks:
        attn = blk.attn
        a_in = _ln(b, blk.ln1, r)
        a_dst = b.new_reg()
        a = b.emit(AttentionOp(
            b.name_of(attn), (a_in,), a_dst,
            attn.qkv.weight.data, attn.proj.weight.data,
            kernels.MQParams.of(attn.mq_qkv), kernels.MQParams.of(attn.mq_score),
            kernels.MQParams.of(attn.mq_ctx), kernels.MQParams.of(attn.mq_proj),
            attn.lut_softmax.table.data, attn.lut_softmax.prob_bits,
            attn.num_heads, attn.head_dim))
        s = b.mulquant(blk.mq_id1, r)
        r = b.residual(blk, a, s, blk.res_scale, (blk.rq1.qlb, blk.rq1.qub))
        mlp = blk.mlp
        m_in = _ln(b, blk.ln2, r)
        m_dst = b.new_reg()
        mo = b.emit(MLPOp(
            b.name_of(mlp), (m_in,), m_dst,
            mlp.fc1.weight.data, mlp.fc2.weight.data,
            kernels.MQParams.of(mlp.mq_fc1), kernels.MQParams.of(mlp.mq_fc2),
            mlp.lut_gelu.table.data, mlp.lut_gelu.in_qlb, mlp.lut_gelu.in_qub))
        s2 = b.mulquant(blk.mq_id2, r)
        r = b.residual(blk, mo, s2, blk.res_scale, (blk.rq2.qlb, blk.rq2.qub))
    r = _ln(b, m.norm, r)
    head = m.head
    out = b.new_reg()
    return b.emit(HeadOp(b.name_of(head), (r,), out, head.linear.weight.data,
                         kernels.MQParams.of(head.mq)))


def lower(qnn) -> Tuple[List, int, int]:
    """The lowering step: walk a re-packed deploy model into its op list.

    Returns ``(ops, num_regs, output_reg)`` *before* the plan-level fusion
    pass — every conv already carries its requant (``conv_mq``), residual
    chains are still three ops.  :func:`compile_program` fuses this list.
    """
    from repro.core.qmodels import QMobileNetV1, QResNet
    from repro.core.qvgg import QVGG
    from repro.core.qvit import QVisionTransformer
    from repro.core.vanilla import InputQuant
    from repro.runtime import ckernel

    if not isinstance(getattr(qnn, "input_q", None), InputQuant):
        raise CompileError(
            "Plan.compile expects the re-packed deploy model returned by "
            "T2C.nn2chip() (its input_q must be the vanilla InputQuant); got "
            f"{type(qnn).__name__}")
    b = _Builder(qnn, ckernel.load())
    if isinstance(qnn, QResNet):
        out_reg = _compile_resnet(b)
    elif isinstance(qnn, QMobileNetV1):
        out_reg = _compile_mobilenet(b)
    elif isinstance(qnn, QVGG):
        out_reg = _compile_vgg(b)
    elif isinstance(qnn, QVisionTransformer):
        out_reg = _compile_vit(b)
    else:
        raise CompileError(
            f"no compiler for architecture {type(qnn).__name__}; supported: "
            "QResNet, QMobileNetV1, QVGG, QVisionTransformer")
    return b.ops, b.num_regs, out_reg


def compile_program(qnn, spec: CompileSpec = None):
    """Compile a re-packed deploy model into an executable :class:`Plan`.

    The compiler decides everything it can observe: it lowers the model
    (:func:`lower`), marking each conv the native kernel may run, and
    always runs the fusion pass.  ``spec`` (a
    :class:`repro.runtime.CompileSpec`, default ``CompileSpec()``) carries
    the one thing it cannot observe, the kernel's thread count.
    """
    from repro.core.qvit import QVisionTransformer
    from repro.runtime.executor import Plan
    from repro.runtime.fusion import fuse_plan

    if spec is None:
        spec = CompileSpec()
    ops, num_regs, out_reg = lower(qnn)
    ops, fusion_stats = fuse_plan(ops, out_reg)

    vit = isinstance(qnn, QVisionTransformer)
    fc_weight = qnn.head.linear.weight if vit else qnn.fc.linear.weight
    plan = Plan(ops, num_regs=num_regs, output_reg=out_reg,
                model_name=type(qnn).__name__,
                out_features=fc_weight.data.shape[0], spec=spec)
    plan.fusion_stats = fusion_stats
    return plan
