"""Vanilla re-pack: the final "custom -> vanilla" conversion (paper §3.4).

After fusion, the model still contains user-customized quantizer modules.
:func:`repack` strips them and swaps every :class:`QConv2d` / :class:`QLinear`
for a *vanilla* conv/linear whose weight tensor holds the raw low-precision
integers, with all scaling folded into the surviving
:class:`~repro.core.mulquant.MulQuant` modules.  The result:

* the state dict stores integer-valued tensors only ("real compression");
* the module tree has the same architecture as the original model (plus
  MulQuant), and contains no custom quantization logic beyond the single
  :class:`InputQuant` at the model input (the ADC boundary).
"""
from __future__ import annotations

import copy

import numpy as np

from repro import nn
from repro.core.qbase import _QBase
from repro.core.qlayers import QConv2d, QLinear
from repro.nn.module import Module
from repro.telemetry import state as _telemetry_state
from repro.telemetry import trace as _trace
from repro.telemetry.hooks import attach_names
from repro.telemetry.saturation import record as _record_saturation
from repro.tensor.tensor import Tensor


class GridRange(Module):
    """Parameter-free stand-in for a train-path quantizer.

    After re-pack, deploy forwards still consult the integer grid bounds of
    former quantizers (residual clamps in ViT blocks); this module keeps
    ``qlb``/``qub`` (plain ints) and nothing else.
    """

    def __init__(self, qlb: int, qub: int):
        super().__init__()
        self.qlb = qlb
        self.qub = qub

    def forward(self, x: Tensor) -> Tensor:
        raise RuntimeError("GridRange is metadata-only; the deploy path never calls it")

    def extra_repr(self) -> str:
        return f"[{self.qlb}, {self.qub}]"


class InputQuant(Module):
    """Model-input quantizer of the deployed network: round + clamp."""

    def __init__(self, scale: float, qlb: int, qub: int):
        super().__init__()
        self.register_buffer("scale", np.float32(scale))
        self.qlb = qlb
        self.qub = qub

    def forward(self, x: Tensor) -> Tensor:
        r = np.round(x.data / float(self.scale.data))  # lint: allow-float (ADC boundary)
        y = np.clip(r, self.qlb, self.qub)
        if _telemetry_state.enabled():
            clipped = int(np.count_nonzero((r < self.qlb) | (r > self.qub)))
            _record_saturation(self, "input", clipped, int(r.size))
        return Tensor(y.astype(np.float32))

    def extra_repr(self) -> str:
        return f"scale={float(self.scale.data):.6g}, range=[{self.qlb}, {self.qub}]"


def _check_symmetric(q) -> None:
    zp = float(np.asarray(q.aq.zero_point.data).reshape(-1)[0])
    if zp != 0.0:
        raise NotImplementedError(
            "vanilla re-pack supports symmetric activation grids; asymmetric "
            "(zero-point) models deploy through the fused Q-model, whose "
            "layers carry the integer offset-subtract stage (lint rule "
            "deploy.asymmetric-grid flags this before re-pack)")


def _vanilla_conv(q: QConv2d) -> nn.Conv2d:
    _check_symmetric(q)
    conv = nn.Conv2d(q.in_channels, q.out_channels, q.kernel_size,
                     q.stride, q.padding, q.groups, bias=False)
    # float64 integers: the conv sums its codes in an exact float64 GEMM
    conv.weight.data = q.wint.data.astype(np.float64)
    conv.weight.requires_grad = False
    return conv


def _vanilla_linear(q: QLinear) -> nn.Linear:
    _check_symmetric(q)
    lin = nn.Linear(q.in_features, q.out_features, bias=False)
    lin.weight.data = q.wint.data.copy()
    lin.weight.requires_grad = False
    return lin


def repack(qmodel: Module) -> Module:
    """Return an inference-only copy with vanilla integer layers.

    The input model must already be fused and in deploy mode.  The original
    model is left untouched.
    """
    with _trace("repack", model=type(qmodel).__name__):
        return _repack(qmodel)


def _repack(qmodel: Module) -> Module:
    model = copy.deepcopy(qmodel)

    # Swap the model-level input quantizer for the minimal vanilla version.
    if hasattr(model, "input_q") and isinstance(model.input_q, _QBase):
        iq = model.input_q
        scale = float(np.asarray(iq.scale.data).reshape(-1)[0])
        model.input_q = InputQuant(scale, iq.qlb, iq.qub)

    # ViT: the float cls/pos parameters are train-path-only (deploy uses the
    # cls_int / pos_int integer buffers).
    for pname in ("cls_token", "pos_embed"):
        if pname in getattr(model, "_parameters", {}):
            model.register_parameter(pname, None)

    from repro.core.qvit import QLNUnit

    for mod in list(model.modules()):
        for name, child in list(mod.named_children()):
            if isinstance(child, QConv2d):
                setattr(mod, name, _vanilla_conv(child))
            elif isinstance(child, QLinear):
                setattr(mod, name, _vanilla_linear(child))
            elif isinstance(child, nn.BatchNorm2d):
                setattr(mod, name, nn.Identity())  # fused away
            elif isinstance(child, QLNUnit) and child.mq is not None:
                # running-stats LayerNorm fused into its MulQuant
                child.ln = nn.Identity()
            elif isinstance(child, _QBase) and name != "input_q":
                # train-path quantizer: keep only the grid bounds the deploy
                # forward consults for residual clamping
                setattr(mod, name, GridRange(child.qlb, child.qub))
    # re-stamp dotted paths so deploy-path saturation counters stay readable
    attach_names(model)
    return model


def integer_state_report(model: Module, accum_bits: int = 32) -> dict:
    """Sanity report over a repacked model: every parameter must be integral.

    On repacked models (those carrying an :class:`InputQuant`), the report
    also includes the interval engine's proven per-layer accumulator widths
    under ``"accum"``: ``min_accum_bits`` maps each MAC site to the smallest
    safe register width, and ``over_limit`` lists layers whose proven bound
    exceeds ``accum_bits``.
    """
    report = {"num_tensors": 0, "num_non_integer": 0, "names_non_integer": []}
    for name, p in list(model.named_parameters()) + list(model.named_buffers()):
        report["num_tensors"] += 1
        if not np.allclose(p.data, np.round(p.data)):
            report["num_non_integer"] += 1
            report["names_non_integer"].append(name)

    if any(isinstance(m, InputQuant) for m in model.modules()):
        from repro.lint.engine import lint_intervals  # lazy: lint imports core

        ir = lint_intervals(model, accum_bits=accum_bits)
        report["accum"] = {
            "accum_bits": accum_bits,
            "min_accum_bits": ir.min_accum_bits(),
            "over_limit": ir.overflows(accum_bits),
        }
    return report
