"""Post-training quantization: calibration + reconstruction optimization.

Two stages:

1. **Calibration** — run the calibration set through the fake-quant training
   path with observers armed, then fix activation scales
   (:func:`repro.core.t2c.calibrate_model`).
2. **Reconstruction** (AdaRound / QDrop) — unit-by-unit, optimize the
   learnable rounding gates (and let QDrop stochastically drop activation
   quantization) against the float unit's output, Adam over ``alpha`` with
   the rounding regularizer annealed from soft to hard.
"""
from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.qconfig import QConfig
from repro.core.qlayers import QConv2d, QLinear
from repro.core.qmodels import QBasicBlock, QBottleneck, QConvBNReLU, QLinearUnit, quantize_model
from repro.core.quantizers.adaround import AdaRoundQuantizer
from repro.core.quantizers.qdrop import QDropQuantizer
from repro.core.t2c import calibrate_model
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.optim import Adam
from repro.tensor import functional as F
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


def _unit_float_forward(unit: QConvBNReLU, x: Tensor) -> Tensor:
    """The unit's full-precision reference output (quantizers bypassed)."""
    conv: QConv2d = unit.conv
    y = F.conv2d(x, Tensor(conv.weight.data),
                 Tensor(conv.bias.data) if conv.bias is not None else None,
                 conv.stride, conv.padding, conv.groups)
    if unit.has_bn:
        y = unit.bn(y)
    if unit.relu:
        y = y.relu()
    return y


def _reconstruct(model, wqs, reference, calib_inputs, iters, lr, reg_weight,
                 beta_range, seed) -> float:
    """Optimize the AdaRound gates of ``wqs`` so ``model`` matches
    ``reference`` (its float forward) on ``calib_inputs``; the gates are hard
    from then on.  Returns the final loss."""
    opt = Adam([wq.alpha for wq in wqs], lr=lr)
    rng = np.random.default_rng(seed)
    with no_grad():
        refs = [reference(Tensor(x)).data for x in calib_inputs]
    final = 0.0
    for it in range(iters):
        j = rng.integers(len(calib_inputs))
        y = model(Tensor(calib_inputs[j]))
        beta = beta_range[0] + (beta_range[1] - beta_range[0]) * it / max(iters - 1, 1)
        loss = F.mse_loss(y, Tensor(refs[j]))
        for wq in wqs:
            loss = loss + reg_weight * wq.reg_loss(beta)
        opt.zero_grad()
        loss.backward()
        opt.step()
        final = loss.item()
    for wq in wqs:
        wq.soft = False  # inference uses hard rounding from here on
    return final


def reconstruct_unit(
    unit: QConvBNReLU,
    calib_inputs: Sequence[np.ndarray],
    iters: int = 200,
    lr: float = 1e-2,
    reg_weight: float = 0.01,
    beta_range=(20.0, 2.0),
    seed: int = 0,
) -> float:
    """AdaRound-style reconstruction of one unit.

    ``calib_inputs`` are the unit's inputs captured from the calibrated
    fake-quant model.  Returns the final reconstruction MSE.
    """
    wq = unit.conv.wq
    if not isinstance(wq, AdaRoundQuantizer):
        raise TypeError("reconstruct_unit expects an AdaRound weight quantizer")
    if unit.has_bn:
        unit.bn.eval()
    wq.init_from_weight(unit.conv.weight.data)
    return _reconstruct(unit, [wq], lambda x: _unit_float_forward(unit, x), calib_inputs,
                        iters, lr, reg_weight, beta_range, seed)


def _block_float_forward(blk, x: Tensor) -> Tensor:
    """Full-precision reference output of a residual block."""
    if isinstance(blk, QBasicBlock):
        a = _unit_float_forward(blk.unit2, _unit_float_forward(blk.unit1, x))
    elif isinstance(blk, QBottleneck):
        a = _unit_float_forward(
            blk.unit3, _unit_float_forward(blk.unit2, _unit_float_forward(blk.unit1, x)))
    else:
        raise TypeError(type(blk))
    s = _unit_float_forward(blk.down, x) if blk.down is not None else x
    return (a + s).relu()


def reconstruct_block(
    blk,
    calib_inputs: Sequence[np.ndarray],
    iters: int = 200,
    lr: float = 1e-2,
    reg_weight: float = 0.01,
    beta_range=(20.0, 2.0),
    seed: int = 0,
) -> float:
    """QDrop/BRECQ-style *block-wise* reconstruction.

    All AdaRound gates of the block's units are optimized jointly against the
    float block output, with the block's activation quantizers running their
    training path (QDrop's stochastic dropping included).  Block-level
    granularity is what makes W4A4 PTQ work on deep bottleneck networks —
    unit-wise reconstruction cannot account for cross-layer error
    interactions (Li et al. 2021; Wei et al. 2022).
    """
    units = [u for u in blk.units() if isinstance(u.conv.wq, AdaRoundQuantizer)]
    if not units:
        raise TypeError("reconstruct_block expects AdaRound weight quantizers")
    for u in blk.units():
        if u.has_bn:
            u.bn.eval()
    for u in units:
        u.conv.wq.init_from_weight(u.conv.weight.data)
    return _reconstruct(blk, [u.conv.wq for u in units],
                        lambda x: _block_float_forward(blk, x), calib_inputs,
                        iters, lr, reg_weight, beta_range, seed)


class PTQTrainer:
    """Calibrate (and optionally reconstruct) a Q-model post training.

    Parameters
    ----------
    model:
        Float model (converted via ``qcfg``) or an existing Q-model.
    calib_set:
        Calibration dataset; ``calib_batches`` x ``batch_size`` samples are
        drawn from it.
    reconstruct:
        Run AdaRound reconstruction on every unit whose weight quantizer is
        an :class:`AdaRoundQuantizer`.
    """

    def __init__(
        self,
        model: Module,
        calib_set: ArrayDataset,
        qcfg: Optional[QConfig] = None,
        calib_batches: int = 8,
        batch_size: int = 64,
        reconstruct: bool = False,
        recon_iters: int = 150,
        seed: int = 0,
        **_,
    ):
        if qcfg is not None:
            model = quantize_model(model, qcfg)
        self.qmodel = model
        self.model = model
        self.calib_set = calib_set
        self.batch_size = batch_size
        self.calib_batches = calib_batches
        self.reconstruct = reconstruct
        self.recon_iters = recon_iters
        self.seed = seed

    def _batches(self) -> List[np.ndarray]:
        n = len(self.calib_set)
        rng = np.random.default_rng(self.seed)
        idx = rng.permutation(n)
        out = []
        for b in range(self.calib_batches):
            sel = idx[b * self.batch_size:(b + 1) * self.batch_size]
            if len(sel) == 0:
                break
            out.append(self.calib_set.images[sel])
        return out

    def fit(self) -> Module:
        batches = self._batches()
        calibrate_model(self.qmodel, batches)
        if self.reconstruct:
            self._reconstruct(batches)
        # QDrop's stochastic dropping is a calibration-time trick only.
        for m in self.qmodel.modules():
            if isinstance(m, QDropQuantizer):
                m.drop_enabled = False
        return self.qmodel

    # ------------------------------------------------------------ recon
    def _units(self) -> List[QConvBNReLU]:
        return [m for m in self.qmodel.modules() if isinstance(m, QConvBNReLU)]

    def _capture_all_inputs(self, units: Sequence[QConvBNReLU],
                            batches: Sequence[np.ndarray]) -> dict:
        """One model pass per batch captures every target unit's input.

        Inputs are stored float16 to bound memory.  Capturing before any unit
        is reconstructed (instead of re-tracing after each) is a standard
        approximation: AdaRound perturbs unit outputs by <= 1 rounding step,
        so downstream input drift is negligible.
        """
        captured: dict = {id(u): [] for u in units}
        originals = {}
        for unit in units:
            conv = unit.conv

            def hooked(x, _conv=conv, _store=captured[id(unit)]):
                _store.append(x.data.astype(np.float16))
                return type(_conv).forward(_conv, x)

            object.__setattr__(conv, "forward", hooked)
            originals[id(unit)] = conv
        try:
            with no_grad():
                self.qmodel.eval()
                for x in batches:
                    self.qmodel(Tensor(x))
        finally:
            for conv in originals.values():
                object.__delattr__(conv, "forward")
        return captured

    def _blocks(self):
        return [b for b in self.qmodel.modules() if isinstance(b, (QBasicBlock, QBottleneck))]

    def _capture_block_inputs(self, blocks, batches: Sequence[np.ndarray]) -> dict:
        """One pass capturing every residual block's input (float16)."""
        captured: dict = {id(b): [] for b in blocks}
        hooked = []
        for blk in blocks:
            def hooked_fwd(x, _blk=blk, _store=captured[id(blk)]):
                _store.append(x.data.astype(np.float16))
                return type(_blk).forward(_blk, x)

            object.__setattr__(blk, "forward", hooked_fwd)
            hooked.append(blk)
        try:
            with no_grad():
                self.qmodel.eval()
                for x in batches:
                    self.qmodel(Tensor(x))
        finally:
            for blk in hooked:
                object.__delattr__(blk, "forward")
        return captured

    def _reconstruct(self, batches: Sequence[np.ndarray]) -> None:
        # Residual blocks reconstruct jointly (QDrop/BRECQ granularity);
        # everything outside a block (stem, plain chains, fc) unit-wise.
        blocks = [b for b in self._blocks()
                  if any(isinstance(u.conv.wq, AdaRoundQuantizer) for u in b.units())]
        in_block = {id(u) for b in blocks for u in b.units()}
        units = [u for u in self._units()
                 if isinstance(u.conv.wq, AdaRoundQuantizer) and id(u) not in in_block]

        if blocks:
            captured = self._capture_block_inputs(blocks, batches)
            for blk in blocks:
                inputs = [a.astype(np.float32) for a in captured.pop(id(blk))]
                reconstruct_block(blk, inputs, iters=self.recon_iters, seed=self.seed)
        if units:
            captured = self._capture_all_inputs(units, batches)
            for unit in units:
                inputs = [a.astype(np.float32) for a in captured.pop(id(unit))]
                reconstruct_unit(unit, inputs, iters=self.recon_iters, seed=self.seed)
