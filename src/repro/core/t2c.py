"""T2C: the top-level Torch2Chip converter (paper §3.4).

The five-line workflow::

    model   = ...                                  # vanilla float model
    trainer = TRAINER[user_select](args)           # QAT / PTQ / SSL / sparse
    trainer.fit()
    nn2c = T2C(qmodel, spec=DeploySpec(export_dir="out/"))  # fuse + convert
    qnn  = nn2c.nn2chip()                          # vanilla re-pack + export

``T2C.fuse()`` wires MulQuant modules behind every unit (architecture-aware
fuser) and flips the whole model into the integer-only deploy path;
``T2C.nn2chip()`` re-packs into vanilla integer layers and optionally exports
every tensor in the requested data formats (dec/hex/bin/qint).
"""
from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.deploy import Deployed, DeploySpec, deploy
from repro.core.fusion import FuserBase, build_fuser
from repro.core.qbase import _QBase
from repro.core.vanilla import repack
from repro.nn.module import Module
from repro.telemetry import emit as _emit
from repro.telemetry import trace as _trace
from repro.telemetry.hooks import attach_names
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor


def calibrate_model(qmodel: Module, batches: Iterable[np.ndarray]) -> Module:
    """PTQ range calibration: observe activation statistics, then fix scales.

    Runs the *training path* (fake quantization) so downstream observers see
    the distributions they will face at inference.
    """
    qmodel.eval()
    quantizers = [m for m in qmodel.modules() if isinstance(m, _QBase)]
    with _trace("calibrate_model", quantizers=len(quantizers)) as span:
        for q in quantizers:
            q.observe = True
        n_batches = 0
        with no_grad():
            for x in batches:
                with _trace("calibration_batch", index=n_batches):
                    qmodel(Tensor(np.asarray(x, dtype=np.float32)))
                n_batches += 1
        names = {id(m): n for n, m in qmodel.named_modules()}
        stale = []
        for q in quantizers:
            q.observe = False
            if hasattr(q, "finalize_calibration") and getattr(q, "observer", None) is not None:
                if q.observer.initialized:
                    q.finalize_calibration()
                else:
                    # the observer never saw a batch: the scale silently stays
                    # at its initialization value, which poisons every
                    # consumer downstream — surface it loudly
                    stale.append(names.get(id(q), type(q).__name__))
        if stale:
            _emit("calibration_stale", severity="WARNING",
                  quantizers=stale, count=len(stale))
            span.annotate(stale=len(stale))
        qmodel._stale_calibration = stale
        span.annotate(batches=n_batches)
        _emit("calibrate", quantizers=len(quantizers), batches=n_batches)
    return qmodel


class T2C:
    """Fuse a trained/calibrated Q-model and extract the integer-only model.

    Parameters
    ----------
    model:
        A dual-path Q-model (from :func:`repro.core.qmodels.quantize_model`)
        with trained weights and calibrated activation scales.
    fuser:
        Fuser class/factory; defaults to the architecture-matched one.
    spec:
        A :class:`~repro.core.deploy.DeploySpec` carrying the full deploy
        configuration (fusion mode, fixed-point grid, export targets, ...).
    """

    def __init__(self, model: Module, fuser=None,
                 spec: Optional[DeploySpec] = None):
        spec = spec or DeploySpec()
        self.model = model
        self.spec = spec
        self.fmt = spec.fixed_point
        self.mode = spec.fusion
        self.float_scale = spec.float_scale
        self.lint_report = None
        self.last_manifest = None
        if fuser is None:
            self._fuser: FuserBase = build_fuser(
                model, fmt=self.fmt, mode=self.mode, float_scale=self.float_scale)
        elif isinstance(fuser, FuserBase):
            self._fuser = fuser
        else:
            self._fuser = fuser(model, fmt=self.fmt, mode=self.mode,
                                float_scale=self.float_scale)
        self._fused = False

    def fuse(self) -> Module:
        """Wire MulQuants and switch the model to integer-only inference."""
        with _trace("T2C.fuse", fuser=type(self._fuser).__name__, mode=self.mode):
            self._fuser.fuse()
            self.model.set_deploy(True)
            self.model.eval()
            self._fused = True
            # stamp dotted paths so the fused MulQuants report saturation
            # under readable layer names
            attach_names(self.model)
            _emit("fuse", mode=self.mode, float_scale=self.float_scale)
        if self.spec.lint:
            self.lint(accum_bits=self.spec.accum_bits)
        return self.model

    def lint(self, accum_bits: int = 32):
        """Statically verify the fused model (interval engine + contracts).

        Returns the :class:`repro.lint.LintReport`; it is also kept on
        ``self.lint_report`` so callers of the post-fuse hook can inspect it.
        An ERROR-level finding means the integer model is not safe to hand
        to hardware (e.g. a proven accumulator overflow).
        """
        from repro.lint import lint_model  # lazy: lint imports core

        if not self._fused:
            self.fuse()
        self.lint_report = lint_model(self.model, accum_bits=accum_bits)
        s = self.lint_report.to_json()["summary"]
        _emit("lint", errors=s["errors"], warnings=s["warnings"])
        return self.lint_report

    def nn2chip(self) -> Module:
        """Re-pack into vanilla integer layers; optionally export tensors.

        Export destination and formats come from ``self.spec``
        (``export_dir`` / ``formats``).  Returns the deploy-ready model whose
        state dict holds integer-valued tensors only; the export manifest
        (when written) lands on ``self.last_manifest``.
        """
        if not self._fused:
            self.fuse()
        qnn = repack(self.model)
        if self.spec.export_dir is not None:
            from repro.export.writer import export_model

            self.last_manifest = export_model(qnn, self.spec)
        return qnn
