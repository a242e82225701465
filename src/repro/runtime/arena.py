"""Activation arena for the compiled runtime.

The :class:`Arena` owns the per-batch-shape register buffers.  Registers
are written once per program execution, so a buffer stays valid until the
next batch overwrites it; ops that need skip connections simply read a
register that was produced earlier in the program.

Two layouts exist:

* ``batch`` — registers are plain ``(N, C, H, W)`` arrays assigned by the
  ops; this is the interpreted-replication layout, valid everywhere.
* ``channel`` — the native kernel's layout, bound only when the kernel
  loaded: feature-map registers are preallocated channel-major
  ``(C, N, Hp, Wp)`` buffers with the consumer convs' zero padding baked
  into the border.  Per channel, the sample planes are contiguous, which is
  what lets the native conv kernel accumulate whole sample blocks in single
  long passes.  The border is zeroed once at allocation and never written
  again — padding is free after the first batch.

Pad planning (:func:`plan_pads`) gives every feature-map register the
maximum padding any consuming conv needs; a conv with smaller padding
simply starts its tap window ``register_pad - conv_pad`` positions in from
the buffer edge.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

Shape = Tuple[int, ...]


def plan_pads(ops: List, shapes: Dict[int, Shape]) -> Dict[int, int]:
    """Per-register border padding: max over consuming convs' padding."""
    pads: Dict[int, int] = {}
    for reg, shape in shapes.items():
        if len(shape) == 3:
            pads[reg] = 0
    for op in ops:
        if op.kind in ("conv_mq", "conv_mq_res"):
            src = op.src[0]
            if src in pads:
                pads[src] = max(pads[src], op.padding)
    return pads


class Arena:
    """Preallocated register file for one (batch size, input shape) binding."""

    def __init__(self, n: int, num_regs: int, layout: str = "batch",
                 ck=None, threads: int = 1):
        if layout == "channel" and ck is None:
            raise RuntimeError("a channel-layout plan needs the native "
                               "kernel, which is not loaded")
        self.n = n
        self.layout = layout
        self.ck = ck            # the loaded native kernel (channel layout)
        self.threads = threads  # native-kernel workers per conv
        self.regs = [None] * num_regs
        # per-sample shapes, filled during shape inference at bind time
        self.shapes: Dict[int, Shape] = {}
        # channel layout state: register pad widths and padded buffers
        self.pads: Dict[int, int] = {}
        self._cm_bufs: Dict[int, np.ndarray] = {}
        self._cm_centers: Dict[int, np.ndarray] = {}
        self._bytes = 0

    def alloc(self, shape: Shape, dtype=np.float32,
              zero: bool = False) -> np.ndarray:
        """Allocate a batch buffer ``(n, *shape)`` owned by this arena."""
        buf = (np.zeros if zero else np.empty)((self.n,) + tuple(shape), dtype=dtype)
        self._bytes += buf.nbytes
        return buf

    # ---------------------------------------------------- channel layout
    def cm_buffer(self, reg: int) -> np.ndarray:
        """The padded ``(C, N, Hp, Wp)`` buffer of a channel-major register."""
        buf = self._cm_bufs.get(reg)
        if buf is None:
            c, h, w = self.shapes[reg]
            p = self.pads.get(reg, 0)
            buf = np.zeros((c, self.n, h + 2 * p, w + 2 * p), dtype=np.float32)
            self._bytes += buf.nbytes
            self._cm_bufs[reg] = buf
            self._cm_centers[reg] = buf[:, :, p:p + h, p:p + w]
        return buf

    def cm_center(self, reg: int) -> np.ndarray:
        """The valid ``(C, N, H, W)`` view inside the padded buffer."""
        self.cm_buffer(reg)
        return self._cm_centers[reg]

    @property
    def nbytes(self) -> int:
        return self._bytes
