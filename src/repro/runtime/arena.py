"""Activation arena for the compiled runtime.

The :class:`Arena` owns the per-batch-shape register buffers.  Registers
are written once per program execution, so a buffer stays valid until the
next batch overwrites it; ops that need skip connections simply read a
register that was produced earlier in the program.

Feature-map registers are preallocated channel-major ``(C, N, Hp, Wp)``
buffers with the convs' zero padding baked into the border, each of the
narrowest integer type that holds the register's proven code range
(``uint8`` conv inputs, an ``int8`` model input, ``int16`` pre-add
shortcuts; see :func:`kernels.register_dtype`).  Per channel, the sample
planes are contiguous, which is what lets the native conv kernel
accumulate whole sample blocks in single long passes.  The border is
zeroed once at allocation and only ever rewritten with zeros — padding is
free after the first batch.  Token, vector and logit registers are plain
``(N, ...)`` arrays the ops assign.

Pad planning (:func:`plan_pads`) gives every feature-map register the
same border, the widest padding any conv of the plan needs: registers of
one spatial size then share one plane geometry, so a stride-1 conv's
accumulator grid lines up with its destination and shortcut registers and
its epilogue runs over whole sample blocks.  A conv with smaller padding
simply starts its tap window ``register_pad - conv_pad`` positions in from
the buffer edge.
"""
from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

Shape = Tuple[int, ...]


def plan_pads(ops: List, shapes: Dict[int, Shape]) -> Dict[int, int]:
    """Per-register border padding: the widest conv padding in the plan."""
    pad = max((op.padding for op in ops
               if op.kind in ("conv_mq", "conv_mq_res")), default=0)
    return {reg: pad for reg, shape in shapes.items() if len(shape) == 3}


class Arena:
    """Preallocated register file for one (batch size, input shape) binding."""

    def __init__(self, n: int, num_regs: int, ck=None, threads: int = 1):
        self.n = n
        self.ck = ck            # the loaded native kernel; None: numpy bodies
        self.threads = threads  # native-kernel workers per conv
        self.regs = [None] * num_regs
        # per-sample shapes, filled during shape inference at bind time
        self.shapes: Dict[int, Shape] = {}
        # feature-map registers: pad widths, padded buffers, element types
        self.pads: Dict[int, int] = {}
        self._cm_bufs: Dict[int, np.ndarray] = {}
        self._cm_centers: Dict[int, np.ndarray] = {}
        self.dtypes: Dict[int, np.dtype] = {}
        # int32 kernel scratch shared by every conv of the binding (ops run
        # one at a time): words reserved at bind, allocated on first use
        self._scratch_words = [0, 0]
        self._scratch = None
        self._bytes = 0

    def cm_buffer(self, reg: int) -> np.ndarray:
        """The padded ``(C, N, Hp, Wp)`` buffer of a channel-major register."""
        buf = self._cm_bufs.get(reg)
        if buf is None:
            c, h, w = self.shapes[reg]
            p = self.pads.get(reg, 0)
            buf = np.zeros((c, self.n, h + 2 * p, w + 2 * p),
                           dtype=self.dtypes.get(reg, np.float32))
            self._bytes += buf.nbytes
            self._cm_bufs[reg] = buf
            self._cm_centers[reg] = buf[:, :, p:p + h, p:p + w]
        return buf

    def cm_center(self, reg: int) -> np.ndarray:
        """The valid ``(C, N, H, W)`` view inside the padded buffer."""
        self.cm_buffer(reg)
        return self._cm_centers[reg]

    def reserve_scratch(self, acc_words: int, sc_words: int) -> None:
        """Grow the shared kernel scratch to seat one conv's accumulator
        and interleave words (call at bind, before the first execution)."""
        need = self._scratch_words
        need[0] = max(need[0], int(acc_words))
        need[1] = max(need[1], int(sc_words))

    def scratch(self):
        """``(acc, sc)`` int32 scratch sized to every reservation."""
        if self._scratch is None:
            self._scratch = tuple(np.empty(max(1, w), dtype=np.int32)
                                  for w in self._scratch_words)
            self._bytes += sum(a.nbytes for a in self._scratch)
        return self._scratch

    @property
    def nbytes(self) -> int:
        return self._bytes
