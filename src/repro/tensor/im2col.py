"""im2col / col2im transforms for convolution.

Convolution is implemented as an im2col + matmul, the standard approach for
CPU reference implementations.  Both transforms are fully vectorized using
``numpy.lib.stride_tricks`` windows (:func:`windows`, im2col) and
slice-strided scatter-adds (col2im).
"""
from __future__ import annotations

from typing import Tuple

import numpy as np


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    return (size + 2 * padding - kernel) // stride + 1


def windows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Read-only ``(N, C, kh, kw, OH, OW)`` view of every kernel window of
    ``x``; the only copy is the zero-padded input when ``padding > 0``."""
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if padding > 0:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    s = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s[0], s[1], s[2], s[3], s[2] * stride, s[3] * stride),
        writeable=False,
    )


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Rearrange image patches into columns.

    Parameters
    ----------
    x: ``(N, C, H, W)`` input.
    Returns
    -------
    ``(N, C * kh * kw, OH * OW)`` column matrix.
    """
    win = windows(x, kh, kw, stride, padding)
    n, c, _, _, oh, ow = win.shape
    return np.ascontiguousarray(win).reshape(n, c * kh * kw, oh * ow)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image."""
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    # Scatter each kernel offset's contribution with slice-strided adds,
    # avoiding a python loop over output positions.
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if padding > 0:
        out = out[:, :, padding:hp - padding, padding:wp - padding]
    return out
