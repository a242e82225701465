"""Memory-bank weight unrolling for RTL verification (paper §1, Fig. 5).

Prototype accelerators read weights from on-chip SRAM banks whose word layout
matches the PE array: a conv weight ``(O, C, KH, KW)`` is flattened to the
im2col GEMM matrix ``(O, C*KH*KW)`` and tiled into ``rows x cols`` PE tiles;
each tile is emitted as one bank of fixed-width two's-complement hex words
(one word per line — ``$readmemh`` order: output-stationary row-major).

``unroll_matrix`` is layout-generic (any 2-D matrix), ``unroll_conv_weight``
adds the conv flattening, and ``write_banks`` dumps one ``.hex`` file per
bank plus an index JSON.
"""
from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.export.formats import save_tensor


@dataclass(frozen=True)
class PEArraySpec:
    """Geometry of the target processing-element array."""

    rows: int = 8       # output channels per tile
    cols: int = 16      # flattened input taps per tile
    word_bits: int = 8  # memory word width


def unroll_matrix(w: np.ndarray, spec: PEArraySpec) -> List[Dict]:
    """Tile a 2-D integer matrix into PE-array banks.

    Returns a list of bank dicts: ``{"row", "col", "data"}`` where ``data``
    is the zero-padded ``(rows, cols)`` tile.
    """
    if w.ndim != 2:
        raise ValueError(f"expected 2-D matrix, got shape {w.shape}")
    o, k = w.shape
    banks = []
    for bi, r0 in enumerate(range(0, o, spec.rows)):
        for bj, c0 in enumerate(range(0, k, spec.cols)):
            tile = np.zeros((spec.rows, spec.cols), dtype=np.int64)
            block = w[r0:r0 + spec.rows, c0:c0 + spec.cols]
            tile[:block.shape[0], :block.shape[1]] = block
            banks.append({"row": bi, "col": bj, "data": tile})
    return banks


def unroll_conv_weight(w: np.ndarray, spec: PEArraySpec) -> List[Dict]:
    """Flatten a conv weight to its im2col GEMM matrix and tile it."""
    if w.ndim != 4:
        raise ValueError(f"expected conv weight (O,C,KH,KW), got shape {w.shape}")
    o = w.shape[0]
    return unroll_matrix(np.asarray(np.round(w), dtype=np.int64).reshape(o, -1), spec)


def write_banks(out_dir: str, name: str, banks: List[Dict], spec: PEArraySpec) -> Dict:
    """Write one ``.hex`` file per bank + an index JSON; returns the index."""
    os.makedirs(out_dir, exist_ok=True)
    index = {"name": name, "spec": asdict(spec), "banks": []}
    for bank in banks:
        fname = f"{name}_r{bank['row']}_c{bank['col']}.hex"
        save_tensor(os.path.join(out_dir, fname), bank["data"], "hex",
                    spec.word_bits)
        index["banks"].append({"row": bank["row"], "col": bank["col"], "file": fname})
    with open(os.path.join(out_dir, f"{name}_banks.json"), "w") as f:
        json.dump(index, f, indent=2)
    return index


def reassemble(banks: List[Dict], shape: Tuple[int, int], spec: PEArraySpec) -> np.ndarray:
    """Inverse of :func:`unroll_matrix` (drops the zero padding)."""
    o, k = shape
    out = np.zeros((((o + spec.rows - 1) // spec.rows) * spec.rows,
                    ((k + spec.cols - 1) // spec.cols) * spec.cols), dtype=np.int64)
    for bank in banks:
        r0, c0 = bank["row"] * spec.rows, bank["col"] * spec.cols
        out[r0:r0 + spec.rows, c0:c0 + spec.cols] = bank["data"]
    return out[:o, :k]
