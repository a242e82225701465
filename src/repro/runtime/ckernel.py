"""Build-on-first-use native conv kernel for the compiled runtime.

The integer conv+requant kernel lives in three C translation units under
``_ck/``: the int8 x int8 -> int32 accumulation bodies (``conv_acc.c``),
the requant/residual epilogues of channel registers and the token
epilogues of plain ``(N, ...)`` registers (requant, LUT softmax, LUT GELU,
residual; ``requant.c``) and the conv job driver with its thread pool
(``driver.c``), with their shared declarations in ``ck.h``.  All three
share one flag set — the epilogues' float64/float32 arithmetic must round
each multiply and add separately (``-ffp-contract=off``), and the integer
accumulation has no float operation the flag could touch.  ``conv_acc.c``
carries two bodies of one contract, chosen by the compiler at build time:
an AVX-512 VNNI (``vpdpbusd``) body when the target supports it, else a
portable plain-C int32 body (:attr:`CKernel.isa` says which one was
built).

The first call to :func:`load` compiles them into a shared library cached
under ``~/.cache/repro/ckernel`` (override with ``REPRO_CKERNEL_CACHE``),
keyed by a digest of the sources, flags, compiler, machine and the host's
ISA flags (a library built with ``-march=native`` on one CPU must not be
loaded on another); later processes reuse the cached binary.

Everything degrades gracefully: no C compiler, a failed build, or the
``REPRO_NO_CKERNEL=1`` kill switch all leave :func:`load` returning ``None``
and every op binds its numpy reference body over the same registers
(bit-exact, just slower).  A telemetry event records which way it went.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import subprocess
import tempfile
import threading
from typing import Callable, List, Optional

import numpy as np

from repro import telemetry

_SRC_DIR = os.path.join(os.path.dirname(__file__), "_ck")
_SOURCES = ("conv_acc.c", "requant.c", "driver.c")
_HEADERS = ("ck.h",)
_BASE_FLAGS = ("-O3", "-fno-math-errno", "-fPIC", "-pthread",
               "-ffp-contract=off")

#: register element types the kernels read and write, by C type code
REG_TYPES = (np.uint8, np.int8, np.int16, np.int32, np.float32)
_TYPE_CODE = {np.dtype(t).char: i for i, t in enumerate(REG_TYPES)}

_loaded = False
_kernel: Optional["CKernel"] = None
_load_lock = threading.Lock()

_P, _I = ctypes.c_void_p, ctypes.c_int64
_D, _F = ctypes.c_double, ctypes.c_float


def _call(fn, arrays, *args) -> Callable[[], None]:
    """``fn(*args)`` as a zero-argument call that holds ``arrays``, the
    buffers whose raw pointers ``args`` carries."""
    call = functools.partial(fn, *args)
    call.arrays = arrays
    return call


def _f32(x: np.ndarray, size: int) -> np.ndarray:
    """A token epilogue's source as the C-contiguous float32 array of
    ``size`` elements the C pass reads (every plain register and GEMM
    result is float32; anything else would change values, so it raises)."""
    if x.dtype != np.float32 or x.size != size:
        raise TypeError(f"token epilogue over a {x.dtype} array of "
                        f"{x.size} elements; expected float32 x {size}")
    return np.ascontiguousarray(x)


def type_code(a: np.ndarray) -> int:
    """The C element-type code of a register or accumulator array."""
    return _TYPE_CODE[a.dtype.char]


class CKernel:
    """ctypes facade over the compiled conv library."""

    def __init__(self, lib: ctypes.CDLL, path: str):
        self._lib = lib
        self.path = path
        lib.conv_mq_taps_cap.restype = _I
        lib.conv_mq_taps_cap.argtypes = []
        lib.conv_isa.restype = _I
        lib.conv_isa.argtypes = []
        lib.conv_mq_cm.restype = None
        lib.conv_mq_cm.argtypes = (
            [_P, _I, _I, _P,                        # P, sgn, planar, w
             _P, _I, _P, _I, _D, _D,                # m, mlen, b, blen, lo, hi
             _P, _I, _P, _I, _P, _I]                # Q, qty, acc, sc
            + [_I] * 17)
        lib.conv_mq_res_cm.restype = None
        lib.conv_mq_res_cm.argtypes = (
            [_P, _I, _I, _P,                        # P, sgn, planar, w
             _P, _I, _P, _I, _D, _D,                # m, mlen, b, blen, lo, hi
             _P, _I,                                # S, sty
             _P, _I, _P, _I, _D, _D,                # sm, sb, slo, shi
             _I, _D, _D, _D,                        # has_smq, rs, rlo, rhi
             _P, _I, _P, _I, _P, _I]                # Q, qty, acc, sc
            + [_I] * 20)
        lib.mulquant_cm.restype = None
        lib.mulquant_cm.argtypes = (
            [_P, _I, _I, _P, _I, _P, _I, _D, _D, _P, _I] + [_I] * 9)
        lib.residual_cm.restype = None
        lib.residual_cm.argtypes = (
            [_P, _I, _I, _P, _I, _I, _P, _I, _I, _F, _F, _F] + [_I] * 4)
        lib.requant_tok.restype = None
        lib.requant_tok.argtypes = [_P, _I, _I, _P, _P, _D, _D, _P]
        lib.lut_softmax_tok.restype = None
        lib.lut_softmax_tok.argtypes = [_P, _I, _I, _P, _I, _I, _P]
        lib.lut_gelu_tok.restype = None
        lib.lut_gelu_tok.argtypes = [_P, _I, _P, _I, _I, _P]
        lib.residual_tok.restype = None
        lib.residual_tok.argtypes = [_P, _P, _I, _F, _F, _F, _P]
        self.taps_cap = int(lib.conv_mq_taps_cap())
        self._isa = "vnni" if lib.conv_isa() else "portable"

    @property
    def isa(self) -> str:
        """Which accumulation body was built: ``"vnni"`` or ``"portable"``."""
        return self._isa

    # Each entry below resolves its arrays' raw pointers once and returns
    # the zero-argument call, which holds those arrays (a `.ctypes.data`
    # lookup costs microseconds, which small batches would pay per op).

    def conv_mq_cm(self, P, w, m, b, lo, hi, Q, acc, sc, *,
                   C, N, Hp, Wp, O, kh, kw, stride, in_off,
                   Hq, Wq, out_off, OH, OW, groups, planar,
                   nb=0, threads=1) -> Callable[[], None]:
        """The fused integer conv+MulQuant on channel-major registers.

        ``P`` is the uint8 (or int8) padded input register, ``w`` the packed
        int32 weight words, ``Q`` the destination register of any kernel
        element type; ``acc``/``sc`` are int32 per-thread scratch.  ``nb``
        is the sample-block size and ``threads`` the worker count; any
        combination is bit-exact — the int32 accumulation is exact and
        output writes are disjoint.
        """
        return _call(
            self._lib.conv_mq_cm, (P, w, m, b, Q, acc, sc),
            P.ctypes.data, int(P.dtype == np.int8), planar, w.ctypes.data,
            m.ctypes.data, m.size, b.ctypes.data, b.size, lo, hi,
            Q.ctypes.data, type_code(Q), acc.ctypes.data, acc.size,
            sc.ctypes.data, sc.size, C, N, Hp, Wp, O, kh, kw, stride,
            in_off, Hq, Wq, out_off, OH, OW, groups, nb, threads)

    def conv_mq_res_cm(self, P, w, m, b, lo, hi, S, sm, sb, slo, shi,
                       has_smq, rs, rlo, rhi, Q, acc, sc, *,
                       C, N, Hp, Wp, O, kh, kw, stride, in_off,
                       Hq, Wq, out_off, OH, OW, groups, planar,
                       nb=0, threads=1, Hs, Ws, s_off) -> Callable[[], None]:
        """Fused conv+MulQuant+residual-add (optionally folding the
        shortcut's own MulQuant when ``has_smq``); same tiling/threading
        contract as :meth:`conv_mq_cm`."""
        return _call(
            self._lib.conv_mq_res_cm, (P, w, m, b, S, sm, sb, Q, acc, sc),
            P.ctypes.data, int(P.dtype == np.int8), planar, w.ctypes.data,
            m.ctypes.data, m.size, b.ctypes.data, b.size, lo, hi,
            S.ctypes.data, type_code(S),
            sm.ctypes.data, sm.size, sb.ctypes.data, sb.size, slo, shi,
            has_smq, rs, rlo, rhi, Q.ctypes.data, type_code(Q),
            acc.ctypes.data, acc.size, sc.ctypes.data, sc.size,
            C, N, Hp, Wp, O, kh, kw, stride, in_off,
            Hq, Wq, out_off, OH, OW, groups, nb, threads, Hs, Ws, s_off)

    def mulquant_cm(self, P, ps, m, b, lo, hi, Q, *,
                    C, N, Hp, Wp, Hq, Wq, out_off, H,
                    W) -> Callable[[], None]:
        """Standalone requant over a channel-major register pair."""
        return _call(
            self._lib.mulquant_cm, (P, m, b, Q),
            P.ctypes.data, type_code(P), ps, m.ctypes.data, m.size,
            b.ctypes.data, b.size, lo, hi, Q.ctypes.data, type_code(Q),
            C, N, Hp, Wp, Hq, Wq, out_off, H, W)

    def residual_cm(self, A, pa, S, ps, Q, pq, rs, lo, hi, *,
                    C, N, H, W) -> Callable[[], None]:
        """Integer residual merge over channel-major registers."""
        return _call(
            self._lib.residual_cm, (A, S, Q), A.ctypes.data, type_code(A), pa,
            S.ctypes.data, type_code(S), ps, Q.ctypes.data, type_code(Q),
            pq, rs, lo, hi, C, N, H, W)

    # The token epilogues run over plain (N, ...) float32 registers.  Each
    # entry returns a pass ``run(*srcs) -> out``.  With ``in_place`` it
    # writes over its source — one nothing else reads, a fresh GEMM result
    # or the previous epilogue's output — so the epilogue allocates
    # nothing; else into a fresh array of ``shape``.  A binding keeps no
    # epilogue buffer between batches.

    @staticmethod
    def _token_pass(fn, shape, in_place, consts, keep=()) -> Callable:
        """``run(*srcs) -> out`` calling ``fn(*srcs, *consts, out)``."""
        size = math.prod(shape)

        def run(*srcs):
            srcs = [_f32(x, size) for x in srcs]
            out = srcs[0] if in_place else np.empty(shape, dtype=np.float32)
            fn(*[x.ctypes.data for x in srcs], *consts, out.ctypes.data)
            return out
        run.arrays = keep   # the buffers whose pointers ``consts`` holds
        return run

    def requant_tok(self, m, b, lo, hi, shape,
                    in_place=False) -> Callable:
        """``run(acc) -> out``: MulQuant of a register of ``shape``,
        ``m``/``b`` one period of the broadcast table
        (:func:`repro.runtime.kernels.requant_table`)."""
        return self._token_pass(
            self._lib.requant_tok, shape, in_place,
            (math.prod(shape) // m.size, m.size, m.ctypes.data,
             b.ctypes.data, lo, hi), (m, b))

    def lut_softmax_tok(self, table, prob_bits, shape,
                        in_place=False) -> Callable:
        """``run(scores) -> out``: integer softmax over the last axis."""
        return self._token_pass(
            self._lib.lut_softmax_tok, shape, in_place,
            (math.prod(shape[:-1]), shape[-1], table.ctypes.data,
             table.size, prob_bits), (table,))

    def lut_gelu_tok(self, table, qlb, qub, shape,
                     in_place=False) -> Callable:
        """``run(codes) -> out``: the GELU table lookup."""
        return self._token_pass(
            self._lib.lut_gelu_tok, shape, in_place,
            (math.prod(shape), table.ctypes.data, qlb, qub), (table,))

    def residual_tok(self, rs, lo, hi, shape) -> Callable:
        """``run(a, s) -> out``: residual merge of two plain registers."""
        return self._token_pass(self._lib.residual_tok, shape, False,
                                (math.prod(shape), rs, lo, hi))


def _cache_dir() -> str:
    env = os.environ.get("REPRO_CKERNEL_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "ckernel")


def _compilers() -> List[str]:
    seen, out = set(), []
    for cc in (os.environ.get("CC"), "cc", "gcc"):
        if cc and cc not in seen:
            seen.add(cc)
            out.append(cc)
    return out


def _isa_fingerprint() -> str:
    """The host's ISA feature flags (the ``flags`` line of /proc/cpuinfo),
    falling back to ``platform.processor()`` where that file is absent."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _digest(flags: List[str], cc: str) -> str:
    h = hashlib.sha256()
    for part in (platform.machine(), _isa_fingerprint(), cc, " ".join(flags)):
        h.update(part.encode() + b"\0")
    for fname in _SOURCES + _HEADERS:
        with open(os.path.join(_SRC_DIR, fname), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _so_path(cc: str, native: bool, cache: str) -> str:
    """Where the library for this compiler, flag set and host lives."""
    return os.path.join(cache, f"conv_mq_{_digest(_flags(native), cc)}.so")


def _flags(native: bool) -> List[str]:
    return list(_BASE_FLAGS) + (["-march=native"] if native else [])


def _try_build(cc: str, native: bool, cache: str) -> Optional[str]:
    flags = _flags(native)
    sopath = _so_path(cc, native, cache)
    if os.path.exists(sopath):
        return sopath
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        objs = []
        for fname in _SOURCES:
            obj = os.path.join(tmp, fname.replace(".c", ".o"))
            cmd = [cc, *flags, "-c", "-o", obj,
                   os.path.join(_SRC_DIR, fname)]
            r = subprocess.run(cmd, capture_output=True, timeout=120)
            if r.returncode != 0:
                return None
            objs.append(obj)
        tmp_so = os.path.join(tmp, "lib.so")
        r = subprocess.run([cc, "-shared", "-pthread", "-o", tmp_so,
                            *objs, "-lm"],
                           capture_output=True, timeout=120)
        if r.returncode != 0:
            return None
        os.replace(tmp_so, sopath)  # atomic within the cache dir
    return sopath


def load() -> Optional[CKernel]:
    """Return the native kernel, building it on first use; None if unavailable."""
    global _loaded, _kernel
    if _loaded:
        return _kernel
    with _load_lock:   # threads binding at once wait for one build
        if not _loaded:
            _kernel = _build_and_load()
            _loaded = True
    return _kernel


def _build_and_load() -> Optional[CKernel]:
    if os.environ.get("REPRO_NO_CKERNEL", "") not in ("", "0"):
        telemetry.emit("ckernel_disabled", reason="REPRO_NO_CKERNEL")
        return None
    cache = _cache_dir()
    for cc in _compilers():
        for native in (True, False):
            try:
                sopath = _try_build(cc, native, cache)
            except (OSError, subprocess.SubprocessError):
                sopath = None
            if sopath is None:
                continue
            try:
                kernel = CKernel(ctypes.CDLL(sopath), sopath)
            except OSError:
                continue
            telemetry.emit("ckernel_loaded", path=sopath, compiler=cc,
                           native=native, isa=kernel.isa)
            return kernel
    telemetry.emit("ckernel_unavailable",
                   reason="no working C compiler; using interpreted kernels")
    return None


def reset_for_tests() -> None:
    """Forget the cached load decision (lets tests flip the kill switch)."""
    global _loaded, _kernel
    _loaded = False
    _kernel = None
