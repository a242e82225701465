"""Build-on-first-use native conv kernel for the compiled runtime.

The fused conv+requant kernel lives in three C translation units under
``_ck/`` — they are compiled with different floating-point contraction
settings (the f32 accumulation may fuse because the compiler certified an
exact-integer bound; the f64 requant epilogue must not), so they cannot be
merged.  The first call to :func:`load` compiles them into a shared library
cached under ``~/.cache/repro/ckernel`` (override with
``REPRO_CKERNEL_CACHE``), keyed by a digest of the sources, flags and
machine; later processes reuse the cached binary.

Everything degrades gracefully: no C compiler, a failed build, or the
``REPRO_NO_CKERNEL=1`` kill switch all leave :func:`load` returning ``None``
and the runtime falls back to the interpreted-replication plan layout
(bit-exact, just slower).  A telemetry event records which way it went.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from typing import List, Optional

from repro import telemetry

_SRC_DIR = os.path.join(os.path.dirname(__file__), "_ck")
_SOURCES = (
    # (filename, extra compile flags)
    ("conv_acc.c", ("-ffp-contract=fast",)),
    ("requant.c", ("-ffp-contract=off",)),
    ("driver.c", ("-ffp-contract=off",)),
)
_BASE_FLAGS = ("-O3", "-fno-math-errno", "-fPIC", "-pthread")

_loaded = False
_kernel: Optional["CKernel"] = None


class CKernel:
    """ctypes facade over the compiled conv library."""

    def __init__(self, lib: ctypes.CDLL, path: str):
        self._lib = lib
        self.path = path
        lib.conv_mq_taps_cap.restype = ctypes.c_int64
        lib.conv_mq_taps_cap.argtypes = []
        lib.conv_mq_cm.restype = None
        lib.conv_mq_cm.argtypes = (
            [ctypes.c_void_p, ctypes.c_void_p,
             ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_double, ctypes.c_double,
             ctypes.c_void_p, ctypes.c_void_p]
            + [ctypes.c_int64] * 18)
        lib.conv_mq_res_cm.restype = None
        lib.conv_mq_res_cm.argtypes = (
            [ctypes.c_void_p, ctypes.c_void_p,      # P, w
             ctypes.c_void_p, ctypes.c_int64,       # m, mlen
             ctypes.c_void_p, ctypes.c_int64,       # b, blen
             ctypes.c_double, ctypes.c_double,      # lo, hi
             ctypes.c_void_p,                       # S
             ctypes.c_void_p, ctypes.c_int64,       # sm, smlen
             ctypes.c_void_p, ctypes.c_int64,       # sb, sblen
             ctypes.c_double, ctypes.c_double,      # slo, shi
             ctypes.c_int64,                        # has_smq
             ctypes.c_double, ctypes.c_double, ctypes.c_double,  # rs, rlo, rhi
             ctypes.c_void_p, ctypes.c_void_p]      # Q, acc
            + [ctypes.c_int64] * 21)
        lib.mulquant_cm.restype = None
        lib.mulquant_cm.argtypes = (
            [ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_double, ctypes.c_double,
             ctypes.c_void_p] + [ctypes.c_int64] * 9)
        lib.residual_cm.restype = None
        lib.residual_cm.argtypes = (
            [ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_void_p, ctypes.c_int64,
             ctypes.c_float, ctypes.c_float, ctypes.c_float]
            + [ctypes.c_int64] * 4)
        self.taps_cap = int(lib.conv_mq_taps_cap())

    def conv_mq_cm(self, P, w, m, b, lo, hi, Q, acc, *,
                   C, N, Hp, Wp, O, kh, kw, stride, in_off,
                   Hq, Wq, out_off, OH, OW, groups,
                   nb=0, threads=1) -> None:
        """Run the fused conv+MulQuant on channel-major padded registers.

        ``nb`` is the sample-block size (0 = one sample at a time) and
        ``threads`` the worker count; the kernel picks the output-channel
        register blocking per conv.  Any combination is bit-exact — the
        accumulation order is covered by the compiler's exact-reassociation
        certificate and output writes are disjoint.  The caller keeps every
        array referenced for the duration of the call; raw pointers are
        taken here and nothing is retained.
        """
        self._lib.conv_mq_cm(
            P.ctypes.data, w.ctypes.data, m.ctypes.data, m.size,
            b.ctypes.data, b.size, lo, hi, Q.ctypes.data, acc.ctypes.data,
            acc.size, C, N, Hp, Wp, O, kh, kw, stride, in_off,
            Hq, Wq, out_off, OH, OW, groups, nb, threads)

    def conv_mq_res_cm(self, P, w, m, b, lo, hi, S, sm, sb, slo, shi,
                       has_smq, rs, rlo, rhi, Q, acc, *,
                       C, N, Hp, Wp, O, kh, kw, stride, in_off,
                       Hq, Wq, out_off, OH, OW, groups,
                       nb=0, threads=1, Hs, Ws, s_off) -> None:
        """Fused conv+MulQuant+residual-add (optionally folding the
        shortcut's own MulQuant when ``has_smq``); same tiling/threading
        contract as :meth:`conv_mq_cm`."""
        self._lib.conv_mq_res_cm(
            P.ctypes.data, w.ctypes.data, m.ctypes.data, m.size,
            b.ctypes.data, b.size, lo, hi, S.ctypes.data,
            sm.ctypes.data, sm.size, sb.ctypes.data, sb.size, slo, shi,
            has_smq, rs, rlo, rhi, Q.ctypes.data, acc.ctypes.data,
            acc.size, C, N, Hp, Wp, O, kh, kw, stride, in_off,
            Hq, Wq, out_off, OH, OW, groups, nb, threads, Hs, Ws, s_off)

    def mulquant_cm(self, P, ps, m, b, lo, hi, Q, *,
                    C, N, Hp, Wp, Hq, Wq, out_off, H, W) -> None:
        """Standalone requant over a channel-major register pair."""
        self._lib.mulquant_cm(
            P.ctypes.data, ps, m.ctypes.data, m.size, b.ctypes.data, b.size,
            lo, hi, Q.ctypes.data, C, N, Hp, Wp, Hq, Wq, out_off, H, W)

    def residual_cm(self, A, pa, S, ps, Q, pq, rs, lo, hi, *,
                    C, N, H, W) -> None:
        """Integer residual merge over channel-major registers."""
        self._lib.residual_cm(A.ctypes.data, pa, S.ctypes.data, ps,
                              Q.ctypes.data, pq, rs, lo, hi, C, N, H, W)


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


def _digest(flag_sets: List[List[str]], cc: str) -> str:
    h = hashlib.sha256()
    h.update(platform.machine().encode())
    h.update(cc.encode())
    for (fname, _), flags in zip(_SOURCES, flag_sets):
        h.update(" ".join(flags).encode())
        with open(os.path.join(_SRC_DIR, fname), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _try_build(cc: str, native: bool, cache: str) -> Optional[str]:
    arch = ["-march=native"] if native else []
    flag_sets = [list(_BASE_FLAGS) + arch + list(extra)
                 for _, extra in _SOURCES]
    sopath = os.path.join(cache, f"conv_mq_{_digest(flag_sets, cc)}.so")
    if os.path.exists(sopath):
        return sopath
    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        objs = []
        for (fname, _), flags in zip(_SOURCES, flag_sets):
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
    _loaded = True
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
                _kernel = CKernel(ctypes.CDLL(sopath), sopath)
            except OSError:
                continue
            telemetry.emit("ckernel_loaded", path=sopath, compiler=cc,
                           native=native)
            return _kernel
    telemetry.emit("ckernel_unavailable",
                   reason="no working C compiler; using interpreted kernels")
    return None


def available() -> bool:
    return load() is not None


def reset_for_tests() -> None:
    """Forget the cached load decision (lets tests flip the kill switch)."""
    global _loaded, _kernel
    _loaded = False
    _kernel = None
