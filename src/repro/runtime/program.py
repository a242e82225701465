"""Op model of the compiled integer program.

A program is a flat list of ops over a register file.  Each op carries:

* ``kind`` / ``name`` — the op class and the resolved dotted module path of
  the layer it was compiled from (telemetry spans and per-op timing report
  under these names);
* ``src`` / ``dst`` — register ids (each register is written exactly once
  per execution, so skip connections just re-read an earlier register);
* ``infer(shapes)`` — symbolic (batch-size-free) shape inference used to
  size the activation arena;
* ``bind(arena)`` — returns the steady-state closure executed per batch,
  with buffers, register views and broadcast constants resolved up front.

Feature maps live in channel-major padded integer registers (see
:mod:`repro.runtime.arena`).  Each op picks its body once, at bind, from
``arena.ck``: the native kernel when it is loaded, else a numpy reference
that runs the interpreted module's arithmetic on a float32 batch-major
copy of its input registers (a conv accumulates in float64, as the tree
does) and writes the result back channel-major — so a host without the
kernel runs the same op list, bit-exactly.  Token and vector registers are
plain ``(N, ...)`` float32 arrays; their epilogues (requant, LUT softmax,
LUT GELU, residual merge) pick a C pass or the numpy reference the same
way, at bind.

Numeric contracts live in :mod:`repro.runtime.kernels`.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.runtime import kernels
from repro.runtime.arena import Arena
from repro.tensor.im2col import conv_out_size

Shape = Tuple[int, ...]

#: L2 budget of one native-kernel sample block: a conv runs over as many
#: samples at once as fit one group's padded input planes into it
SAMPLE_BLOCK_BYTES = 512 * 1024


class _Im2colCache:
    """Memoized im2col: bitwise the :func:`repro.tensor.im2col.im2col`
    result, but the pad scratch and the contiguous gather output are
    allocated once per binding and reused across batches."""

    def __init__(self, n, c, h, w, kh, kw, stride, padding):
        oh = conv_out_size(h, kh, stride, padding)
        ow = conv_out_size(w, kw, stride, padding)
        self._kh, self._kw, self._stride = kh, kw, stride
        self._win_shape = (n, c, kh, kw, oh, ow)
        self._cols_shape = (n, c * kh * kw, oh * ow)
        self._out = np.empty(self._win_shape, dtype=np.float32)
        if padding > 0:
            # border zeroed once — np.pad re-zeroes it on every call
            self._padded = np.zeros(
                (n, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
            self._center = self._padded[:, :, padding:padding + h,
                                        padding:padding + w]
        else:
            self._padded = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._padded is not None:
            np.copyto(self._center, x)
            x = self._padded
        s = x.strides
        windows = np.lib.stride_tricks.as_strided(
            x, shape=self._win_shape,
            strides=(s[0], s[1], s[2], s[3],
                     s[2] * self._stride, s[3] * self._stride),
            writeable=False)
        np.copyto(self._out, windows)
        return self._out.reshape(self._cols_shape)


def _conv_accum_fn(arena: Arena, src: int, weight: np.ndarray, stride: int,
                   padding: int, groups: int, out_shape: Shape):
    """The interpreted conv accumulation: im2col + float64 GEMMs, one per
    sample, as :func:`repro.tensor.functional.conv2d` runs them.

    Returns ``run(x) -> (N, O, OH, OW) float64`` raw accumulator — the exact
    integer sum the interpreted path holds just before requantization.
    """
    n = arena.n
    o, oh, ow = out_shape
    _, cg, kh, kw = weight.shape
    g = groups
    wm_g = np.asarray(weight, dtype=np.float64).reshape(g, o // g, -1)
    c, h, w = arena.shapes[src]
    gather = _Im2colCache(n, c, h, w, kh, kw, stride, padding)

    def run(x):
        cols_g = gather(x).reshape(n, g, cg * kh * kw, oh * ow)
        acc = np.empty((n, o, oh, ow))
        acc_g = acc.reshape(n, g, o // g, oh * ow)
        for i in range(n):
            np.matmul(wm_g, cols_g[i], out=acc_g[i])
        return acc
    return run


class Op:
    """Base class for program ops."""

    kind = "op"

    def __init__(self, name: str, src, dst: int):
        self.name = name
        self.src = tuple(src)
        self.dst = int(dst)

    def infer(self, shapes: Dict[int, Shape]) -> Shape:
        raise NotImplementedError

    def out_dtype(self, dtypes: Dict[int, np.dtype]) -> np.dtype:
        """Element type of ``dst`` as a feature-map register."""
        return np.dtype(np.float32)

    def bind(self, arena: Arena):
        raise NotImplementedError

    def sig_update(self, h) -> None:
        h.update(repr((self.kind, self.name, self.src, self.dst)).encode())
        self._sig_params(h)

    def _sig_params(self, h) -> None:
        pass

    def constituents(self):
        """The source layers this op's wall time belongs to.

        ``[(kind, name, share)]`` with shares summing to 1.0.  Simple ops are
        their own single constituent; fused ops split their time across the
        layers they were fused from, so per-op profiling keeps attributing
        to real module names.
        """
        return [(self.kind, self.name, 1.0)]

    def describe(self) -> str:
        srcs = ",".join(f"r{s}" for s in self.src)
        return f"{self.kind:<12} {srcs} -> r{self.dst}  {self.name}"


class InputQuantOp(Op):
    """Model-input ADC quantizer: round + clamp onto the input integer grid."""

    kind = "input_quant"

    def __init__(self, name, src, dst, scale: float, qlb: int, qub: int):
        super().__init__(name, src, dst)
        self.scale = float(scale)
        self.qlb = qlb
        self.qub = qub

    def infer(self, shapes):
        return shapes[self.src[0]]

    def out_dtype(self, dtypes):
        return kernels.register_dtype(self.qlb, self.qub)

    def bind(self, arena):
        regs, s = arena.regs, self.src[0]
        scale, qlb, qub = self.scale, self.qlb, self.qub
        center = arena.cm_center(self.dst)

        def fn():
            r = np.round(regs[s] / scale)
            q = np.clip(r, qlb, qub)
            np.copyto(center, q.transpose(1, 0, 2, 3), casting="unsafe")
        return fn

    def _sig_params(self, h):
        h.update(repr((self.scale, self.qlb, self.qub)).encode())


class _ConvOp(Op):
    """Shared body of the two conv ops: geometry, the per-conv path choice
    and the native kernel's arguments.

    The compiler asks for a ``native`` conv when it may run on the integer
    kernel: an input register of 8-bit codes and taps within the kernel's
    tables; the op is native when its weights also pack as int8.  ``bound``
    is the compiler's worst-case accumulator magnitude over its proven
    input range (the verifier re-derives it).  Every conv holds one
    resident weight array, the instance attribute ``weight`` (what the
    scrubber's constant walk CRCs): for a native conv the kernel's packed
    int8 words (see :func:`kernels.pack_conv_weight`), else float64 (the
    reference body's GEMM operand).  The ``weight`` property shadows it
    with the logical ``(O, Cg, kh, kw)`` array — for a native conv a
    writable view of the packed bytes, so the chaos injectors and ABFT read
    and perturb exactly what the kernel reads.  A non-native conv, or a
    native one bound where the kernel is not loaded, runs the interpreted
    im2col + float64 GEMM (:func:`_bind_numpy`).
    """

    def __init__(self, name, src, dst, weight: np.ndarray, stride: int,
                 padding: int, groups: int, mq: kernels.MQParams,
                 bound: float, native: bool = False):
        super().__init__(name, src, dst)
        packed = kernels.pack_conv_weight(weight) if native else None
        self.native = packed is not None  # the weights must be int8 too
        self.cg = int(weight.shape[1])
        self.__dict__["weight"] = (
            packed if self.native
            else np.ascontiguousarray(weight, dtype=np.float64))
        self.stride = int(stride)
        self.padding = int(padding)
        self.groups = int(groups)
        self.mq = mq
        self.bound = float(bound)

    @property
    def weight(self) -> np.ndarray:
        """The logical ``(O, Cg, kh, kw)`` weight (a view for native convs)."""
        w = self.__dict__["weight"]
        return kernels.conv_weight_view(w, self.cg) if self.native else w

    @property
    def planar(self) -> bool:
        """Depthwise: under 4 channels per group, the kernel reads the
        register directly instead of interleaving 4 channels per word."""
        return self.cg < 4 and self.groups > 1

    def infer(self, shapes):
        c, h, w = shapes[self.src[0]]
        o, cg, kh, kw = self.weight.shape
        if c != cg * self.groups:
            raise ValueError(f"{self.name}: input has {c} channels, the conv "
                             f"expects {cg * self.groups}")
        return (o, conv_out_size(h, kh, self.stride, self.padding),
                conv_out_size(w, kw, self.stride, self.padding))

    def out_dtype(self, dtypes):
        return kernels.register_dtype(self.mq.lo, self.mq.hi)

    def bind(self, arena):
        if self.native and arena.ck is not None:
            return self._bind_kernel(arena)
        return self._bind_reference(arena)

    def _kernel_args(self, arena):
        """``(P, w, m, b, lo, hi), Q, geometry`` for a native entry:
        registers, packed constants and the keyword geometry including the
        fixed sample-block tiling; reserves the arena's shared scratch."""
        n, threads = arena.n, arena.threads
        src, dst = self.src[0], self.dst
        o, oh, ow = arena.shapes[dst]
        _, cg, kh, kw = self.weight.shape
        P = arena.cm_buffer(src)
        Q = arena.cm_buffer(dst)
        packed = self.__dict__["weight"]
        if P.dtype not in (np.uint8, np.int8) or packed.dtype != np.int8:
            raise RuntimeError(
                f"{self.name}: native conv over a {P.dtype} register with "
                f"{packed.dtype} weights; the integer kernel needs 8-bit "
                "codes and int8 weights")
        c, _, hp, wp = P.shape
        _, _, hq, wq = Q.shape
        splane = hp * wp
        nb = min(n, max(1, SAMPLE_BLOCK_BYTES // (cg * splane * 4)))
        # every thread seats the widest (8-channel) accumulator block and,
        # on the dense path, its sample block's interleaved words
        quads = 0 if self.planar else packed.shape[-1] // 4
        arena.reserve_scratch(threads * 8 * nb * splane,
                              threads * quads * nb * splane)
        consts = (packed.view(np.int32),
                  np.ascontiguousarray(self.mq.m.reshape(-1)),
                  np.ascontiguousarray(self.mq.b.reshape(-1)),
                  self.mq.lo, self.mq.hi)
        geometry = dict(C=c, N=n, Hp=hp, Wp=wp, O=o, kh=kh, kw=kw,
                        stride=self.stride,
                        in_off=arena.pads[src] - self.padding,
                        Hq=hq, Wq=wq, out_off=arena.pads[dst], OH=oh, OW=ow,
                        groups=self.groups, planar=int(self.planar), nb=nb,
                        threads=threads)
        return (P,) + consts, Q, geometry

    def _conv_acc(self, arena):
        return _conv_accum_fn(arena, self.src[0], self.weight, self.stride,
                              self.padding, self.groups,
                              arena.shapes[self.dst])

    def _conv_sig(self, h, *extra):
        h.update(repr((self.stride, self.padding, self.groups)
                      + extra).encode())
        kernels.array_sig(h, np.asarray(self.weight, dtype=np.float32))
        self.mq.sig_update(h)


def _on_first_call(prepare):
    """A closure that runs ``prepare()``'s call, preparing it on the first
    execution — after every op of the binding has reserved the arena's
    shared scratch, so the scratch the call points at is final."""
    call = None

    def fn():
        nonlocal call
        if call is None:
            call = prepare()
        call()
    return fn


def _batch_major(center: np.ndarray) -> np.ndarray:
    """A channel register's valid center as a batch-major float32 array —
    the input of every numpy reference body."""
    return np.ascontiguousarray(center.transpose(1, 0, 2, 3),
                                dtype=np.float32)


def _bind_numpy(arena: Arena, srcs, dst: int, body):
    """A numpy reference body over feature-map registers: ``body`` gets
    each source batch-major and its ``(N, C, H, W)`` result is written
    back into ``dst`` channel-major."""
    centers = [arena.cm_center(s) for s in srcs]
    out = arena.cm_center(dst)

    def fn():
        y = body(*[_batch_major(c) for c in centers])
        np.copyto(out, y.transpose(1, 0, 2, 3), casting="unsafe")
    return fn


def _native(fn):
    """Mark a bound body as running on the native kernel (what
    ``_Binding.native`` reports per op)."""
    fn.native = True
    return fn


def _tok_body(arena: Arena, fn):
    """A token op's body, marked native when the kernel is loaded (its
    epilogues then run in C, see the ``_tok_*`` factories)."""
    return _native(fn) if arena.ck is not None else fn


def _tok_requant(arena: Arena, mq: kernels.MQParams, shape: Shape,
                 in_place: bool = True):
    """``run(acc) -> float32``: requant of a plain register of ``shape``
    (batch axis first) — one C pass when the kernel is loaded, else
    :func:`kernels.requant`.  The C pass overwrites ``acc`` (a GEMM result
    nothing else reads) unless ``in_place`` is False (a register)."""
    if arena.ck is None:
        return lambda acc: kernels.requant(acc, mq)
    m, b = kernels.requant_table(mq, shape)
    return arena.ck.requant_tok(m, b, mq.lo, mq.hi, shape, in_place)


def _tok_softmax(arena: Arena, table: np.ndarray, prob_bits: int,
                 shape: Shape):
    """``run(scores) -> float32``: the LUT softmax over the last axis, in
    place over the score requant's output."""
    if arena.ck is None:
        return lambda s: kernels.lut_softmax(s, table, prob_bits)
    return arena.ck.lut_softmax_tok(table, prob_bits, shape, in_place=True)


def _tok_gelu(arena: Arena, table: np.ndarray, qlb: int, qub: int,
              shape: Shape):
    """``run(codes) -> float32``: the LUT GELU, in place over the fc1
    requant's output."""
    if arena.ck is None:
        return lambda x: kernels.lut_gelu(x, table, qlb, qub)
    return arena.ck.lut_gelu_tok(table, qlb, qub, shape, in_place=True)


def _tok_residual(arena: Arena, rs: float, lo: float, hi: float,
                  shape: Shape):
    """``run(a, s) -> float32``: the residual merge of two plain registers."""
    if arena.ck is None:
        return lambda a, s: kernels.residual_merge(a, s, rs, lo, hi)
    return arena.ck.residual_tok(rs, lo, hi, shape)


class ConvMQOp(_ConvOp):
    """Fused integer conv + MulQuant requant + clamp."""

    kind = "conv_mq"

    def _bind_kernel(self, arena):
        ck = arena.ck
        (P, w, m, b, lo, hi), Q, geometry = self._kernel_args(arena)

        def prepare():
            return ck.conv_mq_cm(P, w, m, b, lo, hi, Q, *arena.scratch(),
                                 **geometry)
        return _native(_on_first_call(prepare))

    def _bind_reference(self, arena):
        """The interpreted conv+MulQuant numpy sequence."""
        run_acc = self._conv_acc(arena)
        mq = self.mq
        return _bind_numpy(arena, self.src, self.dst,
                           lambda x: kernels.requant(run_acc(x), mq))

    def _sig_params(self, h):
        self._conv_sig(h)


class ConvMQResOp(_ConvOp):
    """Fully fused conv + requant + residual-add (+ folded shortcut requant).

    Produced by the plan fusion pass (:mod:`repro.runtime.fusion`) from a
    ``conv_mq`` → ``residual`` chain whose intermediate register has exactly
    one reader; when the residual's other operand is itself a single-reader
    ``mulquant`` (the identity-shortcut requant of a ResNet block) that is
    folded in as ``smq``.  The fused intermediate registers are never
    written, so they cost no arena memory and no kernel store/load.

    Each epilogue stage replicates the standalone op's arithmetic exactly
    (see :func:`repro.runtime.kernels.requant_residual`), so the fused op is
    bitwise the unfused chain on either body.
    """

    kind = "conv_mq_res"

    def __init__(self, name, src, dst, weight: np.ndarray, stride: int,
                 padding: int, groups: int, mq: kernels.MQParams,
                 bound: float, res_scale: float,
                 res_lo: float, res_hi: float, res_name: str,
                 smq: Optional[kernels.MQParams] = None,
                 smq_name: Optional[str] = None, native: bool = False):
        super().__init__(name, src, dst, weight, stride, padding, groups, mq,
                         bound, native)
        self.res_scale = float(res_scale)
        self.res_lo = float(res_lo)
        self.res_hi = float(res_hi)
        self.res_name = str(res_name)
        self.smq = smq
        self.smq_name = smq_name

    def constituents(self):
        # weight the split by work: the conv GEMM costs ~K MACs per output
        # element, each epilogue stage ~1 op per element
        k = int(self.weight.shape[1] * self.weight.shape[2]
                * self.weight.shape[3])
        total = k + (2 if self.smq is not None else 1)
        parts = [("conv_mq", self.name, k / total)]
        if self.smq is not None:
            parts.append(("mulquant", self.smq_name, 1.0 / total))
        parts.append(("residual", self.res_name, 1.0 / total))
        return parts

    def out_dtype(self, dtypes):
        return kernels.register_dtype(self.res_lo, self.res_hi)

    def _bind_kernel(self, arena):
        ck = arena.ck
        (P, w, m, b, lo, hi), Q, geometry = self._kernel_args(arena)
        s_src = self.src[1]
        S = arena.cm_buffer(s_src)
        _, _, hs, ws = S.shape
        s_off = arena.pads.get(s_src, 0)
        if self.smq is not None:
            sm = np.ascontiguousarray(self.smq.m.reshape(-1))
            sb = np.ascontiguousarray(self.smq.b.reshape(-1))
            slo, shi, has_smq = self.smq.lo, self.smq.hi, 1
        else:
            sm = np.zeros(1, dtype=np.float64)
            sb = np.zeros(1, dtype=np.float64)
            slo, shi, has_smq = 0.0, 0.0, 0
        rs, rlo, rhi = self.res_scale, self.res_lo, self.res_hi

        def prepare():
            return ck.conv_mq_res_cm(P, w, m, b, lo, hi, S, sm, sb, slo, shi,
                                     has_smq, rs, rlo, rhi, Q,
                                     *arena.scratch(), Hs=hs, Ws=ws,
                                     s_off=s_off, **geometry)
        return _native(_on_first_call(prepare))

    def _bind_reference(self, arena):
        run_acc = self._conv_acc(arena)
        mq, smq = self.mq, self.smq
        rs, rlo, rhi = self.res_scale, self.res_lo, self.res_hi

        def run(x, shortcut):
            return kernels.requant_residual(run_acc(x), shortcut, mq,
                                            rs, rlo, rhi, smq)
        return _bind_numpy(arena, self.src, self.dst, run)

    def _sig_params(self, h):
        self._conv_sig(h, self.res_scale, self.res_lo, self.res_hi,
                       self.res_name, self.smq_name)
        if self.smq is not None:
            self.smq.sig_update(h)


class LinearMQOp(Op):
    """Fused integer linear + MulQuant requant."""

    kind = "linear_mq"

    def __init__(self, name, src, dst, weight: np.ndarray, mq: kernels.MQParams):
        super().__init__(name, src, dst)
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        self.mq = mq

    def infer(self, shapes):
        return shapes[self.src[0]][:-1] + (self.weight.shape[0],)

    def bind(self, arena):
        regs, s, dst = arena.regs, self.src[0], self.dst
        wT = self.weight.T
        rq = _tok_requant(arena, self.mq, (arena.n,) + arena.shapes[dst])

        def fn():
            regs[dst] = rq(regs[s] @ wT)
        return _tok_body(arena, fn)

    def _sig_params(self, h):
        kernels.array_sig(h, self.weight)
        self.mq.sig_update(h)


class MulQuantOp(Op):
    """Standalone requantizer (identity shortcuts, fused LayerNorm tables)."""

    kind = "mulquant"

    def __init__(self, name, src, dst, mq: kernels.MQParams):
        super().__init__(name, src, dst)
        self.mq = mq

    def infer(self, shapes):
        return shapes[self.src[0]]

    def out_dtype(self, dtypes):
        return kernels.register_dtype(self.mq.lo, self.mq.hi)

    def bind(self, arena):
        regs, s, dst, mq = arena.regs, self.src[0], self.dst, self.mq
        if len(arena.shapes[s]) == 3:
            if arena.ck is not None:
                return self._bind_kernel(arena)
            return _bind_numpy(arena, self.src, dst,
                               lambda x: kernels.requant(x, mq))
        rq = _tok_requant(arena, mq, (arena.n,) + arena.shapes[dst],
                          in_place=False)

        def fn():
            regs[dst] = rq(regs[s])
        return _tok_body(arena, fn)

    def _bind_kernel(self, arena):
        """Native requant over the padded registers, same exact epilogue as
        the fused conv (f64 multiply and add rounding separately)."""
        ck = arena.ck
        s, dst = self.src[0], self.dst
        c, h, w = arena.shapes[s]
        n = arena.n
        P = arena.cm_buffer(s)
        Q = arena.cm_buffer(dst)
        _, _, hp, wp = P.shape
        _, _, hq, wq = Q.shape
        ps = arena.pads.get(s, 0)
        out_off = arena.pads.get(dst, 0)
        m = np.ascontiguousarray(self.mq.m.reshape(-1))
        b = np.ascontiguousarray(self.mq.b.reshape(-1))
        lo, hi = self.mq.lo, self.mq.hi

        return _native(ck.mulquant_cm(P, ps, m, b, lo, hi, Q, C=c, N=n,
                                      Hp=hp, Wp=wp, Hq=hq, Wq=wq,
                                      out_off=out_off, H=h, W=w))

    def _sig_params(self, h):
        self.mq.sig_update(h)


class ResidualOp(Op):
    """Integer residual merge in the fine pre-add domain (float32 datapath)."""

    kind = "residual"

    def __init__(self, name, src, dst, res_scale: float, lo: float, hi: float):
        super().__init__(name, src, dst)
        self.res_scale = float(res_scale)
        self.lo = float(lo)
        self.hi = float(hi)

    def infer(self, shapes):
        return shapes[self.src[0]]

    def out_dtype(self, dtypes):
        return kernels.register_dtype(self.lo, self.hi)

    def bind(self, arena):
        regs, (a, s), dst = arena.regs, self.src, self.dst
        rs, lo, hi = self.res_scale, self.lo, self.hi
        if len(arena.shapes[dst]) == 3:
            if arena.ck is not None:
                return self._bind_kernel(arena)
            return _bind_numpy(
                arena, self.src, dst,
                lambda x, y: kernels.residual_merge(x, y, rs, lo, hi))
        merge = _tok_residual(arena, rs, lo, hi,
                              (arena.n,) + arena.shapes[dst])

        def fn():
            regs[dst] = merge(regs[a], regs[s])
        return _tok_body(arena, fn)

    def _bind_kernel(self, arena):
        """Native merge over the padded registers."""
        (a, s), dst = self.src, self.dst
        c, h, w = arena.shapes[dst]
        return _native(arena.ck.residual_cm(
            arena.cm_buffer(a), arena.pads.get(a, 0),
            arena.cm_buffer(s), arena.pads.get(s, 0),
            arena.cm_buffer(dst), arena.pads.get(dst, 0),
            self.res_scale, self.lo, self.hi, C=c, N=arena.n, H=h, W=w))

    def _sig_params(self, h):
        h.update(repr((self.res_scale, self.lo, self.hi)).encode())


class MaxPoolOp(Op):
    """Window max over integer codes (order-independent, hence exact)."""

    kind = "maxpool"

    def __init__(self, name, src, dst, kernel: int, stride: int):
        super().__init__(name, src, dst)
        self.kernel = int(kernel)
        self.stride = int(stride or kernel)

    def infer(self, shapes):
        c, h, w = shapes[self.src[0]]
        return (c, conv_out_size(h, self.kernel, self.stride, 0),
                conv_out_size(w, self.kernel, self.stride, 0))

    def out_dtype(self, dtypes):
        return dtypes.get(self.src[0], np.dtype(np.float32))

    def bind(self, arena):
        c, oh, ow = arena.shapes[self.dst]
        k, st = self.kernel, self.stride
        x = arena.cm_center(self.src[0])
        out = arena.cm_center(self.dst)
        s0, s1, s2, s3 = x.strides
        # window max is order-free, so the channel-major walk is exact
        win = np.lib.stride_tricks.as_strided(
            x, (c, arena.n, oh, ow, k, k), (s0, s1, s2 * st, s3 * st, s2, s3),
            writeable=False)

        def fn():
            np.max(win, axis=(4, 5), out=out)
        return fn

    def _sig_params(self, h):
        h.update(repr((self.kernel, self.stride)).encode())


class GapMQOp(Op):
    """Global average pool + flatten + MulQuant into the classifier domain.

    The mean is taken in float32 exactly like ``Tensor.mean`` (same pairwise
    reduction), then requantized.
    """

    kind = "gap_mq"

    def __init__(self, name, src, dst, mq: kernels.MQParams):
        super().__init__(name, src, dst)
        self.mq = mq

    def infer(self, shapes):
        return (shapes[self.src[0]][0],)

    def bind(self, arena):
        regs, s, dst = arena.regs, self.src[0], self.dst
        center = arena.cm_center(s)
        n = arena.n
        c, h, w = arena.shapes[s]
        rq = _tok_requant(arena, self.mq, (n, c))

        def fn():
            # The float32 batch-major copy has the contiguous (n, c, h*w)
            # element order the interpreted tree reduces over, so the
            # pairwise float32 mean is bit-identical.
            x = _batch_major(center).reshape(n, c, h * w)
            regs[dst] = rq(x.mean(axis=-1))
        return _tok_body(arena, fn)

    def _sig_params(self, h):
        self.mq.sig_update(h)


class TokensOp(Op):
    """ViT embedding assembly: patch grid -> tokens, +cls, +pos, clamp."""

    kind = "tokens"

    def __init__(self, name, src, dst, cls_int: np.ndarray, pos_int: np.ndarray,
                 qlb: int, qub: int):
        super().__init__(name, src, dst)
        self.cls_int = np.ascontiguousarray(cls_int, dtype=np.float32)
        self.pos_int = np.ascontiguousarray(pos_int, dtype=np.float32)
        self.qlb = qlb
        self.qub = qub

    def infer(self, shapes):
        d, gh, gw = shapes[self.src[0]]
        if gh * gw + 1 != self.pos_int.shape[-2]:
            raise ValueError(f"{self.name}: a {gh}x{gw} patch grid makes "
                             f"{gh * gw + 1} tokens, the position table "
                             f"holds {self.pos_int.shape[-2]}")
        return (gh * gw + 1, d)

    def bind(self, arena):
        regs, dst = arena.regs, self.dst
        center = arena.cm_center(self.src[0])
        n = arena.n
        d = arena.shapes[self.src[0]][0]
        cls_int, pos_int, qlb, qub = self.cls_int, self.pos_int, self.qlb, self.qub

        def fn():
            tokens = _batch_major(center).reshape(n, d, -1).transpose(0, 2, 1)
            cls = np.broadcast_to(cls_int, (n, 1, d)).copy()
            tok = np.concatenate([cls, tokens], axis=1)
            regs[dst] = np.clip(tok + pos_int, qlb, qub)
        return fn

    def _sig_params(self, h):
        h.update(repr((self.qlb, self.qub)).encode())
        kernels.array_sig(h, self.cls_int, self.pos_int)


class AttentionOp(Op):
    """Integer multi-head attention: QKV/score/context/proj requants + LUT softmax."""

    kind = "attention"

    def __init__(self, name, src, dst, qkv_w, proj_w, mq_qkv, mq_score, mq_ctx,
                 mq_proj, softmax_table, prob_bits, num_heads, head_dim):
        super().__init__(name, src, dst)
        self.qkv_w = np.ascontiguousarray(qkv_w, dtype=np.float32)
        self.proj_w = np.ascontiguousarray(proj_w, dtype=np.float32)
        self.mq_qkv = mq_qkv
        self.mq_score = mq_score
        self.mq_ctx = mq_ctx
        self.mq_proj = mq_proj
        self.softmax_table = np.ascontiguousarray(softmax_table, dtype=np.int64)
        self.prob_bits = int(prob_bits)
        self.num_heads = int(num_heads)
        self.head_dim = int(head_dim)

    def infer(self, shapes):
        return shapes[self.src[0]]

    def bind(self, arena):
        regs, s, dst = arena.regs, self.src[0], self.dst
        n = arena.n
        l, d = arena.shapes[s]
        qkv_wT, proj_wT = self.qkv_w.T, self.proj_w.T
        H, hd = self.num_heads, self.head_dim
        scores = (n, H, l, l)
        rq_qkv = _tok_requant(arena, self.mq_qkv,
                              (n, l, self.qkv_w.shape[0]))
        rq_score = _tok_requant(arena, self.mq_score, scores)
        softmax = _tok_softmax(arena, self.softmax_table, self.prob_bits,
                               scores)
        rq_ctx = _tok_requant(arena, self.mq_ctx, (n, H, l, hd))
        rq_proj = _tok_requant(arena, self.mq_proj,
                               (n, l, self.proj_w.shape[0]))

        def fn():
            t = rq_qkv(regs[s] @ qkv_wT)
            qkv = t.reshape(n, l, 3, H, hd).transpose(2, 0, 3, 1, 4)
            q, k, v = qkv[0], qkv[1], qkv[2]
            p_int = softmax(rq_score(q @ np.swapaxes(k, -1, -2)))
            c_int = rq_ctx(p_int @ v)
            merged = c_int.transpose(0, 2, 1, 3).reshape(n, l, d)
            regs[dst] = rq_proj(merged @ proj_wT)
        return _tok_body(arena, fn)

    def _sig_params(self, h):
        h.update(repr((self.prob_bits, self.num_heads, self.head_dim)).encode())
        kernels.array_sig(h, self.qkv_w, self.proj_w, self.softmax_table)
        for p in (self.mq_qkv, self.mq_score, self.mq_ctx, self.mq_proj):
            p.sig_update(h)


class MLPOp(Op):
    """Integer transformer MLP: fc1 + requant + LUT GELU + fc2 + requant."""

    kind = "mlp"

    def __init__(self, name, src, dst, fc1_w, fc2_w, mq_fc1, mq_fc2,
                 gelu_table, gelu_qlb, gelu_qub):
        super().__init__(name, src, dst)
        self.fc1_w = np.ascontiguousarray(fc1_w, dtype=np.float32)
        self.fc2_w = np.ascontiguousarray(fc2_w, dtype=np.float32)
        self.mq_fc1 = mq_fc1
        self.mq_fc2 = mq_fc2
        self.gelu_table = np.ascontiguousarray(gelu_table, dtype=np.int64)
        self.gelu_qlb = int(gelu_qlb)
        self.gelu_qub = int(gelu_qub)

    def infer(self, shapes):
        return shapes[self.src[0]][:-1] + (self.fc2_w.shape[0],)

    def bind(self, arena):
        regs, s, dst = arena.regs, self.src[0], self.dst
        fc1_wT, fc2_wT = self.fc1_w.T, self.fc2_w.T
        hidden = (arena.n,) + arena.shapes[s][:-1] + (self.fc1_w.shape[0],)
        rq1 = _tok_requant(arena, self.mq_fc1, hidden)
        gelu = _tok_gelu(arena, self.gelu_table, self.gelu_qlb,
                         self.gelu_qub, hidden)
        rq2 = _tok_requant(arena, self.mq_fc2, (arena.n,) + arena.shapes[dst])

        def fn():
            g = gelu(rq1(regs[s] @ fc1_wT))
            regs[dst] = rq2(g @ fc2_wT)
        return _tok_body(arena, fn)

    def _sig_params(self, h):
        h.update(repr((self.gelu_qlb, self.gelu_qub)).encode())
        kernels.array_sig(h, self.fc1_w, self.fc2_w, self.gelu_table)
        self.mq_fc1.sig_update(h)
        self.mq_fc2.sig_update(h)


class HeadOp(Op):
    """Classifier head on the CLS token: select token 0, linear, requant."""

    kind = "head"

    def __init__(self, name, src, dst, weight: np.ndarray, mq: kernels.MQParams):
        super().__init__(name, src, dst)
        self.weight = np.ascontiguousarray(weight, dtype=np.float32)
        self.mq = mq

    def infer(self, shapes):
        return (self.weight.shape[0],)

    def bind(self, arena):
        regs, s, dst = arena.regs, self.src[0], self.dst
        wT = self.weight.T
        rq = _tok_requant(arena, self.mq, (arena.n,) + arena.shapes[dst])

        def fn():
            regs[dst] = rq(regs[s][:, 0] @ wT)
        return _tok_body(arena, fn)

    def _sig_params(self, h):
        kernels.array_sig(h, self.weight)
        self.mq.sig_update(h)


class CallModuleOp(Op):
    """Escape hatch: run an interpreted module for ops with no integer kernel.

    Used for the instant-statistics LayerNorm, whose deploy semantics are a
    float normalization by design (paper's latency/accuracy reference mode).
    """

    kind = "call_module"

    def __init__(self, name, src, dst, module):
        super().__init__(name, src, dst)
        self.module = module

    def infer(self, shapes):
        return shapes[self.src[0]]

    def bind(self, arena):
        from repro.tensor import no_grad
        from repro.tensor.tensor import Tensor

        regs, s, dst, module = arena.regs, self.src[0], self.dst, self.module

        def fn():
            with no_grad():
                regs[dst] = module(Tensor(regs[s])).data
        return fn

    def _sig_params(self, h):
        state = getattr(self.module, "state_dict", None)
        if state is not None:
            for key, t in sorted(state().items()):
                h.update(key.encode())
                kernels.array_sig(h, np.asarray(t.data))
