"""Core reverse-mode autograd engine.

The :class:`Tensor` wraps a ``numpy.ndarray`` and records a dynamic
computation graph.  Calling :meth:`Tensor.backward` on a scalar (or with an
explicit upstream gradient) walks the graph in reverse topological order and
accumulates gradients into every reachable tensor with ``requires_grad=True``.

Design notes
------------
* All data is kept as ``float32`` unless the caller explicitly constructs an
  integer tensor (integer tensors never require grad; they exist to carry the
  integer-only inference path of the Torch2Chip dual-path design).
* Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand shape with :func:`_unbroadcast`.
* Gradient mode is a per-thread flag manipulated by :class:`no_grad`; when
  disabled, no graph is recorded (used for the inference path and evaluation).
"""
from __future__ import annotations

import contextlib
import threading
from typing import Optional, Sequence, Tuple, Union

import numpy as np

class _GradMode(threading.local):
    """Per-thread gradient mode: a thread running a compiled plan's
    :class:`no_grad` region never switches recording off for another."""

    enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _grad_mode.enabled


class no_grad(contextlib.ContextDecorator):
    """Context manager (and decorator) that disables graph recording in the
    calling thread."""

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype == np.float64:
        return arr.astype(np.float32)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dims that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Floating payloads are stored as float32.
    requires_grad:
        Whether gradients should accumulate into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_op")
    __array_priority__ = 100.0  # make numpy defer to Tensor in mixed ops

    def __init__(self, data: ArrayLike, requires_grad: bool = False, _prev: Tuple["Tensor", ...] = (), _op: str = ""):
        self.data = _as_array(data)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError("only floating-point tensors can require grad")
        self.requires_grad = bool(requires_grad) and _grad_mode.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward = None
        self._prev: Tuple[Tensor, ...] = (_prev if _prev and _grad_mode.enabled
                                          else ())
        self._op = _op

    # ------------------------------------------------------------------ util
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        out = _make(self.data.copy(), (self,), "clone")
        if out.requires_grad:
            def _bw(g):
                return ((self, g),)
            out._backward = _bw
        return out

    def copy_(self, other: ArrayLike) -> "Tensor":
        """In-place copy (not tracked by autograd)."""
        src = _as_array(other)
        np.copyto(self.data, src.astype(self.data.dtype, copy=False))
        return self

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype))

    def float(self) -> "Tensor":
        out = _make(self.data.astype(np.float32), (self,), "float")
        if out.requires_grad:
            def _bw(g):
                return ((self, g),)
            out._backward = _bw
        return out

    def int(self) -> "Tensor":
        return Tensor(self.data.astype(np.int64))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad})\n{self.data!r}"

    def __len__(self) -> int:
        return len(self.data)

    def __hash__(self) -> int:
        return id(self)

def _make(data: np.ndarray, prev: Tuple[Tensor, ...], op: str) -> Tensor:
    req = _grad_mode.enabled and any(p.requires_grad for p in prev)
    out = Tensor(data, requires_grad=req, _prev=prev if req else (), _op=op)
    return out


def _tensor_backward(self: Tensor, grad: Optional[ArrayLike] = None) -> None:
    """Reverse-topological gradient propagation.

    Each op's ``_backward`` closure maps the upstream gradient to a tuple of
    ``(parent, parent_grad)`` pairs; gradients are staged per-node in
    ``pending`` and land in ``.grad`` only for leaf tensors that require grad.
    """
    if grad is None:
        if self.data.size != 1:
            raise RuntimeError("backward() on non-scalar tensor requires an explicit gradient")
        grad = np.ones_like(self.data, dtype=np.float32)
    else:
        grad = np.broadcast_to(_as_array(grad, np.float32), self.data.shape)

    topo: list[Tensor] = []
    visited = set()
    stack: list[tuple[Tensor, bool]] = [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._prev:
            if id(p) not in visited:
                stack.append((p, False))

    # note: ascontiguousarray promotes 0-d arrays to (1,) on some numpy
    # versions; reshape pins the seed gradient to the output's exact shape
    seed = np.ascontiguousarray(grad, dtype=np.float32).reshape(self.data.shape)
    pending: dict[int, np.ndarray] = {id(self): seed}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._prev == ():
            # leaf
            if node.grad is None:
                node.grad = np.zeros(node.data.shape, dtype=np.float32)
            node.grad += g
            continue
        if node.requires_grad and node.grad is not None:
            # non-leaf with retained grad: still accumulate
            node.grad += g
        if node._backward is None:
            if node.requires_grad:
                if node.grad is None:
                    node.grad = g.copy()
            continue
        for parent, pg in node._backward(g):
            if pg is None or not (parent.requires_grad or parent._prev):
                continue
            key = id(parent)
            if key in pending:
                pending[key] = pending[key] + pg
            else:
                pending[key] = pg


Tensor.backward = _tensor_backward  # type: ignore[assignment]


# ------------------------------------------------------------------ factory
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(np.array(_as_array(data)), requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    shape = shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    shape = shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def full(shape, fill_value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=np.float32), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=np.float32), requires_grad=requires_grad)


def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    shape = shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)


def rand(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    shape = shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    rng = rng or np.random.default_rng()
    return Tensor(rng.random(shape).astype(np.float32), requires_grad=requires_grad)


# ----------------------------------------------------------------- elementwise
def _binary(a: ArrayLike, b: ArrayLike, fwd, bwd_a, bwd_b, op: str) -> Tensor:
    ta = a if isinstance(a, Tensor) else Tensor(a)
    tb = b if isinstance(b, Tensor) else Tensor(b)
    out = _make(fwd(ta.data, tb.data), (ta, tb), op)
    if out.requires_grad:
        def _bw(g):
            ga = _unbroadcast(bwd_a(g, ta.data, tb.data, out.data), ta.shape) if (ta.requires_grad or ta._prev) else None
            gb = _unbroadcast(bwd_b(g, ta.data, tb.data, out.data), tb.shape) if (tb.requires_grad or tb._prev) else None
            return ((ta, ga), (tb, gb))
        out._backward = _bw
    return out


def _unary(a: Tensor, fwd, bwd, op: str) -> Tensor:
    out = _make(fwd(a.data), (a,), op)
    if out.requires_grad:
        def _bw(g):
            return ((a, bwd(g, a.data, out.data)),)
        out._backward = _bw
    return out


def _add(a, b):
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y, o: g, lambda g, x, y, o: g, "add")


def _sub(a, b):
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y, o: g, lambda g, x, y, o: -g, "sub")


def _mul(a, b):
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y, o: g * y, lambda g, x, y, o: g * x, "mul")


def _div(a, b):
    return _binary(a, b, lambda x, y: x / y, lambda g, x, y, o: g / y, lambda g, x, y, o: -g * x / (y * y), "div")


def _pow(a, b):
    return _binary(
        a, b,
        lambda x, y: x ** y,
        lambda g, x, y, o: g * y * x ** (y - 1),
        lambda g, x, y, o: g * o * np.log(np.maximum(x, 1e-12)),
        "pow",
    )


Tensor.__add__ = lambda self, other: _add(self, other)
Tensor.__radd__ = lambda self, other: _add(other, self)
Tensor.__sub__ = lambda self, other: _sub(self, other)
Tensor.__rsub__ = lambda self, other: _sub(other, self)
Tensor.__mul__ = lambda self, other: _mul(self, other)
Tensor.__rmul__ = lambda self, other: _mul(other, self)
Tensor.__truediv__ = lambda self, other: _div(self, other)
Tensor.__rtruediv__ = lambda self, other: _div(other, self)
Tensor.__pow__ = lambda self, other: _pow(self, other)
Tensor.__neg__ = lambda self: _mul(self, -1.0)

Tensor.add = lambda self, other: _add(self, other)
Tensor.sub = lambda self, other: _sub(self, other)
Tensor.mul = lambda self, other: _mul(self, other)
Tensor.div = lambda self, other: _div(self, other)

# comparisons: non-differentiable, return plain bool arrays wrapped in Tensor
Tensor.__gt__ = lambda self, other: Tensor(self.data > _as_array(other))
Tensor.__lt__ = lambda self, other: Tensor(self.data < _as_array(other))
Tensor.__ge__ = lambda self, other: Tensor(self.data >= _as_array(other))
Tensor.__le__ = lambda self, other: Tensor(self.data <= _as_array(other))
Tensor.__eq__ = lambda self, other: Tensor(self.data == _as_array(other))  # type: ignore[assignment]
Tensor.__ne__ = lambda self, other: Tensor(self.data != _as_array(other))  # type: ignore[assignment]


def _exp(self: Tensor) -> Tensor:
    return _unary(self, np.exp, lambda g, x, o: g * o, "exp")


def _log(self: Tensor) -> Tensor:
    return _unary(self, lambda x: np.log(np.maximum(x, 1e-30)), lambda g, x, o: g / np.maximum(x, 1e-30), "log")


def _sqrt(self: Tensor) -> Tensor:
    return _unary(self, np.sqrt, lambda g, x, o: g * 0.5 / np.maximum(o, 1e-12), "sqrt")


def _abs(self: Tensor) -> Tensor:
    return _unary(self, np.abs, lambda g, x, o: g * np.sign(x), "abs")


def _tanh(self: Tensor) -> Tensor:
    return _unary(self, np.tanh, lambda g, x, o: g * (1 - o * o), "tanh")


def _sigmoid(self: Tensor) -> Tensor:
    def fwd(x):
        return 1.0 / (1.0 + np.exp(-x))
    return _unary(self, fwd, lambda g, x, o: g * o * (1 - o), "sigmoid")


def _relu(self: Tensor) -> Tensor:
    return _unary(self, lambda x: np.maximum(x, 0), lambda g, x, o: g * (x > 0), "relu")


def _sign(self: Tensor) -> Tensor:
    """Sign with zero gradient (use sign_ste for straight-through)."""
    return _unary(self, np.sign, lambda g, x, o: np.zeros_like(g), "sign")


Tensor.exp = _exp
Tensor.log = _log
Tensor.sqrt = _sqrt
Tensor.abs = _abs
Tensor.tanh = _tanh
Tensor.sigmoid = _sigmoid
Tensor.relu = _relu
Tensor.sign = _sign


def _clamp(self: Tensor, min_val=None, max_val=None) -> Tensor:
    lo = -np.inf if min_val is None else float(min_val)
    hi = np.inf if max_val is None else float(max_val)

    def fwd(x):
        return np.clip(x, lo, hi)

    def bwd(g, x, o):
        return g * ((x >= lo) & (x <= hi))

    return _unary(self, fwd, bwd, "clamp")


Tensor.clamp = _clamp


def _round_ste(self: Tensor) -> Tensor:
    """Round-to-nearest with straight-through gradient (identity)."""
    return _unary(self, np.round, lambda g, x, o: g, "round_ste")


def _floor_ste(self: Tensor) -> Tensor:
    return _unary(self, np.floor, lambda g, x, o: g, "floor_ste")


def _round(self: Tensor) -> Tensor:
    """Round with zero gradient (true discretization)."""
    return _unary(self, np.round, lambda g, x, o: np.zeros_like(g), "round")


Tensor.round_ste = _round_ste
Tensor.floor_ste = _floor_ste
Tensor.round = _round


def where(cond: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    c = _as_array(cond).astype(bool)
    ta = a if isinstance(a, Tensor) else Tensor(a)
    tb = b if isinstance(b, Tensor) else Tensor(b)
    out = _make(np.where(c, ta.data, tb.data), (ta, tb), "where")
    if out.requires_grad:
        def _bw(g):
            return ((ta, _unbroadcast(g * c, ta.shape)), (tb, _unbroadcast(g * ~c, tb.shape)))
        out._backward = _bw
    return out


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _binary(
        a, b,
        np.maximum,
        lambda g, x, y, o: g * (x >= y),
        lambda g, x, y, o: g * (y > x),
        "maximum",
    )


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    return _binary(
        a, b,
        np.minimum,
        lambda g, x, y, o: g * (x <= y),
        lambda g, x, y, o: g * (y < x),
        "minimum",
    )


# ------------------------------------------------------------------ reductions
def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


def _sum(self: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axis(axis, self.ndim)
    out = _make(self.data.sum(axis=ax, keepdims=keepdims), (self,), "sum")
    if out.requires_grad:
        def _bw(g):
            if ax is not None and not keepdims:
                g = np.expand_dims(g, ax)
            return ((self, np.broadcast_to(g, self.shape).astype(np.float32)),)
        out._backward = _bw
    return out


def _mean(self: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axis(axis, self.ndim)
    n = self.size if ax is None else int(np.prod([self.shape[a] for a in ax]))
    out = _make(self.data.mean(axis=ax, keepdims=keepdims), (self,), "mean")
    if out.requires_grad:
        def _bw(g):
            if ax is not None and not keepdims:
                g = np.expand_dims(g, ax)
            return ((self, (np.broadcast_to(g, self.shape) / n).astype(np.float32)),)
        out._backward = _bw
    return out


def _var(self: Tensor, axis=None, keepdims: bool = False, unbiased: bool = False) -> Tensor:
    m = self.mean(axis=axis, keepdims=True)
    d = self - m
    v = (d * d).mean(axis=axis, keepdims=keepdims)
    if unbiased:
        ax = _norm_axis(axis, self.ndim)
        n = self.size if ax is None else int(np.prod([self.shape[a] for a in ax]))
        v = v * (n / max(n - 1, 1))
    return v


def _max(self: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axis(axis, self.ndim)
    out_data = self.data.max(axis=ax, keepdims=keepdims)
    out = _make(out_data, (self,), "max")
    if out.requires_grad:
        def _bw(g):
            full = self.data.max(axis=ax, keepdims=True)
            mask = (self.data == full)
            count = mask.sum(axis=ax, keepdims=True)
            gg = g if keepdims or ax is None else np.expand_dims(g, ax)
            return ((self, (np.broadcast_to(gg, self.shape) * mask / count).astype(np.float32)),)
        out._backward = _bw
    return out


def _min(self: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return -(-self).max(axis=axis, keepdims=keepdims)


Tensor.sum = _sum
Tensor.mean = _mean
Tensor.var = _var
Tensor.max = _max
Tensor.min = _min
Tensor.argmax = lambda self, axis=None: Tensor(np.argmax(self.data, axis=axis))
Tensor.argmin = lambda self, axis=None: Tensor(np.argmin(self.data, axis=axis))


# ------------------------------------------------------------------ shape ops
def _reshape(self: Tensor, *shape) -> Tensor:
    shape = shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape
    old = self.shape
    out = _make(self.data.reshape(shape), (self,), "reshape")
    if out.requires_grad:
        def _bw(g):
            return ((self, g.reshape(old)),)
        out._backward = _bw
    return out


def _transpose(self: Tensor, *axes) -> Tensor:
    if len(axes) == 0:
        axes = tuple(reversed(range(self.ndim)))
    elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    inv = np.argsort(axes)
    out = _make(self.data.transpose(axes), (self,), "transpose")
    if out.requires_grad:
        def _bw(g):
            return ((self, g.transpose(inv)),)
        out._backward = _bw
    return out


def _swapaxes(self: Tensor, a: int, b: int) -> Tensor:
    axes = list(range(self.ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return self.transpose(*axes)


def _getitem(self: Tensor, idx) -> Tensor:
    if isinstance(idx, Tensor):
        idx = idx.data
    out = _make(self.data[idx], (self,), "getitem")
    if out.requires_grad:
        def _bw(g):
            full = np.zeros(self.shape, dtype=np.float32)
            np.add.at(full, idx, g)
            return ((self, full),)
        out._backward = _bw
    return out


def _pad(self: Tensor, pad_width) -> Tensor:
    out = _make(np.pad(self.data, pad_width), (self,), "pad")
    if out.requires_grad:
        slices = tuple(slice(p[0], p[0] + s) for p, s in zip(pad_width, self.shape))

        def _bw(g):
            return ((self, g[slices]),)
        out._backward = _bw
    return out


def _flatten(self: Tensor, start_dim: int = 0, end_dim: int = -1) -> Tensor:
    nd = self.ndim
    start = start_dim % nd
    end = end_dim % nd
    new_shape = self.shape[:start] + (-1,) + self.shape[end + 1:]
    return self.reshape(new_shape)


def _unsqueeze(self: Tensor, axis: int) -> Tensor:
    shape = list(self.shape)
    axis = axis if axis >= 0 else axis + self.ndim + 1
    shape.insert(axis, 1)
    return self.reshape(tuple(shape))


def _squeeze(self: Tensor, axis: Optional[int] = None) -> Tensor:
    if axis is None:
        return self.reshape(tuple(s for s in self.shape if s != 1) or (1,))
    shape = list(self.shape)
    if shape[axis] != 1:
        raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
    shape.pop(axis)
    return self.reshape(tuple(shape))


def _broadcast_to(self: Tensor, shape) -> Tensor:
    out = _make(np.broadcast_to(self.data, shape), (self,), "broadcast")
    if out.requires_grad:
        def _bw(g):
            return ((self, _unbroadcast(g, self.shape)),)
        out._backward = _bw
    return out


Tensor.reshape = _reshape
Tensor.transpose = _transpose
Tensor.swapaxes = _swapaxes
Tensor.__getitem__ = _getitem
Tensor.pad = _pad
Tensor.flatten = _flatten
Tensor.unsqueeze = _unsqueeze
Tensor.squeeze = _squeeze
Tensor.broadcast_to = _broadcast_to


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out = _make(np.stack([t.data for t in ts], axis=axis), tuple(ts), "stack")
    if out.requires_grad:
        def _bw(g):
            parts = np.split(g, len(ts), axis=axis)
            return tuple((t, np.squeeze(p, axis=axis)) for t, p in zip(ts, parts))
        out._backward = _bw
    return out


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in ts]
    out = _make(np.concatenate([t.data for t in ts], axis=axis), tuple(ts), "cat")
    if out.requires_grad:
        splits = np.cumsum(sizes)[:-1]

        def _bw(g):
            parts = np.split(g, splits, axis=axis)
            return tuple((t, p) for t, p in zip(ts, parts))
        out._backward = _bw
    return out


# ------------------------------------------------------------------ matmul
def _matmul(self: Tensor, other: ArrayLike) -> Tensor:
    tb = other if isinstance(other, Tensor) else Tensor(other)
    out = _make(self.data @ tb.data, (self, tb), "matmul")
    if out.requires_grad:
        def _bw(g):
            a, b = self.data, tb.data
            if a.ndim == 1 and b.ndim == 1:
                ga, gb = g * b, g * a
            elif a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                ga = _unbroadcast(np.expand_dims(g, -2) @ np.swapaxes(b, -1, -2), (1, a.shape[0])).reshape(a.shape)
                gb = _unbroadcast(np.expand_dims(a, -1) @ np.expand_dims(g, -2), b.shape)
            elif b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                ga = _unbroadcast(np.expand_dims(g, -1) @ np.expand_dims(b, 0), a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ np.expand_dims(g, -1), b.shape + (1,)).reshape(b.shape)
            else:
                ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
            return ((self, ga.astype(np.float32)), (tb, gb.astype(np.float32)))
        out._backward = _bw
    return out


Tensor.__matmul__ = _matmul
Tensor.matmul = _matmul


def _softmax(self: Tensor, axis: int = -1) -> Tensor:
    def fwd(x):
        m = x.max(axis=axis, keepdims=True)
        e = np.exp(x - m)
        return e / e.sum(axis=axis, keepdims=True)

    def bwd(g, x, o):
        return o * (g - (g * o).sum(axis=axis, keepdims=True))

    return _unary(self, fwd, bwd, "softmax")


def _log_softmax(self: Tensor, axis: int = -1) -> Tensor:
    def fwd(x):
        m = x.max(axis=axis, keepdims=True)
        z = x - m
        return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def bwd(g, x, o):
        return g - np.exp(o) * g.sum(axis=axis, keepdims=True)

    return _unary(self, fwd, bwd, "log_softmax")


Tensor.softmax = _softmax
Tensor.log_softmax = _log_softmax
