"""Module base class: parameter registration, buffers, state dicts, modes.

The surface mirrors ``torch.nn.Module`` closely because Torch2Chip's module
swapping (vanilla -> custom -> vanilla) relies on attribute-level replacement
of submodules and on ``state_dict`` round-trips.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.tensor.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a Module."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(np.array(data.data if isinstance(data, Tensor) else data, dtype=np.float32, copy=True),
                         requires_grad=requires_grad)


class Module:
    """Base class for all network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -------------------------------------------------------------- attrs
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
            object.__setattr__(self, name, value)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
            object.__setattr__(self, name, value)
        else:
            if name in self._parameters and not isinstance(value, Parameter):
                del self._parameters[name]
            if name in self._modules and not isinstance(value, Module):
                del self._modules[name]
            object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value) -> None:
        """Register a non-trainable tensor that is part of the state dict."""
        t = value if isinstance(value, Tensor) else Tensor(np.asarray(value))
        self._buffers[name] = t
        object.__setattr__(self, name, t)

    def register_parameter(self, name: str, value: Optional[Parameter]) -> None:
        if value is None:
            self._parameters.pop(name, None)
            object.__setattr__(self, name, None)
        else:
            setattr(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        setattr(self, name, module)

    # ------------------------------------------------------------ traversal
    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            if p is not None:
                yield prefix + name, p
        for mname, m in self._modules.items():
            yield from m.named_parameters(prefix + mname + ".")

    def buffers(self) -> Iterator[Tensor]:
        for _, b in self.named_buffers():
            yield b

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, b in self._buffers.items():
            yield prefix + name, b
        for mname, m in self._modules.items():
            yield from m.named_buffers(prefix + mname + ".")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_children(self) -> Iterator[Tuple[str, "Module"]]:
        yield from self._modules.items()

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for mname, m in self._modules.items():
            sub = prefix + ("." if prefix else "") + mname
            yield from m.named_modules(sub)

    def get_submodule(self, target: str) -> "Module":
        mod: Module = self
        if target == "":
            return mod
        for part in target.split("."):
            mod = mod._modules[part]
        return mod

    def set_submodule(self, target: str, module: "Module") -> None:
        """Replace the submodule at dotted path ``target`` (used by T2C swaps)."""
        *parents, leaf = target.split(".")
        mod = self.get_submodule(".".join(parents)) if parents else self
        setattr(mod, leaf, module)

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for m in self.children():
            m.apply(fn)
        fn(self)
        return self

    # ---------------------------------------------------------------- modes
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self.children():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def set_deploy(self, flag: bool = True) -> None:
        """Switch every module here that has a ``deploy`` flag (the
        dual-path layers and their quantizers) to the integer-only path, or
        back to the training path."""
        for m in self.modules():
            if hasattr(m, "deploy"):
                m.deploy = flag

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def requires_grad_(self, flag: bool = True) -> "Module":
        for p in self.parameters():
            p.requires_grad = flag
        return self

    # ------------------------------------------------------------- state io
    def state_dict(self, prefix: str = "", destination: Optional[Dict[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        dest = destination if destination is not None else OrderedDict()
        for name, p in self._parameters.items():
            if p is not None:
                dest[prefix + name] = p.data.copy()
        for name, b in self._buffers.items():
            dest[prefix + name] = b.data.copy()
        for mname, m in self._modules.items():
            m.state_dict(prefix + mname + ".", dest)
        return dest

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        own = dict(self.named_parameters())
        own.update(dict(self.named_buffers()))
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(f"state mismatch: missing={missing}, unexpected={unexpected}")
        params = dict(self.named_parameters())
        for k, t in own.items():
            if k in state:
                arr = np.asarray(state[k])
                if arr.shape != t.data.shape:
                    if k in params:
                        raise ValueError(f"shape mismatch for {k}: {arr.shape} vs {t.data.shape}")
                    # Buffers may be shaped lazily from data (e.g. LayerNorm
                    # per-position running statistics): adopt the stored shape.
                    t.data = arr.astype(t.data.dtype, copy=True)
                    continue
                t.data = arr.astype(t.data.dtype, copy=True)

    def num_parameters(self) -> int:
        return int(sum(p.size for p in self.parameters()))

    # ----------------------------------------------------------------- call
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, m in self._modules.items():
            sub = repr(m).split("\n")
            lines.append(f"  ({name}): " + "\n  ".join(sub))
        return "\n".join(lines) + ")"
