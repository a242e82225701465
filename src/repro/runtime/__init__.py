"""Compiled batched integer-inference runtime (the serving path).

The re-packed model out of :meth:`repro.core.T2C.nn2chip` is a plain module
tree: correct, but every batch pays a full Python tree walk, a fresh im2col
index computation per convolution, and a Tensor allocation per op.  This
package compiles that tree **once** into a flat integer op program:

* :func:`repro.runtime.compiler.compile_program` flattens the module tree
  into a linear sequence of ops (conv / linear / MulQuant / LUT / pool /
  attention), each carrying its resolved dotted module name;
* the conv→MulQuant→clamp sequence is fused into one integer kernel, and —
  when the per-channel accumulator bound proves every partial sum is exactly
  representable in float32 — the per-sample GEMMs of the interpreted path
  collapse into a single large GEMM over the whole batch;
* per batch shape, the executor binds the program to a preallocated
  activation arena with cached im2col gather indices, so steady-state
  batches do zero graph walking and zero redundant index math;
* a plan is safe to call from many threads at once: the constants are
  shared and each thread gets its own bindings, so :meth:`Plan.serve`
  (and a gateway lane's executors) run batches on several threads over one
  plan — the native kernels release the GIL.

Everything is bit-exact against the interpreted model: a conv sums its
integers exactly on every body (int32 in the native kernel, float64 in the
tree and the numpy bodies), and every other op replicates the interpreted
op sequence verbatim (see ``tests/runtime/``).

Entry points::

    qnn = T2C(model, spec=DeploySpec()).nn2chip()
    plan = Plan.compile(qnn, CompileSpec(threads=4))  # the one setting
    logits = plan(batch)              # == qnn(Tensor(batch)).data, bitwise
    for logits in plan.serve(batches, workers=4): ...   # 4 threads
"""
from repro.runtime.executor import Plan
from repro.runtime.compiler import CompileError
from repro.runtime.spec import CompileSpec

__all__ = ["Plan", "CompileSpec", "CompileError"]
