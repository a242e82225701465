"""Deterministic, seeded fault injectors.

Every injector is a pure function of its target and an explicit
``numpy.random.Generator`` — same seed, same fault, byte for byte — so a
chaos run is a *reproducible experiment*, not a fuzzer.  Each returns a
details dict naming exactly what it damaged, plus, where needed, an
``undo`` callable.  :data:`CATALOG` holds one row per injector: the kind
of target it damages, the function, and the defence layers that must each
catch it.  Five kinds:

* **artifact** injectors mutate an exported artifact directory in place
  (``flip_bits``, ``truncate_file``, ``corrupt_header``, ``stale_manifest``);
* **plan** injectors corrupt a compiled :class:`repro.runtime.executor.Plan`
  in place (``swap_register``, ``widen_scale``, ``drop_op``,
  ``fuse_illegal``) — each is constructed to violate an invariant the plan
  verifier *proves*, so a silent miss means the static verifier has a hole;
* **server** injectors perturb a running :class:`repro.server.Server`
  (``fail_exec``, ``stall_exec``, ``delay_clock``);
* **fleet** injectors crash or partition one replica of a running
  :class:`repro.fleet.Fleet` (``kill_replica``, ``partition_replica``) —
  the router must eject the victim and reroute its requests;
* **sdc** injectors corrupt a replica's *live in-memory* state
  (``flip_live_weights``, ``flip_arena``, ``corrupt_golden``) — faults no
  at-rest gate can see; the runtime SDC defense (ABFT, memory scrubbing,
  golden-vector probes) must quarantine the victim.

``corrupt_header`` is deliberately the nastiest case: it rewrites one
tensor's qint header inside the manifest *and* re-signs the manifest
digest, so every byte-level check passes and only the semantic
header-vs-payload validation in :func:`repro.export.qint.validate_header`
can catch it.
"""
from __future__ import annotations

import json
import os
import threading
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np


# ---------------------------------------------------------------- utilities
class NotApplicable(Exception):
    """The fault cannot exist on this target; the message says why.  The
    chaos run scores the row as not applicable instead of injecting it."""


def _artifact_files(export_dir: str) -> List[str]:
    """Sorted container files (manifest excluded) — the corruption targets."""
    return [n for n in sorted(os.listdir(export_dir))
            if n != "manifest.json"
            and os.path.isfile(os.path.join(export_dir, n))]


def _pick(rng: np.random.Generator, items: List):
    if not items:
        raise ValueError("chaos injector has nothing to target")
    return items[int(rng.integers(len(items)))]


def _read_manifest(export_dir: str) -> Dict:
    with open(os.path.join(export_dir, "manifest.json")) as f:
        return json.load(f)


def _write_manifest(export_dir: str, manifest: Dict) -> None:
    with open(os.path.join(export_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)


# --------------------------------------------------------- artifact faults
def flip_bits(export_dir: str, rng: np.random.Generator,
              n_bits: int = 8) -> Dict:
    """Flip ``n_bits`` distinct bits of one seeded-chosen artifact file."""
    fname = _pick(rng, _artifact_files(export_dir))
    path = os.path.join(export_dir, fname)
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if not data:
        raise ValueError(f"cannot flip bits of empty file {fname}")
    n = min(n_bits, len(data) * 8)
    positions = rng.choice(len(data) * 8, size=n, replace=False)
    for pos in positions:
        data[int(pos) // 8] ^= 1 << (int(pos) % 8)
    with open(path, "wb") as f:
        f.write(bytes(data))
    return {"file": fname, "bits_flipped": sorted(int(p) for p in positions)}


def truncate_file(export_dir: str, rng: np.random.Generator,
                  keep_fraction: float = 0.5) -> Dict:
    """Cut one seeded-chosen artifact file short (crash-mid-write shape)."""
    fname = _pick(rng, _artifact_files(export_dir))
    path = os.path.join(export_dir, fname)
    size = os.path.getsize(path)
    keep = int(size * keep_fraction)
    if keep >= size:
        keep = max(0, size - 1)
    with open(path, "r+b") as f:
        f.truncate(keep)
    return {"file": fname, "bytes_before": size, "bytes_after": keep}


#: header mutations corrupt_header draws from (name -> header edit)
_HEADER_MUTATIONS = (
    ("grow_shape", lambda h: h.__setitem__(
        "shape", [int(h["shape"][0]) + 1] + [int(s) for s in h["shape"][1:]]
        if h["shape"] else [2])),
    ("shrink_container", lambda h: h.__setitem__("stored_bits", 12)),
    ("narrow_bits", lambda h: h.__setitem__("bits", 1)),
    ("byteorder", lambda h: h.__setitem__("byteorder", "big")),
    ("drop_shape", lambda h: h.pop("shape")),
)


def corrupt_header(export_dir: str, rng: np.random.Generator) -> Dict:
    """Rewrite one tensor's qint header (it lives in the manifest) to
    contradict its payload, and re-sign the manifest digest, so only
    semantic header validation can reject it.  An export without the qint
    format has no header: :class:`NotApplicable`."""
    from repro.export.integrity import manifest_digest

    manifest = _read_manifest(export_dir)
    names = [n for n, e in sorted(manifest["tensors"].items())
             if "qint" in e.get("files", {})]
    if not names:
        raise NotApplicable("the export has no qint slice: no qint header "
                            "to corrupt")
    name = _pick(rng, names)
    mutation, apply = _HEADER_MUTATIONS[
        int(rng.integers(len(_HEADER_MUTATIONS)))]
    apply(manifest["tensors"][name]["files"]["qint"]["header"])
    manifest["digest"] = manifest_digest(manifest)
    _write_manifest(export_dir, manifest)
    return {"tensor": name, "mutation": mutation}


#: manifest mutations stale_manifest draws from (digest NOT re-signed)
def _mut_bits(m, rng):
    name = _pick(rng, [n for n, e in m["tensors"].items() if e.get("integer")]
                 or list(m["tensors"]))
    m["tensors"][name]["bits"] = int(m["tensors"][name].get("bits", 8)) + 4
    return {"tensor": name, "edit": "bits"}


def _mut_checksum(m, rng):
    fname = _pick(rng, sorted(m.get("checksums", {})))
    sha = m["checksums"][fname]["sha256"]
    m["checksums"][fname]["sha256"] = ("0" if sha[0] != "0" else "1") + sha[1:]
    return {"file": fname, "edit": "checksum"}


def _mut_drop_digest(m, rng):
    m.pop("digest", None)
    return {"edit": "drop_digest"}


def _mut_schema(m, rng):
    m["schema"] = 1
    return {"edit": "schema_downgrade"}


_MANIFEST_MUTATIONS = (_mut_bits, _mut_checksum, _mut_drop_digest, _mut_schema)


def stale_manifest(export_dir: str, rng: np.random.Generator) -> Dict:
    """Edit the manifest after the fact without re-signing its digest —
    the tampered/stale-bookkeeping failure mode."""
    manifest = _read_manifest(export_dir)
    mut = _MANIFEST_MUTATIONS[int(rng.integers(len(_MANIFEST_MUTATIONS)))]
    details = mut(manifest, rng)
    _write_manifest(export_dir, manifest)
    return details


# ----------------------------------------------------------- server faults
def _hook_runner(server, model: str, hook: Callable) -> Callable[[], None]:
    """Route ``model``'s active runner through ``hook(runner, batch)`` —
    the plan call every lane executor makes — and return the undo."""
    entry = server.registry.get(model)
    runner = entry.runner
    entry.runner = lambda batch: hook(runner, batch)

    def undo():
        entry.runner = runner

    return undo


def fail_exec(server, model: str, rng: np.random.Generator) -> Dict:
    """Make the lane's next plan call raise, once: whichever executor runs
    the next batch gets a ``RuntimeError`` instead of logits."""
    armed = {"fault": True}

    def hook(runner, batch):
        if armed.pop("fault", False):   # dict.pop is atomic: exactly once
            raise RuntimeError("chaos: injected executor fault")
        return runner(batch)

    return {"undo": _hook_runner(server, model, hook)}


def stall_exec(server, model: str, rng: np.random.Generator,
               stall_s: float = 0.3) -> Dict:
    """Block one executor's next plan call for ``stall_s`` seconds (the
    undo releases it early).  ``stalled`` is set once the stall begins."""
    armed = {"fault": True}
    stalled, release = threading.Event(), threading.Event()

    def hook(runner, batch):
        if armed.pop("fault", False):
            stalled.set()
            release.wait(stall_s)
        return runner(batch)

    unhook = _hook_runner(server, model, hook)

    def undo():
        release.set()
        unhook()

    return {"stall_s": stall_s, "undo": undo, "stalled": stalled}


def delay_clock(server, model: str, rng: np.random.Generator,
                skew_s: float = 0.5) -> Dict:
    """Skew the lane's service-time clock: inflate the EWMA batch-time
    estimate by ``skew_s`` as if every batch suddenly took that much longer.
    Deadline-aware admission must respond by *shedding* (typed
    :class:`~repro.server.types.Overloaded`) requests whose deadline the
    skewed projection can no longer meet — never by silently missing
    deadlines.  Returns an ``undo`` that restores the estimate."""
    lane = server._lanes.get(model)
    if lane is None:
        raise ValueError(f"delay_clock: lane for {model!r} not started yet "
                         f"(submit one request first)")
    with lane.cond:   # the lock the lane's EWMA updates hold
        original = lane.est_batch_s
        lane.est_batch_s = original + skew_s

    def undo():
        with lane.cond:
            lane.est_batch_s = original

    return {"skew_s": skew_s, "undo": undo}


# ------------------------------------------------------------- plan faults
def _invalidate(plan) -> None:
    """Drop caches a mutation makes stale (bindings, verification report)."""
    plan.drop_bindings()
    plan._verification = None


def swap_register(plan, rng: np.random.Generator) -> Dict:
    """Rewire one op's source to a register defined *later* in the program.

    A miswired fusion/buffer-sharing pass in its most detectable form: the
    read observes garbage (or a stale slot) at run time, and statically it
    is a use-before-def the dataflow pass must flag as ``plan.dead-read``.
    """
    candidates = [(i, op) for i, op in enumerate(plan.ops) if op.src]
    i, op = _pick(rng, candidates)
    later = [o.dst for o in plan.ops[i:]]  # >= i: op's own dst qualifies too
    slot = int(rng.integers(len(op.src)))
    old = op.src[slot]
    new = _pick(rng, [d for d in later if d != old] or later)
    src = list(op.src)
    src[slot] = int(new)
    op.src = tuple(src)
    _invalidate(plan)
    return {"op": i, "name": op.name, "slot": slot,
            "old_reg": int(old), "new_reg": int(new)}


def widen_scale(plan, rng: np.random.Generator,) -> Dict:
    """Multiply one requant's scale (and clamp grid) by 16-128x.

    Models a post-compile parameter patch that silently widens an
    activation range: the register range and every downstream accumulator
    bound the compiler certified are now stale, which the verifier's
    interval re-propagation must catch as ``plan.accum-overflow``.
    """
    fed = {op.src[0] for op in plan.ops
           if op.kind == "conv_mq" and op.src}
    convs = [(i, op) for i, op in enumerate(plan.ops)
             if op.kind == "conv_mq" and op.dst in fed]
    if not convs:  # no conv->conv edge (the ViT, tiny test plans): any mq op
        convs = [(i, op) for i, op in enumerate(plan.ops)
                 if getattr(op, "mq", None) is not None]
    i, op = _pick(rng, convs)
    factor = float(2 ** int(rng.integers(4, 8)))
    op.mq.m = op.mq.m * factor
    op.mq.lo = op.mq.lo * factor
    op.mq.hi = op.mq.hi * factor
    _invalidate(plan)
    return {"op": i, "name": op.name, "factor": factor}


def drop_op(plan, rng: np.random.Generator) -> Dict:
    """Delete one op whose result is still consumed downstream.

    The over-eager dead-code-elimination failure: a later op (or the
    program output) reads a register that is now never written —
    ``plan.dead-read`` by construction.
    """
    consumed = {s for op in plan.ops for s in op.src} | {plan.output_reg}
    candidates = [i for i, op in enumerate(plan.ops) if op.dst in consumed]
    i = _pick(rng, candidates)
    op = plan.ops.pop(i)
    _invalidate(plan)
    return {"op": i, "name": op.name, "op_kind": op.kind, "dst": int(op.dst)}


def fuse_illegal(plan, rng: np.random.Generator) -> Dict:
    """Replace one conv with a fused conv+residual whose shortcut operand is
    a register defined *after* the op — the broken-fusion-pass failure mode.

    A legal fusion only ever merges a residual whose operands already exist
    at the fusion site; an illegal one (wrong legality oracle, off-by-one in
    the liveness query) manifests exactly like this: the fused op reads a
    forward register.  Structurally a use-before-def, so the dataflow pass
    must flag it as ``plan.dead-read`` — with no input shape needed.
    """
    from repro.runtime.program import ConvMQOp, ConvMQResOp

    convs = [(i, op) for i, op in enumerate(plan.ops)
             if isinstance(op, ConvMQOp)]
    if not convs:
        raise ValueError("fuse_illegal needs a conv_mq op in the plan")
    i, conv = _pick(rng, convs)
    shortcut = int(plan.ops[-1].dst)  # defined at the end — always forward
    fused = ConvMQResOp(
        conv.name, (conv.src[0], shortcut), conv.dst, conv.weight,
        conv.stride, conv.padding, conv.groups, conv.mq, conv.bound,
        res_scale=1.0, res_lo=conv.mq.lo, res_hi=conv.mq.hi,
        res_name=f"{conv.name}.illegal_residual", native=conv.native)
    plan.ops[i] = fused
    _invalidate(plan)
    return {"op": i, "name": conv.name, "shortcut_reg": shortcut}


# ------------------------------------------------------------ fleet faults
def _victim(fleet, model: str, rng: np.random.Generator, injector: str):
    """Seeded-chosen READY replica of ``model``, leaving a survivor."""
    from repro.fleet.replica import READY

    ready = sorted((r for r in fleet.replicas(model)
                    if r.state == READY and not r.partitioned),
                   key=lambda r: r.replica_id)
    if len(ready) < 2:
        raise ValueError(f"{injector}: need >= 2 ready replicas of "
                         f"{model!r} to leave a survivor (have {len(ready)})")
    return _pick(rng, ready)


def kill_replica(fleet, model: str, rng: np.random.Generator) -> Dict:
    """Kill one seeded-chosen READY replica of ``model``'s group outright.

    The in-process stand-in for SIGKILL of a whole gateway process: every
    request queued or in flight on the victim resolves as a retryable
    :class:`~repro.server.types.Failed` and the fleet must requeue them on
    surviving replicas (zero lost), eject the victim from the ring within
    one health interval, and self-heal back to the target replica count.
    """
    victim = _victim(fleet, model, rng, "kill_replica")
    pending_before = victim.pending_count()
    victim.kill()
    return {"replica": victim.replica_id,
            "pending_at_kill": pending_before}


def partition_replica(fleet, model: str, rng: np.random.Generator) -> Dict:
    """Make one seeded-chosen READY replica unreachable without killing it
    (a network partition); the partition heals once the fault is scored.

    The fleet must eject the partitioned replica and reroute its keys —
    but *not* replace it (it is alive behind the partition); after the
    heal, the health loop re-admits it to the ring.  The heal waits for
    the scoring, not a clock: on a loaded host the scorer can first look
    after any fixed delay, by when the replica would already be back.
    """
    victim = _victim(fleet, model, rng, "partition_replica")
    victim.partition()
    return {"replica": victim.replica_id, "undo": victim.heal}


# -------------------------------------------------- silent-data-corruption
def flip_live_weights(fleet, model: str, rng: np.random.Generator,
                      delta: float = 8.0) -> Dict:
    """Corrupt one element of a victim replica's *live* packed weights.

    The in-memory bit-flip failure mode: the packed int8 words the
    integer conv kernel reads share memory with ``op.weight``, so the
    perturbation changes what the replica actually serves from the next
    batch on — no artifact, manifest or registry gate ever sees it.  Only
    the runtime defenses can: the scrubber's CRC baseline no longer
    matches, sampled ABFT checksum equality breaks, and golden-vector
    replays diverge.
    """
    victim = _victim(fleet, model, rng, "flip_live_weights")
    plan = victim.registry.get(model).plan
    convs = [(i, op) for i, op in enumerate(plan.ops)
             if isinstance(getattr(op, "weight", None), np.ndarray)]
    i, op = _pick(rng, convs)
    w = op.weight
    idx = int(rng.integers(w.size))
    old = float(w.flat[idx])
    if (np.issubdtype(w.dtype, np.integer)
            and old + delta > np.iinfo(w.dtype).max):
        delta = -delta  # a packed int8 weight cannot hold old + delta
    w.flat[idx] = old + delta
    return {"replica": victim.replica_id, "op": i, "name": op.name,
            "element": idx, "delta": delta}


def flip_arena(fleet, model: str, rng: np.random.Generator) -> Dict:
    """Write a non-zero word into a victim's arena guard border.

    The arena zeroes each padded border once and the conv kernels
    rely on it staying zero — a flipped guard word silently feeds a wrong
    tap to every edge pixel.  Needs live traffic first (bindings are
    lazy); the memory scrubber's guard sweep is the detection layer.  A
    plan with no padded register (no conv pads its input: the ViT) has
    no guard border, and the fault is :class:`NotApplicable`.
    """
    victim = _victim(fleet, model, rng, "flip_arena")
    plan = victim.registry.get(model).plan
    bindings = plan.live_bindings()
    if not bindings:
        raise ValueError("flip_arena: no live arena bindings on "
                         f"{victim.replica_id} (drive traffic first)")
    targets = [(binding, reg) for binding in bindings
               for reg in sorted(binding.arena._cm_bufs)
               if binding.arena.pads.get(reg, 0) > 0]
    if not targets:
        raise NotApplicable(f"{model}'s plan pads no register: it has no "
                            "guard border to corrupt")
    binding, reg = _pick(rng, targets)
    binding.arena._cm_bufs[reg][0, 0, 0, 0] = float(int(rng.integers(1, 128)))
    return {"replica": victim.replica_id, "binding": list(binding.shape),
            "register": int(reg)}


def corrupt_golden(fleet, model: str, rng: np.random.Generator,
                   delta: float = 1.0) -> Dict:
    """Tamper one output element of a victim's recorded golden vectors.

    Models corruption of the *reference* data rather than the serving
    path: the replica still computes correctly, but its self-test
    baseline lies.  The defense cannot tell which side rotted — golden
    divergence is SDC by definition and the conservative response is the
    same quarantine (the replacement replica re-materializes both plan
    and goldens from the fleet's source of truth).
    """
    victim = _victim(fleet, model, rng, "corrupt_golden")
    entry = victim.registry.get(model)
    golden = getattr(entry.deployed, "golden", None)
    if golden is None or len(golden.outputs) == 0:
        raise ValueError(f"corrupt_golden: {victim.replica_id} has no "
                         "recorded golden vectors")
    vec = int(rng.integers(len(golden.outputs)))
    out = golden.outputs[vec]
    idx = int(rng.integers(out.size))
    out.flat[idx] += delta
    return {"replica": victim.replica_id, "vector": vec, "element": idx,
            "delta": delta}


# ----------------------------------------------------------------- catalog
#: target kinds, in the order ``repro.cli chaos`` runs them
KINDS = ("artifact", "plan", "server", "fleet", "sdc")


class Row(NamedTuple):
    """One catalog row: the ``kind`` of target the injector damages, the
    ``inject`` function, and the defence ``layers`` that must each catch
    the fault for it to count as detected."""

    kind: str
    inject: Callable[..., Dict]
    layers: Tuple[str, ...]


_AT_REST = ("verify", "load", "registry")
_VERIFIED = ("verifier", "registry")
_CRASH = ("requeued", "ejected", "rerouted")
# SDC is detected on the fly and answered by quarantine-and-replace, where
# a crash or partition is answered by reroute-and-heal
_SDC = ("flagged", "quarantined", "no_loss")

#: name -> Row, every fault ChaosPlan can schedule; within a kind, rows run
#: in this order
CATALOG: Dict[str, Row] = {
    "flip_bits": Row("artifact", flip_bits, _AT_REST),
    "truncate_file": Row("artifact", truncate_file, _AT_REST),
    "corrupt_header": Row("artifact", corrupt_header, _AT_REST),
    "stale_manifest": Row("artifact", stale_manifest, _AT_REST),
    "swap_register": Row("plan", swap_register, _VERIFIED),
    "widen_scale": Row("plan", widen_scale, _VERIFIED),
    "drop_op": Row("plan", drop_op, _VERIFIED),
    "fuse_illegal": Row("plan", fuse_illegal, _VERIFIED),
    "fail_exec": Row("server", fail_exec,
                     ("typed_failure", "flight_recorder", "next_ok")),
    "stall_exec": Row("server", stall_exec, ("liveness",)),
    "delay_clock": Row("server", delay_clock, ("admission",)),
    "kill_replica": Row("fleet", kill_replica, _CRASH),
    "partition_replica": Row("fleet", partition_replica,
                             _CRASH + ("not_replaced",)),
    "flip_live_weights": Row("sdc", flip_live_weights, _SDC),
    "flip_arena": Row("sdc", flip_arena, _SDC),
    "corrupt_golden": Row("sdc", corrupt_golden, _SDC),
}
