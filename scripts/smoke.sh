#!/usr/bin/env bash
# Smoke check: tier-1 test suite + an end-to-end drive of every subsystem's
# CLI + the benchmark harness self-test + a compile check of every example.
# Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests (benchmarks excluded via marker/testpaths) =="
python -m pytest -q -m "not benchmark" --durations=15

echo "== end-to-end inspect run (telemetry subsystem) =="
TEL_DIR="$(mktemp -d)"
trap 'rm -rf "$TEL_DIR"' EXIT
python -m repro.cli inspect --model resnet20 --epochs 1 \
    --train-size 300 --test-size 100 --calib-batches 2 \
    --telemetry-out "$TEL_DIR"
for f in manifest.json trace.json trace.txt events.jsonl metrics.json \
         saturation.json layer_report.json report.txt; do
    test -s "$TEL_DIR/$f" || { echo "missing telemetry output: $f"; exit 1; }
done
python - "$TEL_DIR" <<'EOF'
# the session trace is rendered from the one span-record model
import json, os, sys
events = json.load(open(os.path.join(sys.argv[1], "trace.json")))["traceEvents"]
assert events, "empty session trace"
bare = [e["name"] for e in events
        if not {"trace_id", "span_id"} <= set(e["args"])]
assert not bare, f"trace.json events without span-record ids: {bare[:5]}"
print(f"session trace OK: {len(events)} span records")
EOF

echo "== static verification (repro.lint) =="
python -m repro.cli lint --purity
python -m repro.cli lint --model vgg8 --train-size 256 --test-size 64 \
    --calib-batches 1

echo "== plan-IR verification (liveness / aliasing / overflow proofs) =="
python -m repro.cli lint --model resnet20 --plan --repacked \
    --train-size 256 --test-size 64 --calib-batches 1
python - <<'EOF'
# every model in the registry must compile to a plan that proves clean:
# dataflow liveness, no-alias, overflow safety, shift certificates
import numpy as np
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import MODELS, build_model

KWARGS = {"resnet20": dict(width=8), "resnet18": dict(width=8),
          "resnet50": dict(width=8), "mobilenet-v1": dict(width_mult=0.5),
          "vgg8": dict(width_mult=0.5), "vit-7": dict(embed_dim=64)}
for name in MODELS:
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model(name, num_classes=10, **KWARGS[name]),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32) for _ in range(2)])
    d = deploy(qm, DeploySpec())
    rep = d.plan.verify(input_shape=(3, 32, 32))
    assert rep.ok, f"{name}: plan verification failed\n{rep.render()}"
    print(f"plan verify OK: {name:<12} {rep.num_ops:>3} ops, "
          f"{len(rep.rows):>2} accumulator rows, "
          f"max {rep.min_accum_bits() and max(rep.min_accum_bits().values())}"
          f"-bit accumulators")
EOF

echo "== compiled runtime (plan vs interpreted tree) =="
# includes tests/runtime/test_ckernel.py, which builds the portable
# (non-VNNI) kernel body and runs registry plans on it bit-exact
python -m pytest tests/runtime -q -m runtime

echo "== thread counts (compiled plan at 1 and 4 threads vs the tree) =="
python - <<'EOF'
# every registry model, plus resnet18 at the paper's width (64; 7 of its
# convs have accumulator bounds past 2^24): the compiled plan must be
# bitwise the interpreted tree at 1 and at 4 kernel threads, run every conv
# natively when a kernel body is loaded, and carry an ABFT row per conv;
# the token epilogues (requant / LUT softmax / LUT GELU / residual on plain
# (N, ...) registers) must bind native too — vit-7 binding none while the
# kernel is loaded fails the stage
import numpy as np
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import MODELS, build_model
from repro.runtime import CompileSpec, Plan, ckernel
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

ck = ckernel.load()
body = ck.isa if ck else "none"
print(f"native kernel body: {body}")
KWARGS = {"resnet20": dict(width=8), "resnet18": dict(width=8),
          "resnet50": dict(width=8), "mobilenet-v1": dict(width_mult=0.5),
          "vgg8": dict(width_mult=0.5), "vit-7": dict(embed_dim=64)}
CASES = [(name, name, KWARGS[name], 2) for name in MODELS]
CASES.append(("resnet18@64", "resnet18", dict(width=64), 1))
for label, name, kwargs, batches in CASES:
    rng = np.random.default_rng(0)
    qm = quantize_model(build_model(name, num_classes=10, **kwargs),
                        QConfig(8, 8))
    calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32))
                         .astype(np.float32) for _ in range(batches)])
    d = deploy(qm, DeploySpec(runtime="none"))
    x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    with no_grad():
        ref = d.qnn(Tensor(x)).data
    for threads in (1, 4):
        plan = Plan.compile(d.qnn, CompileSpec(threads=threads))
        assert np.array_equal(plan(x), ref), (
            f"{label}: plan at {threads} thread(s) diverges from the tree")
    rep = plan.verify(input_shape=(3, 32, 32))
    assert rep.ok, f"{label}: plan verification failed\n{rep.render()}"
    convs = [i for i, op in enumerate(plan.ops) if hasattr(op, "native")]
    native = sum(plan.ops[i].native for i in convs)
    assert ck is None or native == len(convs), (
        f"{label}: {native}/{len(convs)} convs native with the {body} body")
    assert sorted(plan._abft_rows) == convs, (
        f"{label}: ABFT skipped {plan._abft_skipped}")
    binding = plan.live_bindings()[-1]
    token = [i for i, op in enumerate(plan.ops)
             if len(binding.arena.shapes[op.dst]) != 3
             and op.kind not in ("tokens", "call_module")]
    tok_native = sum(binding.native[i] for i in token)
    assert ck is None or label != "vit-7" or tok_native > 0, (
        f"vit-7: no token epilogue bound native with the {body} body")
    print(f"threads OK: {label:<12} {body:<8} body, {native:>2}/{len(convs)} "
          f"convs native, {tok_native:>2}/{len(token)} token epilogues "
          f"native, all under ABFT, "
          f"{plan.fusion_stats['fused']:>2} chain(s) fused, bit-exact at "
          f"1 and 4 threads, verify clean")
EOF

echo "== online serving gateway (repro.server) =="
python -m pytest tests/server -q -m server
# exits 1 on any shed / failed / not-bit-exact answer
python -m repro.cli serve --model resnet20 --train-size 256 \
    --test-size 64 --requests 200 --max-batch 8 --deadline-ms 500 \
    --threads 4 --obs-dir "$TEL_DIR/obs"
python - <<'EOF'
# work-conserving batcher: a lone request on an idle lane is dispatched at
# once, never held back for company (a linger timer creeping back fails here)
import numpy as np
from repro.server import ModelRegistry, Server

class EchoPlan:
    out_features = 4
    def __call__(self, x):
        return x.reshape(x.shape[0], -1)[:, :4]

reg = ModelRegistry()
reg.register("echo", "1", runner=EchoPlan())
with Server(reg, max_batch=16, workers=0) as srv:
    waits = [srv.submit("echo", np.zeros((8,), np.float32))
             .result(timeout=10).queue_wait_s for _ in range(9)]
wait_ms = float(np.median(waits)) * 1e3
assert wait_ms < 5.0, f"idle lane held a lone request {wait_ms:.2f} ms"
print(f"batcher OK: lone request on an idle lane waited {wait_ms:.3f} ms")
EOF

echo "== gateway executors (two threads over one real plan) =="
python - <<'EOF'
# a lane with workers=2 runs two executor threads over the resnet20 plan:
# 200 requests from a closed loop of 32 outstanding, every answer bitwise
# the interpreted tree's, and status() counts both executors alive
import numpy as np
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
from repro.server import ModelRegistry, Server
from repro.tensor import no_grad
from repro.tensor.tensor import Tensor

rng = np.random.default_rng(0)
qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                    QConfig(8, 8))
calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
                     for _ in range(2)])
d = deploy(qm, DeploySpec())
samples = rng.standard_normal((50, 3, 32, 32)).astype(np.float32)
with no_grad():
    refs = d.qnn(Tensor(samples)).data
reg = ModelRegistry()
reg.register("resnet20", "1", d)
exact = 0
with Server(reg, max_batch=8, workers=2, default_deadline_s=30.0) as srv:
    pending = []
    for n in range(200):
        if len(pending) >= 32:
            i, p = pending.pop(0)
            r = p.result(timeout=60)
            exact += bool(r.ok and np.array_equal(r.logits, refs[i]))
        pending.append((n % 50, srv.submit("resnet20", samples[n % 50])))
    for i, p in pending:
        r = p.result(timeout=60)
        exact += bool(r.ok and np.array_equal(r.logits, refs[i]))
    executors = srv.status()["models"]["resnet20"]["executors"]
assert exact == 200, f"only {exact}/200 answers bit-exact"
assert executors == 2, f"status() reports {executors} executors"
print(f"executors OK: 200/200 bit-exact on {executors} executor threads")
EOF

echo "== live observability (tracing / SLO surface / flight recorder) =="
python - "$TEL_DIR" <<'EOF'
# the serve --obs-dir run above left the full observability surface on disk:
# status snapshot, Prometheus exposition, span records, profile report.
import json, sys, os
from repro.telemetry import obs, tracing
d = os.path.join(sys.argv[1], "obs")
status = json.load(open(os.path.join(d, "status.json")))
m = status["models"]["resnet20"]
assert status["tracing"] is True
assert m["cumulative"]["ok"] == 200, m["cumulative"]
assert m["window"]["slo"]["target"] == 0.99
parsed = obs.parse_prometheus(open(os.path.join(d, "metrics.prom")).read())
ok = {lab["model"]: v for lab, v in parsed["server_window_ok"]}
assert ok.get("resnet20", 0.0) > 0, parsed.keys()
# one count behind every view: the exposition's cumulative series agree
# with status.json whatever the telemetry switch
served = {lab["status"]: v for lab, v in parsed["server_requests_total"]
          if lab["model"] == "resnet20"}
answered = {lab["model"]: v for lab, v in
            parsed["server_request_latency_seconds_count"]}
assert served.get("ok") == answered.get("resnet20") \
    == m["cumulative"]["ok"] == 200, (served, answered)
records = tracing.load_jsonl(os.path.join(d, "traces.jsonl"))
assert records, "no span records from traced serve run"
tid = records[0]["trace_id"]
roots, orphans = tracing.build_tree([r for r in records
                                     if r["trace_id"] == tid])
assert len(roots) == 1 and not orphans, "span tree disconnected"
prof = json.load(open(os.path.join(d, "profile.json")))
assert prof["sampled_batches"] > 0
assert prof["attributed_fraction"] >= 0.90, prof["attributed_fraction"]
print(f"obs surface OK: {len(records)} spans, trace {tid} connected, "
      f"profile attributes {prof['attributed_fraction']:.1%} of plan wall")
EOF
python -m repro.cli top "$TEL_DIR/obs" --once > /dev/null
TRACE_ID="$(python -c "
import json,sys
print(json.loads(open('$TEL_DIR/obs/traces.jsonl').readline())['trace_id'])")"
python -m repro.cli trace "$TRACE_ID" --traces "$TEL_DIR/obs/traces.jsonl" \
    > /dev/null
python - "$TEL_DIR" <<'EOF'
# a forced deadline miss must auto-dump the flight recorder
import os, sys, time
import numpy as np
from repro.server import ModelRegistry, Server

class SlowPlan:
    out_features = 4
    def __call__(self, x):
        time.sleep(0.05)
        return np.zeros((x.shape[0], 4), dtype=np.float32)

dump_dir = os.path.join(sys.argv[1], "flight")
reg = ModelRegistry()
reg.register("slow", "1", runner=SlowPlan())
srv = Server(reg, max_batch=4, workers=0, default_deadline_s=0.01,
             exec_time_init_s=0.0001, tracing=True, dump_dir=dump_dir)
with srv:
    for p in [srv.submit("slow", np.zeros((8,), dtype=np.float32))
              for _ in range(4)]:
        p.result(timeout=30)
last = srv._lanes["slow"].flight.last_dump   # post-close: lane quiesced
assert last is not None and last["reason"] == "deadline_miss", last
assert os.path.exists(last["path"]), last
print(f"flight recorder OK: deadline miss auto-dumped to {last['path']}")
EOF

echo "== artifact integrity + chaos harness (repro.export / repro.chaos) =="
python -m pytest tests/chaos -q -m chaos
python - "$TEL_DIR" <<'EOF'
# fresh all-formats export through the deploy pipeline: the plan is
# compiled, so the proof and the golden set are signed into the manifest
# before the export audit runs
import json, sys, os, numpy as np
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.core.t2c import calibrate_model
from repro.models import build_model
rng = np.random.default_rng(0)
qm = quantize_model(build_model("resnet20", num_classes=10, width=8),
                    QConfig(8, 8))
calibrate_model(qm, [rng.standard_normal((4, 3, 32, 32)).astype(np.float32)])
out = os.path.join(sys.argv[1], "artifacts")
d = deploy(qm, DeploySpec(export_dir=out,
                          formats=("dec", "hex", "bin", "qint")))
assert d.integrity is not None and d.integrity.ok
assert d.plan_verification.ok and d.golden is not None
with open(os.path.join(out, "manifest.json")) as f:
    on_disk = json.load(f)
for manifest in (d.manifest, on_disk):
    assert {"plan_verification", "golden"} <= set(manifest), sorted(manifest)
print("amended manifest OK: plan proof + golden set signed in")
# one container per format + the manifest, and one layer read through
# the container index matches the qint decode
from repro.export import read_tensor
files = sorted(os.listdir(out))
assert len(files) <= 6, files
np.testing.assert_array_equal(read_tensor(out, "stem.conv.weight", "hex"),
                              read_tensor(out, "stem.conv.weight", "qint"))
print(f"container layout OK: {len(files)} files, stem.conv.weight hex == qint")
EOF
python -m repro.cli verify-artifacts "$TEL_DIR/artifacts"
python -m repro.cli chaos --dir "$TEL_DIR/artifacts" --seed 2024 --json \
    > "$TEL_DIR/chaos.json"
python - "$TEL_DIR" <<'EOF'
import json, sys, os
rep = json.load(open(os.path.join(sys.argv[1], "chaos.json")))
s = rep["summary"]
assert s["missed"] == 0, f"undetected faults in chaos run: {rep}"
assert s["detected"] == s["injected"] >= 4
print(f"chaos smoke OK: {s['injected']} injected, {s['detected']} detected, "
      f"0 missed")
EOF
python -m repro.cli chaos --model resnet20 --train-size 256 --test-size 64 \
    --calib-batches 1 --seed 7 --json > "$TEL_DIR/chaos_plan.json"
python - "$TEL_DIR" <<'EOF'
# the fresh-build run also mutates the compiled plan; the static verifier
# and registry gate must refuse every mutant
import json, sys, os
rep = json.load(open(os.path.join(sys.argv[1], "chaos_plan.json")))
assert rep["summary"]["missed"] == 0, rep["summary"]
plan_faults = [f for f in rep["faults"]
               if f["injector"] in ("swap_register", "widen_scale", "drop_op",
                                    "fuse_illegal")]
assert len(plan_faults) == 4, [f["injector"] for f in rep["faults"]]
assert all(f["layers"].get("verifier") and f["layers"].get("registry")
           for f in plan_faults), plan_faults
print(f"plan chaos OK: {len(plan_faults)} IR mutations injected, "
      f"all refused by verifier and registry")
EOF

echo "== silent-data-corruption defense (repro.integrity) =="
python -m pytest tests/integrity -q -m sdc
python -m repro.cli chaos --model resnet20 --train-size 256 --test-size 64 \
    --calib-batches 1 --seed 11 --sdc --json > "$TEL_DIR/chaos_sdc.json"
python - "$TEL_DIR" <<'EOF'
# live-memory corruption against a defended 3-replica fleet: every fault
# must be flagged (ABFT / scrubber / golden probe), the victim quarantined
# and replaced, with zero lost requests
import json, sys, os
rep = json.load(open(os.path.join(sys.argv[1], "chaos_sdc.json")))
assert rep["summary"]["missed"] == 0, rep["summary"]
sdc = [f for f in rep["faults"]
       if f["injector"] in ("flip_live_weights", "flip_arena",
                            "corrupt_golden")]
assert len(sdc) == 3, [f["injector"] for f in rep["faults"]]
assert all(f["detected"] and f["recovered"] for f in sdc), sdc
print(f"sdc smoke OK: {len(sdc)} live-memory faults injected, all "
      f"quarantined and healed")
EOF

echo "== replicated serving fleet (repro.fleet) =="
python -m pytest tests/fleet -q -m fleet
# gateway faults, then replica kill + partition on a 3-replica fleet of the
# real model: ejected, rerouted with zero lost requests, healed (exit 2 on
# any missed fault)
python -m repro.cli chaos --model resnet20 --train-size 256 --test-size 64 \
    --calib-batches 1 --seed 5 --server --json > "$TEL_DIR/chaos_server.json"
python - "$TEL_DIR" <<'EOF'
# every server and fleet row of the catalog ran (a schedule reduced to
# delay_clock fails here) and each was detected and recovered, with every
# layer its row names true
import json, sys, os
from repro.chaos import CATALOG
rep = json.load(open(os.path.join(sys.argv[1], "chaos_server.json")))
live = [f for f in rep["faults"]
        if CATALOG[f["injector"]].kind in ("server", "fleet")]
want = {n for n, row in CATALOG.items() if row.kind in ("server", "fleet")}
assert want == {"fail_exec", "stall_exec", "delay_clock",
                "kill_replica", "partition_replica"}, want
assert {f["injector"] for f in live} == want, [f["injector"] for f in live]
for f in live:
    assert f["detected"] and f["recovered"], f
    assert f["layers"] == {k: True for k in CATALOG[f["injector"]].layers}, f
print(f"server+fleet chaos OK: {len(live)} live faults detected and "
      f"recovered on every expected layer")
EOF

echo "== benchmark harness self-test (benchmarks.e2e) =="
python3 -m benchmarks.e2e --selftest

echo "== compile-check examples =="
for f in examples/*.py; do
    python -m py_compile "$f"
done

echo "smoke OK"
