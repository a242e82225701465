"""Command-line interface for the compress-and-deploy workflow.

Usage (module form)::

    python -m repro.cli qat     --model resnet20 --wbit 4 --abit 4 --wq sawb --aq pact \
                                --epochs 5 --out ckpt.npz
    python -m repro.cli ptq     --model resnet20 --ckpt ckpt.npz --wbit 8 --abit 8
    python -m repro.cli export  --model resnet20 --ckpt ckpt.npz --wbit 4 --abit 4 \
                                --formats dec hex qint --out-dir deploy/
    python -m repro.cli inspect --model resnet20 --epochs 1 --telemetry-out telemetry_out/
    python -m repro.cli lint    --model vgg8 --wbit 8 --abit 8      # static verification
    python -m repro.cli lint    --purity                            # AST pass only, no model
    python -m repro.cli serve   --model resnet20 --obs-dir obs/     # online gateway drill
    python -m repro.cli top obs/ --once                             # read its status back

Everything runs on the synthetic datasets (``--dataset`` picks which); the
CLI exists so a hardware designer can drive the whole flow without writing
Python.  ``inspect`` runs the full compress→fuse→export flow under a
:class:`~repro.telemetry.report.TelemetrySession` and writes the Chrome
trace, the JSONL event log, the per-layer profile and the integer-datapath
saturation audit to disk.

``export``, ``lint``, ``inspect``, ``serve`` and ``chaos`` all translate
their flags into one :class:`~repro.core.DeploySpec`
(``DeploySpec.from_args``) and share :func:`_build_deployed_model`, so the
subcommands exercise the identical deploy pipeline.  ``serve`` stands the
online gateway (:mod:`repro.server`) up on the deployed model and checks
every answer bitwise against the interpreted integer model — a correctness
drill, not a benchmark: performance is refereed by
``python3 -m benchmarks.e2e`` (``benchmarks/e2e/README.md``) and nowhere else.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

import numpy as np

from repro import telemetry
from repro.core import DeploySpec, deploy
from repro.core.qconfig import QConfig
from repro.core.qmodels import quantize_model
from repro.data import make_dataset
from repro.data.transforms import standard_train_transform
from repro.models import MODELS, build_model
from repro.trainer import PTQTrainer, QATTrainer, Trainer, evaluate
from repro.utils import seed_everything
from repro.utils.checkpoint import load_checkpoint, save_checkpoint

MODEL_KWARGS = {
    "resnet20": dict(width=8), "resnet18": dict(width=8), "resnet50": dict(width=8),
    "mobilenet-v1": dict(width_mult=1.0), "vgg8": dict(width_mult=1.0),
    "vit-7": dict(embed_dim=64),
}


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=sorted(MODELS), default="resnet20")
    parser.add_argument("--dataset", default="synthetic-cifar10")
    parser.add_argument("--train-size", type=int, default=2000)
    parser.add_argument("--test-size", type=int, default=500)
    parser.add_argument("--noise", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--wbit", type=int, default=8)
    parser.add_argument("--abit", type=int, default=8)
    parser.add_argument("--wq", default="minmax_channel")
    parser.add_argument("--aq", default="minmax")


def _deploy_flags(parser: argparse.ArgumentParser, calib_batches: int = 4,
                  runtime: str = "none") -> None:
    """Flags shared by every subcommand that runs the deploy pipeline;
    ``DeploySpec.from_args`` translates them into the spec."""
    parser.add_argument("--calib-batches", type=int, default=calib_batches)
    parser.add_argument("--fusion", choices=("channel", "prefuse"),
                        default="channel")
    parser.add_argument("--float-scale", action="store_true")
    parser.set_defaults(runtime=runtime)
    # the one plan-compile setting -> CompileSpec.from_args
    parser.add_argument("--threads", type=int, default=None,
                        help="conv kernel thread count (0 = one per core)")


def _data(args):
    ds = make_dataset(args.dataset, noise=args.noise)
    n_cls = ds.num_classes
    train, test = ds.splits(args.train_size, args.test_size,
                            transform=standard_train_transform())
    return train, test, n_cls


def _model(args, num_classes):
    return build_model(args.model, num_classes=num_classes, **MODEL_KWARGS[args.model])


def _build_deployed_model(args, spec, model=None, data=None, before_deploy=None):
    """Shared deploy path for ``export``/``lint``/``inspect``/``serve``/``chaos``.

    Builds (or reuses) the float model, quantizes it with the common
    ``--wbit/--abit/--wq/--aq`` flags, loads ``--ckpt`` when given,
    calibrates on the training split, then hands the Q-model to
    :func:`repro.core.deploy` under ``spec``.  ``before_deploy`` runs on the
    calibrated Q-model right before conversion (``inspect`` instruments it
    there).  Returns ``(deployed, (train, test, num_classes))``.
    """
    from repro.core.t2c import calibrate_model

    train, test, n_cls = data if data is not None else _data(args)
    if model is None:
        model = _model(args, n_cls)
    qcfg = QConfig(args.wbit, args.abit, wq=args.wq, aq=args.aq)
    qm = quantize_model(model, qcfg)
    if getattr(args, "ckpt", None):
        load_checkpoint(qm, args.ckpt)
    # re-calibration is cheap and makes the checkpoint self-contained even if
    # it was saved before calibration
    calibrate_model(qm, [train.images[i * 64:(i + 1) * 64]
                         for i in range(args.calib_batches)])
    if before_deploy is not None:
        before_deploy(qm, train, test)
    return deploy(qm, spec), (train, test, n_cls)


def cmd_train(args) -> int:
    seed_everything(args.seed)
    train, test, n_cls = _data(args)
    model = _model(args, n_cls)
    Trainer(model, train, test, epochs=args.epochs, batch_size=args.batch_size,
            lr=args.lr, verbose=True).fit()
    acc = evaluate(model, test)
    save_checkpoint(model, args.out, accuracy=acc)
    print(f"fp32 accuracy {acc:.4f}; checkpoint -> {args.out}")
    return 0


def cmd_qat(args) -> int:
    seed_everything(args.seed)
    train, test, n_cls = _data(args)
    model = _model(args, n_cls)
    qcfg = QConfig(args.wbit, args.abit, wq=args.wq, aq=args.aq)
    trainer = QATTrainer(model, qcfg=qcfg, train_set=train, test_set=test,
                         epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, verbose=True)
    trainer.fit()
    acc = trainer.evaluate()
    save_checkpoint(trainer.qmodel, args.out, accuracy=acc)
    print(f"QAT W{args.wbit}/A{args.abit} accuracy {acc:.4f}; checkpoint -> {args.out}")
    return 0


def cmd_ptq(args) -> int:
    seed_everything(args.seed)
    train, test, n_cls = _data(args)
    model = _model(args, n_cls)
    load_checkpoint(model, args.ckpt)
    qcfg = QConfig(args.wbit, args.abit, wq=args.wq, aq=args.aq)
    qm = PTQTrainer(model, train, qcfg=qcfg, calib_batches=args.calib_batches,
                    batch_size=args.batch_size,
                    reconstruct=args.wq == "adaround").fit()
    acc = evaluate(qm, test)
    save_checkpoint(qm, args.out, accuracy=acc)
    print(f"PTQ W{args.wbit}/A{args.abit} accuracy {acc:.4f}; checkpoint -> {args.out}")
    return 0


def cmd_export(args) -> int:
    if getattr(args, "telemetry_out", None):
        with telemetry.TelemetrySession(out_dir=args.telemetry_out,
                                        label=f"export-{args.model}"):
            rc = _run_export(args)
        print(f"telemetry -> {args.telemetry_out}/manifest.json")
        return rc
    return _run_export(args)


def _run_export(args) -> int:
    seed_everything(args.seed)
    spec = DeploySpec.from_args(args)
    deployed, (_, test, _) = _build_deployed_model(args, spec)
    with telemetry.trace("evaluate_integer"):
        acc = evaluate(deployed.qnn, test)
    telemetry.emit("integer_accuracy", accuracy=acc)
    print(f"integer-only accuracy {acc:.4f}; exported -> {args.out_dir}/manifest.json")
    return 0


def cmd_inspect(args) -> int:
    """Run the full compress→fuse→export flow with telemetry on; write the
    trace, event log, per-layer profile and saturation audit to disk."""
    seed_everything(args.seed)
    out_dir = args.telemetry_out
    from repro.core.analysis import format_report, weight_quant_report
    from repro.core.profiling import profile_macs, summarize_profile
    from repro.tensor import no_grad
    from repro.tensor.tensor import Tensor

    with telemetry.TelemetrySession(out_dir=out_dir,
                                    label=f"inspect-{args.model}") as session:
        with telemetry.trace("inspect", model=args.model,
                             wbit=args.wbit, abit=args.abit):
            train, test, n_cls = _data(args)
            model = _model(args, n_cls)
            if args.epochs > 0:
                Trainer(model, train, test, epochs=args.epochs,
                        batch_size=args.batch_size, lr=args.lr,
                        verbose=True).fit()

            input_shape = tuple(train.images[0].shape)
            with telemetry.trace("profile_macs"):
                profile_rows = profile_macs(model, input_shape=input_shape)

            reports = {}

            def before_deploy(qm, train_, test_):
                reports["weight_rows"] = weight_quant_report(qm)
                # per-layer timing + activation stats over one batch
                with telemetry.trace("instrumented_eval"):
                    with telemetry.instrument(qm) as inst:
                        with no_grad():
                            qm.eval()
                            qm(Tensor(test_.images[:args.batch_size]))
                    reports["layer_rows"] = inst.report()

            # integer-only deploy path: this is where saturation counters fill
            spec = DeploySpec.from_args(args)
            deployed, _ = _build_deployed_model(
                args, spec, model=model, data=(train, test, n_cls),
                before_deploy=before_deploy)
            with telemetry.trace("evaluate_integer"):
                acc = evaluate(deployed.qnn, test)
            telemetry.emit("integer_accuracy", accuracy=acc)

        sat_rows = telemetry.saturation_report()
        _write_inspect_report(out_dir, profile_rows, reports["layer_rows"],
                              reports["weight_rows"], sat_rows,
                              summarize_profile(profile_rows), acc)

    print(f"integer-only accuracy {acc:.4f}")
    if sat_rows:
        worst = sat_rows[0]
        print(f"worst saturation: {worst['layer']} ({worst['kind']}) "
              f"{worst['clipped']}/{worst['total']} = {worst['rate']:.2%}")
    print(f"telemetry -> {out_dir}/ (manifest.json, trace.json, events.jsonl, "
          f"metrics.json, saturation.json, layer_report.json, report.txt)")
    return 0


def _write_inspect_report(out_dir, profile_rows, layer_rows, weight_rows,
                          sat_rows, summary, accuracy) -> None:
    from repro.core.analysis import format_report

    with open(os.path.join(out_dir, "layer_report.json"), "w") as f:
        json.dump({
            "summary": {**summary, "integer_accuracy": accuracy},
            "profile": profile_rows,
            "layers": layer_rows,
            "weight_quant": weight_rows,
            "saturation": sat_rows,
        }, f, indent=1, default=str)
    sections = [
        ("workload profile (MACs)", profile_rows),
        ("per-layer forward timing / activation stats", layer_rows),
        ("weight quantization", weight_rows),
        ("integer-datapath saturation audit", sat_rows),
    ]
    with open(os.path.join(out_dir, "report.txt"), "w") as f:
        f.write(f"integer-only accuracy: {accuracy:.4f}\n")
        for title, rows in sections:
            f.write(f"\n== {title} ==\n{format_report(rows)}\n")


def cmd_lint(args) -> int:
    """Static verification: interval engine + contracts (or --purity only).

    ``--plan`` additionally compiles the deploy model and runs the plan-IR
    verifier (dataflow/no-alias/overflow/shift proofs) over the program.
    Exit code 2 when any finding reaches the ``--fail-on`` threshold
    (default: ERROR), so CI can gate on it.
    """
    from repro.lint import lint_model, lint_sources

    plan_rep = None
    if args.purity:
        rep = lint_sources()
    else:
        seed_everything(args.seed)
        spec = DeploySpec.from_args(args)
        deployed, _ = _build_deployed_model(args, spec)
        target = deployed.qnn if args.repacked else deployed.fused
        rep = lint_model(target, accum_bits=args.accum_bits)
        if args.plan:
            # compiled here rather than by deploy(), which raises on a
            # failed proof: the CLI reports violations instead
            from repro.runtime import Plan

            plan = Plan.compile(deployed.qnn, spec.compile)
            plan_rep = plan.verify(accum_bits=args.accum_bits,
                                   module_bits=rep.min_accum_bits())
    fail_on = getattr(args, "fail_on", "error")
    if args.json:
        out = rep.to_json()
        if plan_rep is not None:
            out["plan"] = plan_rep.to_json()
        print(json.dumps(out, indent=1))
    else:
        print(rep.render())
        if plan_rep is not None:
            print()
            print(plan_rep.render())
    failed = rep.exceeds(fail_on) or (
        plan_rep is not None and plan_rep.exceeds(fail_on))
    return 2 if failed else 0


def cmd_serve(args) -> int:
    """Gateway drill: serve ``--requests`` inputs, every answer checked.

    Deploys the model, stands a :class:`~repro.server.Server` up on it and
    pushes the test images through closed-loop (at most two micro-batches
    outstanding), comparing each answer bitwise with the interpreted
    ``qnn``.  Exit 1 on any shed, failed or mismatching request.
    ``--obs-dir`` switches the whole observability stack on (request
    tracing, sampled per-op profiling, flight recorder, live status export)
    and leaves ``status.json`` / ``metrics.prom`` / ``traces.jsonl`` /
    ``flight_recorder.json`` / ``profile.json`` there for ``top``/``trace``.
    """
    import collections

    from repro.server import ModelRegistry, Overloaded, Server
    from repro.tensor import no_grad
    from repro.tensor.tensor import Tensor

    seed_everything(args.seed)
    deployed, (_, test, _) = _build_deployed_model(
        args, DeploySpec.from_args(args))
    samples = np.ascontiguousarray(test.images[:args.requests],
                                   dtype=np.float32)
    with no_grad():
        refs = deployed.qnn(Tensor(samples)).data

    registry = ModelRegistry()
    registry.register(args.model, "1", deployed)
    deadline_s = args.deadline_ms / 1e3
    obs_dir = args.obs_dir
    obs_cfg = (dict(tracing=True, profile_every=4, dump_dir=obs_dir)
               if obs_dir else {})
    counts = collections.Counter()
    pending = collections.deque()

    def collect() -> None:
        i, req = pending.popleft()
        resp = req.result(timeout=deadline_s + 30.0)
        if not resp.ok:
            counts["shed" if isinstance(resp, Overloaded) else "failed"] += 1
        elif np.array_equal(resp.logits, refs[i]):
            counts["ok"] += 1
        else:
            counts["mismatched"] += 1

    with Server(registry, max_batch=args.max_batch, workers=args.workers,
                default_deadline_s=deadline_s, **obs_cfg) as server:
        if obs_dir:
            server.start_status_export(obs_dir, interval_s=0.5)
        for n in range(args.requests):
            if len(pending) >= 2 * args.max_batch:
                collect()
            i = n % len(samples)
            pending.append((i, server.submit(args.model, samples[i])))
        while pending:
            collect()
        if obs_dir:
            server.dump_traces(os.path.join(obs_dir, "traces.jsonl"))
            server.dump_flight_recorder(
                path=os.path.join(obs_dir, "flight_recorder.json"))
            with open(os.path.join(obs_dir, "profile.json"), "w") as f:
                json.dump(server.profile_report(args.model), f, indent=1)

    print(f"served {args.requests} requests on {args.model}: "
          f"ok {counts['ok']}  shed {counts['shed']}  "
          f"failed {counts['failed']}  mismatched {counts['mismatched']}")
    if obs_dir:
        print(f"observability -> {obs_dir}/ "
              f"(status.json, metrics.prom, traces.jsonl, "
              f"flight_recorder.json, profile.json)")
    return 0 if counts["ok"] == args.requests else 1


def _render_top(status: dict) -> str:
    """One frame of the live gateway view from a status.json snapshot."""
    lines = [f"repro gateway  up {status.get('uptime_s', 0):.0f}s  "
             f"tracing={'on' if status.get('tracing') else 'off'}  "
             f"traces={status.get('traces_held', 0)}"]
    header = (f"{'model':<16} {'rps':>7} {'p50ms':>7} {'p99ms':>7} "
              f"{'queue':>5} {'shed':>5} {'miss':>5} {'burn':>6} {'execs':>5}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, m in sorted(status.get("models", {}).items()):
        w = m.get("window", {})
        slo = w.get("slo", {})
        lines.append(
            f"{name:<16} {w.get('throughput_hz', 0):>7.1f} "
            f"{w.get('latency_ms', {}).get('p50', 0):>7.2f} "
            f"{w.get('latency_ms', {}).get('p99', 0):>7.2f} "
            f"{m.get('queue_depth', 0):>5d} {w.get('shed', 0):>5d} "
            f"{w.get('deadline_miss', 0):>5d} "
            f"{slo.get('error_budget_burn', 0):>6.2f} "
            f"{m.get('executors', 0):>5d}")
        fr = m.get("flight_recorder", {})
        if fr.get("last_dump"):
            lines.append(f"  last flight dump: {fr['last_dump'].get('reason')}"
                         f" ({fr['last_dump'].get('num_events')} events)")
        prof = m.get("profile")
        if prof:
            hot = ", ".join(f"{r['kind']}:{r['share']:.0%}"
                            for r in prof.get("per_kind", [])[:3])
            lines.append(f"  profile: {prof['attributed_fraction']:.0%} "
                         f"attributed over {prof['sampled_batches']} sampled "
                         f"batches  [{hot}]")
    return "\n".join(lines)


def cmd_top(args) -> int:
    """Live terminal view of a gateway's exported status directory.

    Tails the ``status.json`` written by ``Server.start_status_export``
    (or by ``serve --obs-dir``) — the file-based stand-in for an
    HTTP status endpoint.
    """
    path = os.path.join(args.dir, "status.json")
    frames = 1 if args.once else args.iterations
    i = 0
    while frames <= 0 or i < frames:
        i += 1
        try:
            with open(path) as f:
                status = json.load(f)
        except FileNotFoundError:
            print(f"waiting for {path} ...")
            status = None
        except json.JSONDecodeError:
            status = None      # mid-write of a non-atomic producer; retry
        if status is not None:
            frame = _render_top(status)
            if not args.once:
                print("\x1b[2J\x1b[H", end="")
            print(frame)
            if status.get("closing") and not args.once:
                print("(gateway closing; exiting)")
                return 0
        if args.once or (frames > 0 and i >= frames):
            break
        time.sleep(args.interval)
    return 0 if status is not None else 1


def cmd_trace(args) -> int:
    """Extract one request's span tree from a traces.jsonl dump."""
    from repro.telemetry import tracing

    records = tracing.load_jsonl(args.traces, trace_id=args.request_id)
    if not records:
        print(f"no spans for request {args.request_id} in {args.traces}")
        return 1
    roots, orphans = tracing.build_tree(records)
    print(f"request {args.request_id}: {len(records)} spans, "
          f"{len(roots)} root(s), {len(orphans)} orphan(s)")
    print(tracing.format_tree(roots))
    if orphans:
        for r in orphans:
            print(f"orphan: {r['name']} (parent {r['parent_id']} missing)")
    if args.chrome:
        with open(args.chrome, "w") as f:
            json.dump(tracing.to_chrome_trace(records), f, indent=1)
        print(f"chrome trace -> {args.chrome}")
    return 0


def cmd_verify_artifacts(args) -> int:
    """Audit an exported artifact directory; exit 2 on any ERROR finding.

    Same contract as ``lint``: human-readable report by default,
    ``--json`` for machine-readable findings, so CI can gate on it.
    """
    from repro.export.integrity import verify_artifacts

    report = verify_artifacts(args.dir, deep=not args.shallow)
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 2


def cmd_chaos(args) -> int:
    """Seeded fault-injection run; exit 2 when any fault goes undetected.

    Artifact faults always run (against copies of the target directory —
    the original is never modified); when a freshly deployed model is in
    play (no ``--dir``, or ``--server``), its compiled plan also gets the
    plan-mutation schedule — the static verifier must refuse every mutant;
    ``--server`` additionally stands up the online gateway and runs the
    server-fault schedule against it, then a 3-replica fleet for the
    fleet-fault schedule (replica kill / partition: eject, reroute with
    zero lost requests, self-heal); ``--sdc`` runs the live-corruption
    schedule against an SDC-defended fleet (flagged, quarantined, healed,
    zero lost).
    """
    import shutil
    import tempfile

    from repro.chaos import ChaosPlan

    seed_everything(args.seed)
    tmp = None
    deployed = sample = None
    export_dir = args.dir
    try:
        if export_dir is None or args.server or args.sdc:
            spec = DeploySpec.from_args(args)
            if export_dir is None:
                tmp = tempfile.mkdtemp(prefix="repro-chaos-")
                export_dir = os.path.join(tmp, "artifacts")
                spec = spec.evolve(export_dir=export_dir,
                                   formats=("dec", "hex", "bin", "qint"))
            deployed, (_, test, _) = _build_deployed_model(args, spec)
            sample = np.ascontiguousarray(test.images[0], dtype=np.float32)

        report = ChaosPlan.default("artifact", args.seed,
                                   rounds=args.rounds).run(export_dir)

        if deployed is not None and deployed.plan is not None:
            report.extend(ChaosPlan.default("plan", args.seed,
                                            rounds=args.rounds)
                          .run(deployed.plan))
        else:
            print("note: no freshly compiled plan (ran against --dir); "
                  "skipping plan-mutation schedule", file=sys.stderr)

        if args.server:
            from repro.server import ModelRegistry, Server

            registry = ModelRegistry()
            registry.register(args.model, "1", deployed)
            with Server(registry, max_batch=8, workers=args.workers,
                        default_deadline_s=2.0) as srv:
                report.extend(ChaosPlan.default("server", args.seed)
                              .run(srv, args.model, sample))

        # the same deployed model behind a 3-replica fleet: a replica kill
        # or partition must eject, reroute (zero lost) and heal; with the
        # SDC defences on (golden probes and scrubs every 2nd health tick,
        # ABFT every 4th batch), live corruption must be flagged,
        # quarantined and replaced (zero lost)
        for kind, wanted in (("fleet", args.server), ("sdc", args.sdc)):
            if not wanted:
                continue
            from repro.fleet import Fleet, FleetConfig
            from repro.server import ServerConfig

            every = 2 if kind == "sdc" else 0
            fleet = Fleet(FleetConfig(
                replicas=3, health_interval_s=0.1,
                golden_every=every, scrub_every=every,
                server=ServerConfig(max_batch=8, default_deadline_s=2.0,
                                    abft_every=2 * every)))
            fleet.add_model(args.model)
            fleet.register_version(args.model, "1", deployed)
            with fleet:
                report.extend(ChaosPlan.default(kind, args.seed)
                              .run(fleet, args.model, sample))
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(report.render())
    return 0 if report.ok else 2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="repro.cli", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="supervised fp32 training")
    _common(p)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--out", default="fp32.npz")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("qat", help="quantization-aware training")
    _common(p)
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--out", default="qat.npz")
    p.set_defaults(func=cmd_qat)

    p = sub.add_parser("ptq", help="post-training quantization of a checkpoint")
    _common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--calib-batches", type=int, default=8)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--out", default="ptq.npz")
    p.set_defaults(func=cmd_ptq)

    p = sub.add_parser("export", help="fuse + integer-only export of a Q-model checkpoint")
    _common(p)
    _deploy_flags(p, calib_batches=8)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--formats", nargs="+", default=["dec", "hex"],
                   choices=("dec", "hex", "bin", "qint"))
    p.add_argument("--out-dir", default="t2c_out")
    p.add_argument("--telemetry-out", default=None, metavar="DIR",
                   help="also capture a TelemetrySession (trace/events/"
                        "metrics/saturation) into DIR")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("lint", help="static integer-datapath verification "
                                    "(interval bounds + deploy contracts)")
    _common(p)
    _deploy_flags(p)
    p.add_argument("--purity", action="store_true",
                   help="AST purity lint over the deploy-path sources only "
                        "(no model is built; ideal for CI)")
    p.add_argument("--ckpt", default=None,
                   help="optional Q-model checkpoint to lint instead of "
                        "freshly calibrated weights")
    p.add_argument("--repacked", action="store_true",
                   help="lint the vanilla re-packed model instead of the "
                        "fused Q-model")
    p.add_argument("--accum-bits", type=int, default=32,
                   help="accumulator register width to verify against")
    p.add_argument("--plan", action="store_true",
                   help="also compile the deploy model and run the plan-IR "
                        "verifier (dataflow/no-alias/overflow/shift proofs)")
    p.add_argument("--fail-on", choices=("error", "warning"), default="error",
                   help="exit-2 threshold: 'warning' makes WARN findings "
                        "fail too (strict CI mode)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings on stdout")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("inspect", help="full observability run: trace + events "
                                       "+ per-layer profile + saturation audit")
    _common(p)
    _deploy_flags(p)
    p.add_argument("--epochs", type=int, default=1,
                   help="fp32 warm-up epochs before quantization (0 to skip)")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--ckpt", default=None,
                   help="optional Q-model checkpoint to load instead of "
                        "the warm-up weights")
    p.add_argument("--telemetry-out", default="telemetry_out", metavar="DIR")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("serve", help="online gateway drill: every answer "
                                     "checked bitwise against the "
                                     "interpreted integer model")
    _common(p)
    _deploy_flags(p, calib_batches=2, runtime="auto")
    p.add_argument("--ckpt", default=None,
                   help="optional Q-model checkpoint to serve")
    p.add_argument("--requests", type=_positive_int, default=300,
                   help="requests to push through the gateway")
    p.add_argument("--max-batch", type=_positive_int, default=16,
                   help="gateway micro-batch size cap")
    p.add_argument("--workers", type=int, default=0,
                   help="executor threads per gateway lane (batches run "
                        "at once over one shared plan)")
    p.add_argument("--deadline-ms", type=float, default=250.0,
                   help="per-request deadline (batching slack + admission)")
    p.add_argument("--obs-dir", default=None, metavar="DIR",
                   help="enable the full observability stack (tracing, "
                        "per-op profiling, flight recorder, live status "
                        "export) and write status.json / metrics.prom / "
                        "traces.jsonl / flight_recorder.json / profile.json "
                        "to DIR (watch live with `repro.cli top DIR`)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("top", help="live terminal view of a gateway status "
                                   "directory (see serve --obs-dir / "
                                   "Server.start_status_export)")
    p.add_argument("dir", help="directory containing status.json")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (no screen clearing)")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N frames (0 = until gateway closes)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("trace", help="extract one request's span tree from "
                                     "a traces.jsonl dump")
    p.add_argument("request_id", type=int, help="request (= trace) id")
    p.add_argument("--traces", default="traces.jsonl",
                   help="span JSONL written by serve --obs-dir or "
                        "Server.dump_traces")
    p.add_argument("--chrome", default=None, metavar="OUT",
                   help="also write the request as Chrome trace JSON")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify-artifacts",
                       help="audit an exported artifact directory: manifest "
                            "digest, container and slice checksums, "
                            "header/payload consistency (exit 2 on failure)")
    p.add_argument("dir", help="artifact directory (contains manifest.json)")
    p.add_argument("--shallow", action="store_true",
                   help="checksums + manifest only; skip per-tensor decode")
    p.add_argument("--json", action="store_true",
                   help="machine-readable findings on stdout")
    p.set_defaults(func=cmd_verify_artifacts)

    p = sub.add_parser("chaos", help="seeded fault-injection run against the "
                                     "export/serve pipeline (exit 2 on any "
                                     "undetected fault)")
    _common(p)
    _deploy_flags(p, calib_batches=2, runtime="auto")
    p.add_argument("--dir", default=None,
                   help="existing artifact directory to attack (faults hit "
                        "copies; the directory is never modified); default "
                        "builds and exports a fresh model")
    p.add_argument("--rounds", type=_positive_int, default=1,
                   help="passes (>= 1) over the artifact- and plan-fault "
                        "schedules")
    p.add_argument("--server", action="store_true",
                   help="also run the server-fault schedule (failing and "
                        "stalled executor, clock skew) against a live "
                        "gateway")
    p.add_argument("--workers", type=int, default=2,
                   help="executor threads of the gateway lane for --server "
                        "faults")
    p.add_argument("--sdc", action="store_true",
                   help="also run the silent-data-corruption schedule "
                        "(live weight/arena/golden corruption) against an "
                        "SDC-defended 3-replica fleet: every fault must be "
                        "detected, quarantined and healed")
    p.add_argument("--ckpt", default=None,
                   help="optional Q-model checkpoint for the built model")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report on stdout")
    p.set_defaults(func=cmd_chaos)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
