"""``python -m benchmarks.e2e`` — the repo benchmark's one command.

One invocation = a preflight, then ``ROUNDS`` rounds; each round runs every
selected workload in a *fresh subprocess* (rotated order, so a neighbour's
burst cannot land on one workload only), and the rounds' raw samples are
pooled into the five end-to-end metrics.  ``--trace`` instead runs one
untraced round of the selected workloads plus one traced round of all four
and reports the per-layer metrics (all four are needed: several per-layer
numbers are ratios across workloads).

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the contract of the root ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NoReturn

ROOT = Path(__file__).resolve().parents[2]
# measure this checkout's sources, not an installed copy
sys.path.insert(0, str(ROOT / "src"))
# numpy's BLAS otherwise starts one thread per core for the matmuls of
# calibration, lint and the interpreted reference: a zoo pass then used 1.4
# cores for no gain in speed (2.52 vs 2.45 models/s) and slowed by a quarter
# whenever anything else wanted the second core.  Set before numpy is
# imported, and inherited by every workload subprocess.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: everything the benchmark writes lives here, inside the checkout
WORK = ROOT / ".bench_build" / "e2e"
ROUNDS = 2
QUICK_SECONDS = 6.0
CHILD_TIMEOUT_S = 150.0


def _spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _fail(msg: str, code: int = 2) -> NoReturn:
    print(f"benchmarks.e2e: {msg}", file=sys.stderr)
    raise SystemExit(code)


# --------------------------------------------------------------------- child
def _child(args) -> int:
    """One round of one workload, in this (fresh) process."""
    import resource

    import repro  # noqa: F401
    from benchmarks.e2e import workloads
    from benchmarks.e2e.trace import NullTracer, Tracer

    t_setup0 = time.perf_counter()
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.wrap_all()
    work = os.path.join(args.child_dir, f"{args.child}-{args.round}")
    os.makedirs(work, exist_ok=True)
    ctx = workloads.Ctx(seed=args.seed, round=args.round, window_s=args.window,
                        work=work, traced=bool(args.trace), tracer=tracer,
                        t_setup0=t_setup0)
    try:
        result = workloads.RUNNERS[args.child](ctx)
    finally:
        if args.trace:
            tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result.update(workload=args.child, round=args.round, seed=args.seed,
                  window_s=args.window, traced=bool(args.trace),
                  peak_rss_mb=usage / 1024.0)
    if args.trace:
        result["spans"] = tracer.spans_json()
    with open(args.child_out, "w") as f:
        json.dump(result, f)
    return 0


# -------------------------------------------------------------------- parent
def _preflight() -> None:
    """Untimed, before round 1: import everything, build/load the C kernel
    and touch the dataset, so no round pays a compile or a cold cache."""
    from repro.data import make_dataset
    from repro.runtime import ckernel

    from benchmarks.e2e import workloads  # noqa: F401  (imports every layer)

    if ckernel.load() is None:
        _fail("repro.runtime.ckernel.load() returned None (no working C "
              "compiler?) — numbers from the fallback layout are those of a "
              "different program, refusing to report them")
    make_dataset("synthetic-cifar10", noise=0.5).sample(8, split_seed=1)


def _run_child(workload: str, seed: int, rnd: int, window: float,
               traced: bool, run_dir: Path) -> Dict:
    out = run_dir / f"{workload}-{rnd}{'-traced' if traced else ''}.json"
    cmd = [sys.executable, "-m", "benchmarks.e2e", "--child", workload,
           "--seed", str(seed), "--round", str(rnd), "--window", repr(window),
           "--trace", str(int(traced)), "--child-out", str(out),
           "--child-dir", str(run_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        _fail(f"{workload} round {rnd} exited with {proc.returncode}", 1)
    with open(out) as f:
        return json.load(f)


def _parent(args) -> int:
    from benchmarks.e2e import report
    from benchmarks.e2e.loadgen import MAX_OFFERED_UTIL

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
              "the repro package of the checkout it sits in")
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    selected = [args.workload] if args.workload else names
    if args.workload and args.workload not in names:
        _fail(f"unknown workload {args.workload!r}; expected one of {names}")
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or (QUICK_SECONDS if args.quick
                               else float(spec["run_seconds"]))
    window = seconds / (1 if args.quick else ROUNDS)
    rounds = 1 if (args.quick or args.trace) else ROUNDS

    os.environ["REPRO_CKERNEL_CACHE"] = str(WORK / "ckernel")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        _preflight()
        untraced: Dict[str, List[Dict]] = {w: [] for w in selected}
        for r in range(rounds):
            k = r % len(selected)
            for w in selected[k:] + selected[:k]:
                untraced[w].append(
                    _run_child(w, args.seed, r, window, False, run_dir))
        # the selected workloads keep the full window (their traced and
        # untraced throughput are compared); the others only supply layer
        # numbers and cross-workload ratios, so half a window does
        traced = ({w: _run_child(w, args.seed, rounds,
                                 window if w in selected else window / 2,
                                 True, run_dir)
                   for w in names} if args.trace else {})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    spans = {w: r.pop("spans") for w, r in traced.items()}
    e2e = {w: report.end_to_end(w, untraced[w]) for w in selected}
    every = [r for rs in untraced.values() for r in rs] + list(traced.values())
    attempted = sum(r["attempted"] for r in every)
    # a correct answer past its deadline lowers goodput_frac but is not a
    # failed operation
    failed = attempted - sum(r["good"] + r["late"] for r in every)
    correct = all(r["mismatches"] == 0 for r in every)
    util = {w: report.offered_util(w, untraced[w])
            for w in selected if w in report.SERVING}
    tails = {w: report.tail_latency(untraced[w]) for w in util}
    layers = report.per_layer(traced, untraced) if args.trace else {}

    for w in selected:
        print(report.table(f"{w}  (seed {args.seed}, {rounds} round(s) x "
                           f"{window:g} s)", e2e[w], units))
        if w in util:
            t = tails[w]
            print(f"  offered_util {util[w]:.3f}, generator late p99 "
                  f"{report.generator_late_ms_p99(untraced[w]):.3f} ms, "
                  f"latency p{t['percentile']:g} {t['ms']:.2f} ms "
                  f"(n={t['n']}, not gated)")
    if layers:
        print(report.table("per layer  (one traced round of every workload)",
                           layers, units))

    doc = {
        "seed": args.seed, "seconds": seconds, "rounds": rounds,
        "window_s": window, "correct": correct,
        "attempted": attempted, "failed": failed,
        "workloads": {w: {"end_to_end": e2e[w],
                          "samples": report.sample_counts(w, untraced[w]),
                          "rounds": untraced[w]} for w in selected},
        "offered_util": util, "tail_latency": tails, "per_layer": layers,
        "traced_rounds": traced,
    }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    if args.trace:
        trace_path = (Path(args.out).with_suffix(".trace.json") if args.out
                      else WORK / "trace.json")
        with open(trace_path, "w") as f:
            json.dump(spans, f)
        print(f"trace -> {trace_path}")

    rc = 0
    if not correct:
        print("FAILED: an output differed from the interpreted reference "
              "(or a hand-off failed a gate)", file=sys.stderr)
        rc = 1
    for w, u in util.items():
        if u > MAX_OFFERED_UTIL:
            print(f"FAILED: {w} offered_util {u:.2f} > {MAX_OFFERED_UTIL}: "
                  "lower loadgen.RATE_HZ", file=sys.stderr)
            rc = 1

    if args.trace:
        metrics = layers
    elif len(selected) == 1:
        metrics = e2e[selected[0]]
    else:
        metrics = {f"{w}/{k}": v for w in selected for k, v in e2e[w].items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k.rsplit("/", 1)[-1]]}
                    for k, v in metrics.items()}}, allow_nan=False))
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds weights, request images and schedules")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per workload, all rounds together "
                         "(default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="traced run: print the per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help=f"smoke run: 1 round of {QUICK_SECONDS:g} s")
    ap.add_argument("--out", help="write raw rounds + metrics as JSON here")
    ap.add_argument("--selftest", action="store_true",
                    help="check estimators, schedules and the Zipf generator")
    # internal: one round of one workload in this process
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--window", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--child-out", help=argparse.SUPPRESS)
    ap.add_argument("--child-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.selftest:
        from benchmarks.e2e.selftest import run
        return run()
    return _child(args) if args.child else _parent(args)


if __name__ == "__main__":
    sys.exit(main())
