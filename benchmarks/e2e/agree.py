"""Do two sets of results from the *same* commit agree?

    python -m benchmarks.e2e.agree --a a0.json a1.json ... --b b0.json ...

Each file is an ``--out`` of ``python -m benchmarks.e2e`` (any mix of
workloads per file).  Per workload x end-to-end metric this prints both
medians, how much worse set B's median is than set A's (as a share of A, in
the metric's "worse" direction), each set's spread (interquartile distance
over median, the steadiness measure of the benchmark contract) and PASS/FAIL
against the bound in ``BENCHMARK.json``.  ``setup_s`` is exempt from the
spread check, as in the contract.  Exit code 1 if anything fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e.estimators import spread

ROOT = Path(__file__).resolve().parents[2]


def load(paths: List[str]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per file]}}``."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for p in paths:
        with open(p) as f:
            doc = json.load(f)
        for w, body in doc["workloads"].items():
            for m, v in body["end_to_end"].items():
                out.setdefault(w, {}).setdefault(m, []).append(v)
    return out


def compare(a: Dict, b: Dict, metrics: List[Dict]) -> List[Dict]:
    rows = []
    for w in a:
        for m in metrics:
            va, vb = a[w][m["name"]], b[w][m["name"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            sa = spread(va) if len(va) >= 2 else 0.0
            sb = spread(vb) if len(vb) >= 2 else 0.0
            steady = m["name"] == "setup_s" or max(sa, sb) <= m["bound"]
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "median_a": ma, "median_b": mb, "worse": worse,
                         "spread_a": sa, "spread_b": sb, "bound": m["bound"],
                         "ok": abs(worse) <= m["bound"] and steady})
    return rows


def render(rows: List[Dict], n_a: int, n_b: int) -> str:
    lines = [f"| workload | metric | median A (n={n_a}) | median B (n={n_b}) "
             "| B worse by | spread A | spread B | bound | |",
             "|---|---|---:|---:|---:|---:|---:|---:|---|"]
    for r in rows:
        lines.append(
            f"| {r['workload']} | {r['metric']} ({r['unit']}) "
            f"| {r['median_a']:.6g} | {r['median_b']:.6g} "
            f"| {r['worse']:+.2%} | {r['spread_a']:.2%} | {r['spread_b']:.2%} "
            f"| {r['bound']:.0%} | {'PASS' if r['ok'] else 'FAIL'} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.e2e.agree",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", nargs="+", required=True, help="result files, set A")
    ap.add_argument("--b", nargs="+", required=True, help="result files, set B")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(args.a), load(args.b)
    if set(a) != set(b):
        print(f"sets cover different workloads: {sorted(a)} vs {sorted(b)}",
              file=sys.stderr)
        return 2
    rows = compare(a, b, metrics)
    n = lambda s: max(len(v) for m in s.values() for v in m.values())  # noqa: E731
    print(render(rows, n(a), n(b)))
    bad = [r for r in rows if not r["ok"]]
    print(f"\n{len(rows) - len(bad)} PASS, {len(bad)} FAIL")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
