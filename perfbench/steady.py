#!/usr/bin/env python3
"""Steadiness report: runs the benchmark over several seeds and shows, per
workload and end-to-end metric, the spread of the values as the distance
between their first and third quartile over their median, for the
probe-scaled metric and for its unscaled host-time counterpart side by
side, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 1-10 [--workloads sim-inputs]
        [--save runs.json] [--against earlier.json]

`--against` also compares each median with the one in an earlier saved
set, as a share of the earlier median (positive = worse).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = r.stdout.splitlines()
    res = json.loads(lines[-1])
    unscaled = next(json.loads(l[len("unscaled "):]) for l in lines if l.startswith("unscaled "))
    return res, unscaled


def spread(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med if med else 0.0, statistics.median(xs)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seeds_of(args.seeds)

    runs = {}
    for w in workloads:
        runs[w] = []
        for s in seeds:
            res, unscaled = run(w, s, spec["run_seconds"])
            runs[w].append({"seed": s, "result": res, "unscaled": unscaled})
            print(f"{w} seed {s}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    ok = True
    print(f"\n{'workload':<11} {'metric':<24} {'median':>12} {'spread':>8} {'unscaled':>9} "
          f"{'bound':>6}" + (f" {'vs earlier':>11}" if earlier else ""))
    for w, rs in runs.items():
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            sp, med = spread(vals)
            raw = [r["unscaled"][name] for r in rs if name in r["unscaled"]]
            raw_sp = f"{spread(raw)[0]:>9.4f}" if raw else f"{'':>9}"
            line = f"{w:<11} {name:<24} {med:>12.6g} {sp:>8.4f} {raw_sp} {bound:>6}"
            better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
            if name != "setup_s" and sp > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif name != "setup_s" and sp > bound / 3:
                line += "  (over a third of the bound)"
            if w in earlier:
                old = statistics.median(r["result"]["metrics"][name]["value"] for r in earlier[w])
                worse = (med - old) / old if better == "lower" else (old - med) / old
                line += f" {worse:>+11.4f}"
                if worse > bound:
                    ok = False
                    line += "  MEDIAN WORSE THAN BOUND"
            print(line)
        if not all(r["result"]["correct"] for r in rs):
            ok = False
            print(f"{w}: some runs were not correct")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
