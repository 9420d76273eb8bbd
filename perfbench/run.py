#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in its own process (the `perfbench` binary, built
from source with cargo into $CARGO_TARGET_DIR, default `.bench_build`).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--workload all` the
workloads run one after another, a table of every metric follows, and the
last line merges their results under `<workload>.<metric>` names.

The probe reference (`--probe-ref-ms`) defaults to the value in the
`command` of BENCHMARK.json beside this directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["sweep-cold", "sim-inputs", "serve-disk"]
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def default_probe_ref():
    try:
        command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        return float(command[command.index("--probe-ref-ms") + 1])
    except (OSError, ValueError, KeyError, IndexError) as e:
        fail(f"no --probe-ref-ms given and none found in BENCHMARK.json: {e}")


def build():
    """Builds the benchmark binary; returns its path."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
    ]
    # Cargo's own output goes to stderr: stdout carries only results.
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    return target / "release" / "perfbench"


def run_one(binary, workload, args, probe_ref):
    """Runs one workload; returns its stdout lines."""
    # Program knobs must not leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BITSPEC_")}
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--probe-ref-ms", str(probe_ref),
    ]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{workload} exited with code {r.returncode}")
    lines = r.stdout.splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-ref-ms", type=float)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    probe_ref = args.probe_ref_ms or default_probe_ref()
    binary = build()

    if args.workload != "all":
        print("\n".join(run_one(binary, args.workload, args, probe_ref)))
        return

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines = run_one(binary, w, args, probe_ref)
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"][f"{w}.{name}"] = m
    names = list(dict.fromkeys(k.split(".", 1)[1] for k in merged["metrics"]))
    print(f"\n{'metric':<26} {'unit':<8}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = merged["metrics"][f"{WORKLOADS[0]}.{name}"]["unit"]
        cells = "".join(f"{merged['metrics'][f'{w}.{name}']['value']:>16.6g}" for w in WORKLOADS)
        print(f"{name:<26} {unit:<8}{cells}")
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
