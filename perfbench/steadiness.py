#!/usr/bin/env python3
"""Checks that the benchmark is steady on one commit.

    python3 perfbench/steadiness.py [--runs 10]

For each workload of BENCHMARK.json it makes two independent sets of
runs of run.py at the configured run_seconds, each run with its own seed
(set A: seeds 1..N, set B: seeds N+1..2N), and reports per end-to-end
metric both medians, their quartiles and spreads (inter-quartile range
over the median, as statistics.quantiles gives it). A metric agrees when
each set's spread is within its bound in BENCHMARK.json and the two
medians differ by no more than the bound, as a share of set A's. The
share of failed statements must be identical in both sets. Exits 1 if
anything disagrees.
The full record goes to .bench_build/perfbench/steadiness.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with code {out.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for first in (1, args.runs + 1):
            runs = [run_once(workload, seed, spec["run_seconds"])
                    for seed in range(first, first + args.runs)]
            sets.append(runs)
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        print(f"\n{workload}: failed share A={shares[0]:.6g} B={shares[1]:.6g}")
        print(f"  {'metric':14s} {'median A':>14s} {'[q1, q3] A':>29s} {'spread':>7s}"
              f" {'median B':>14s} {'[q1, q3] B':>29s} {'spread':>7s} {'drift':>6s} {'bound':>6s}  agree")
        ok &= shares[0] == shares[1]
        record[workload] = {"failed_share": shares}
        for name, m in metrics.items():
            a, b = (summarize([r["metrics"][name]["value"] for r in s]) for s in sets)
            drift = abs(b["median"] - a["median"]) / a["median"] if a["median"] else float("inf")
            agree = max(a["spread"], b["spread"], drift) <= m["bound"]
            ok &= agree
            record[workload][name] = {"A": a, "B": b, "drift": drift, "agree": agree}
            print(f"  {name:14s} {a['median']:14.6g} [{a['q1']:13.6g},{a['q3']:13.6g}]"
                  f" {a['spread']:7.3f} {b['median']:14.6g} [{b['q1']:13.6g},{b['q3']:13.6g}]"
                  f" {b['spread']:7.3f} {drift:6.3f} {m['bound']:6.2f}  {'yes' if agree else 'NO'}")
    out = ROOT / ".bench_build" / "perfbench" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; record in {out.relative_to(ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
