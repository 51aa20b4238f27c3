"""A/A steadiness: run two sets of runs of one workload, alternating them,
each run with its own seed, and print every end-to-end metric's median and
quartiles per set, the spread of all runs (quartile distance over median,
as the bounds in BENCHMARK.json are stated) and how far set B's median is
from set A's. Each run's speed probe (a fixed pure-Python loop, timed at the
start and end of the run) is printed too, so drift of the machine shows.

    python3 perfbench/aa.py --workload curve --runs 10 --seconds 40
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    details = json.loads(lines[0])
    final = json.loads(lines[-1])
    return details, final


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--seed0", type=int, default=100)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    sets = {"A": [], "B": []}
    for i in range(args.runs):
        label = "AB"[i % 2]
        details, final = one_run(args.workload, args.seed0 + i, args.seconds)
        sets[label].append({"seed": args.seed0 + i, "details": details, "final": final})
        m = final["metrics"]
        print(f"run {i:2d} set {label} seed {args.seed0 + i}: rounds {details['rounds']} "
              f"failed {final['failed']}/{final['attempted']} correct {final['correct']} "
              f"probe {details['probe_s'][0]:.3f}/{details['probe_s'][1]:.3f} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)

    runs = sets["A"] + sets["B"]
    print(f"\n{'metric':18s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
          f"{'spread':>7s} {'B/A-1':>7s} {'bound':>6s}")
    table = {}
    for name in runs[0]["final"]["metrics"]:
        row = {}
        for label, rs in sets.items():
            row[label] = quartiles([r["final"]["metrics"][name]["value"] for r in rs])
        q1, med, q3 = quartiles([r["final"]["metrics"][name]["value"] for r in runs])
        row["spread"] = (q3 - q1) / med
        row["shift"] = row["B"][1] / row["A"][1] - 1
        table[name] = row
        fa, fb = (f"{r[1]:.5g} [{r[0]:.5g}, {r[2]:.5g}]" for r in (row["A"], row["B"]))
        print(f"{name:18s} {fa:>34s} {fb:>34s} {row['spread']:7.3f} {row['shift']:+7.3f} "
              f"{bounds.get(name, float('nan')):6.2f}")
    probes = {label: statistics.median(p for r in rs for p in r["details"]["probe_s"])
              for label, rs in sets.items()}
    shares = {label: sorted({r["final"]["failed"] / r["final"]["attempted"] for r in rs})
              for label, rs in sets.items()}
    print(f"speed probe median: A {probes['A']:.4f} s, B {probes['B']:.4f} s; "
          f"failed share per run: A {shares['A']}, B {shares['B']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"aa_{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "table": table, "probe_median_s": probes}, fh, indent=1)


if __name__ == "__main__":
    main()
