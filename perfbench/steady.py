#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady each
end-to-end metric is.

    python3 perfbench/steady.py --workloads rpc-small,bulk-1m --seeds 1-10

For every workload and metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. A spread below a third of the bound is marked
ok. With --heldout SEED it also runs that seed once and prints its value
in a last column. Every run's metric names are checked against
BENCHMARK.json. Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    res = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(got.items()) ^ set(want.items()))}")
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {lines[-1]}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--heldout", type=int)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for wl in names:
        values = {}
        for seed in seeds_of(args.seeds):
            res = run(bench, wl, seed)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"# {wl} seed {seed}: attempted {res['attempted']}", file=sys.stderr)
        held = {}
        if args.heldout is not None:
            held = {k: v["value"] for k, v in run(bench, wl, args.heldout)["metrics"].items()}
        print(f"\n{wl} ({len(seeds_of(args.seeds))} seeds)")
        print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}    "
              + (f"seed {args.heldout}" if held else ""))
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds[k]
            flag = "ok" if spread < b / 3 else "WIDE"
            extra = f"{held[k]:12.6g}" if held else ""
            print(f"{k:40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:>6} {flag:4} {extra}")


if __name__ == "__main__":
    main()
