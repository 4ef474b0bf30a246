#!/usr/bin/env python3
"""Runs the benchmark on every workload over several seeds and prints, as
markdown, each end-to-end metric's median, quartiles and spread next to
the bound BENCHMARK.json gives it.

    python3 perfbench/steadiness.py --runs 10 --first-seed 101 > record.md

The spread is the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median; the bound
applies to every metric except setup_s, whose spread is not gated.
Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    widest = (0.0, "", "")
    print("| workload | metric | unit | median | Q1 | Q3 | spread | bound | spread ÷ bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        values, units = {}, {}
        for i in range(args.runs):
            seed = args.first_seed + i
            t0 = time.time()
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}\n{out.stdout}")
            printed = {name: m["unit"] for name, m in res["metrics"].items()}
            if printed != declared:
                sys.exit(f"{w} seed {seed}: printed metrics {printed}, BENCHMARK.json declares {declared}")
            print(f"{w} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        for name in bounds:
            xs = values[name]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            if name != "setup_s" and spread / bounds[name] > widest[0]:
                widest = (spread / bounds[name], w, name)
            print(f"| {w} | {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.4f} | {bounds[name]} | {spread / bounds[name]:.2f} |")
    print()
    print(f"Widest spread against its bound: {widest[1]} {widest[2]} "
          f"({widest[0]:.2f} of the bound).")


if __name__ == "__main__":
    main()
