#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--out perfbench/baseline.json]

Run from the repository root. The command, run length and workloads come
from BENCHMARK.json. For every workload and metric it prints the median
and the distance between the first and third quartile as a share of the
median (`statistics.quantiles(values, n=4)`), and checks each end-to-end
spread against the metric's bound. With --out it writes the summary,
with the host's thread count and CPU model, as JSON.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": bench["run_seconds"], "trace": int(args.trace), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
                ok = False
                continue
            header = re.search(r"host_threads (\d+) cpu \"(.*)\"", run.stdout)
            if header:
                summary["host_threads"] = int(header.group(1))
                summary["cpu"] = header.group(2)
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        table = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            if len(vals) < 2 or median == 0:
                table[name] = {"median": median, "values": vals}
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(median)
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread <= bound else "OVER BOUND"
                if spread > bound:
                    ok = False
                if spread > bound / 3:
                    verdict += " (above a third of the bound)"
            print(f"  {workload} {name}: median {median:.5g} spread {spread:.4f} {verdict}")
        summary["workloads"][workload] = table
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
