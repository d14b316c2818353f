#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload serve-local --seeds 1-10 --seconds 15

For every metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median, which
BENCHMARK.json's bounds are compared against. Run from the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_ticks():
    """The machine-wide CPU tick counters of /proc/stat (empty if absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return []


def contention(before, after, own_s):
    """Hypervisor steal, and CPU used by anything but the run, each as a
    share of the machine's ticks in between."""
    if len(before) < 8 or len(after) < 8:
        return float("nan"), float("nan")
    d = [b - a for a, b in zip(before, after)]
    total = sum(d[:8]) or 1
    busy = d[0] + d[1] + d[2] + d[5] + d[6]
    own = own_s * os.sysconf("SC_CLK_TCK")
    return d[7] / total, max(busy - own, 0) / total


def child_cpu_s():
    t = os.times()
    return t.children_user + t.children_system


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, shares = {}, []
    for seed in seeds(args.seeds):
        cpu0, own0, t0 = cpu_ticks(), child_cpu_s(), time.monotonic()
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        steal, others = contention(cpu0, cpu_ticks(), child_cpu_s() - own0)
        wall = time.monotonic() - t0
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            print(f"seed {seed}: correct=false", file=sys.stderr)
        shares.append(res["failed"] / res["attempted"])
        row = []
        for name, m in sorted(res["metrics"].items()):
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: attempted={res['attempted']} failed={res['failed']} wall={wall:.1f}s steal={steal:.3f} others={others:.3f} "
              + " ".join(row), flush=True)
    print(f"failed share per run: {sorted(set(shares))}")
    for name, v in sorted(values.items()):
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" bound={bound} ({'ok' if spread < bound / 3 else 'WIDE'})" if bound else ""
        print(f"{name:40s} median={med:.5g} q1={q1:.5g} q3={q3:.5g} spread={spread:.3f}{note}")


if __name__ == "__main__":
    main()
