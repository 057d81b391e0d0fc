#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload NAME ...] [--out FILE]
    python3 perfbench/steady.py --compare FIRST.json SECOND.json

For every workload (all of BENCHMARK.json's by default) it runs
perfbench/run.py once per seed, seeds first-seed .. first-seed+runs-1,
with the run length BENCHMARK.json fixes. For each end-to-end metric it
prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound. A spread above a third of
its bound is flagged, setup_s included. With --trace 1 it reports the
per-layer metrics of traced runs instead; they have no bounds.

Each run is also recorded with the state of the machine during it, to
tell noise from the machine apart from noise in the benchmark:
  steal     the share of the machine's CPU ticks stolen by the
            hypervisor (from /proc/stat, where it exists);
  foreign   the share of the machine's CPU ticks that processes other
            than the benchmark used (likewise);
  speed     SHA-256 throughput of one thread in MB/s, measured for a
            second just before the run: a fixed piece of work that
            tracks how fast the machine runs code at that moment.
With --out the figures, every run's raw values, stamps and machine
state are written as JSON.

--compare reads two such files and checks, per workload and end-to-end
metric, that the second median is not worse than the first, and the
first not worse than the second, by more than the metric's bound.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cpu_times():
    """The machine's aggregate CPU tick counters (Linux), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def children_cpu_s():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def machine_state(before, after, own_cpu_s):
    """Steal and foreign shares of the machine's CPU ticks in between."""
    if not before or not after or len(before) < 8:
        return None, None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    if not total:
        return None, None
    busy = total - delta[3] - delta[4] - delta[7]  # not idle, iowait or stolen
    own = own_cpu_s * os.sysconf("SC_CLK_TCK")
    return delta[7] / total, max(0.0, busy - own) / total


def machine_speed():
    """MB/s of SHA-256 over a 64 KiB buffer on one thread, for a second."""
    buf = bytes(64 << 10)
    n, start = 0, time.perf_counter()
    while time.perf_counter() - start < 1.0:
        hashlib.sha256(buf).digest()
        n += 1
    return n * len(buf) / 1e6 / (time.perf_counter() - start)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    speed = machine_speed()
    before, cpu0 = cpu_times(), children_cpu_s()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    steal, foreign = machine_state(before, cpu_times(), children_cpu_s() - cpu0)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("run failed (%s seed %d, exit %d):\n%s" % (workload, seed, p.returncode, p.stderr[-2000:]))
    stamp = json.loads(lines[-2])["stamp"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), stamp, {"steal": steal, "foreign": foreign, "speed": speed}


def fmt(xs, f="%.3f"):
    return " ".join(f % x if x is not None else "-" for x in xs)


def compare(first, second, bounds):
    """Checks that two recorded sets agree within the bounds."""
    with open(first) as f:
        a = json.load(f)
    with open(second) as f:
        b = json.load(f)
    ok = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print("%s: missing from %s" % (name, second))
            ok = False
            continue
        print(name)
        for m, bound in bounds.items():
            ma, mb = wa["metrics"][m]["median"], wb["metrics"][m]["median"]
            diff = abs(mb - ma) / min(ma, mb) if min(ma, mb) else 0.0
            flag = ""
            if diff > bound:
                flag = "  <-- outside bound"
                ok = False
            print("  %-22s %14.4f %14.4f  apart %.3f  bound %s%s" % (m, ma, mb, diff, bound, flag))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.compare:
        return compare(args.compare[0], args.compare[1], {m["name"]: m["bound"] for m in bench["end_to_end"]})
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        values = {m: [] for m in bounds}
        stamps, machine = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, stamp, state = run_once(name, seed, bench["run_seconds"], args.trace)
            machine.append(state)
            if not res["correct"] or res["failed"]:
                raise SystemExit("%s seed %d: %d of %d operations failed" % (name, seed, res["failed"], res["attempted"]))
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            stamps.append(stamp)
        rows = {}
        print("%s (%d runs, seeds %d..%d)" % (name, args.runs, args.first_seed, args.first_seed + args.runs - 1))
        print("  steal per run    %s" % fmt([s["steal"] for s in machine]))
        print("  foreign per run  %s" % fmt([s["foreign"] for s in machine]))
        print("  speed per run    %s" % fmt([s["speed"] for s in machine], "%.0f"))
        for m, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else None
            bound = bounds[m]
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            rows[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": xs}
            print("  %-32s median %14.4f  q1 %14.4f  q3 %14.4f  spread %s  bound %s%s"
                  % (m, med, q1, q3, "%.3f" % spread if spread is not None else "-", bound, flag))
        report["workloads"][name] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                                     "metrics": rows, "stamps": stamps, "machine": machine}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
