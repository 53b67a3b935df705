#!/usr/bin/env python3
"""Steadiness check of the e2ebench benchmark.

Run from the root of a checkout:

    python3 e2ebench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                               [--traced 1]

For every workload it runs the benchmark --runs times per set, each run
with its own seed (set k uses seeds k*runs+1 .. (k+1)*runs), one run at a
time. For each end-to-end metric it prints every set's median and
quartiles (statistics.quantiles(values, n=4)), the spread (interquartile
distance over the median) against the metric's bound in BENCHMARK.json,
and how far the later sets' medians move from the first set's. Every
metric, setup_s included, fails the check when its spread exceeds its
bound or a later set's median is worse than the first set's by more than
the bound; a spread above a third of the bound is marked ">1/3". A time
metric that reads exactly the same on every run of a workload fails too:
it cannot be told from a figure that was never measured. The virtual
latency quantiles of the detail line are printed the same way, with the
number of distinct values they took. It also checks that the failed share
of operations is identical across runs, and that the virtual, size and
trusted-memory metrics repeat bit for bit when a seed is run twice. With --traced N it adds N pairs of runs per
workload, an untraced and a traced run of the same seed back to back,
checks each Chrome trace loads, and reports each pair's host throughput
ratio: the tracing overhead.

The machine (nproc, CPU model) is printed next to the figures; the whole
report is also written to .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Deterministic for a fixed seed (virtual clock, sizes, trusted memory).
DETERMINISTIC = ["virtual_rps", "virtual_tail_us",
                 "storage_bytes_per_user_byte", "trusted_bytes"]
# Units of time: such a metric must not read the same on every run.
TIME_UNITS = {"s", "ms", "us", "ns"}
# Virtual latency quantiles reported in the detail line only.
DETAIL_QUANTILES = ["virtual_p50_us", "virtual_p99_us", "virtual_p999_us"]


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), proc.stderr[-2000:]))
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower_better = {m["name"]: m["better"] == "lower"
                    for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    print("machine: nproc=%(nproc)s cpu=%(cpu_model)s" % report["machine"])
    ok = True
    for name in names:
        sets = []
        for k in range(args.sets):
            rows = []
            for i in range(args.runs):
                seed = k * args.runs + i + 1
                detail, result = run_once(name, seed, seconds, False)
                if not result["correct"]:
                    ok = False
                    print("%s seed %d: INCORRECT" % (name, seed))
                result["detail"] = detail
                rows.append(result)
            sets.append(rows)
        entry = {"sets": []}
        print("\n== %s (%d x %d runs, %ds each)" %
              (name, args.sets, args.runs, seconds))
        first = {}
        for metric, bound in bounds.items():
            line = "%-30s bound %.2f" % (metric, bound)
            for k, rows in enumerate(sets):
                values = [r["metrics"][metric]["value"] for r in rows]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                shift = 0.0
                if k == 0:
                    first[metric] = med
                elif first[metric]:
                    shift = (med - first[metric]) / first[metric]
                verdict = ""
                if spread > bound:
                    verdict = " OVER"
                    ok = False
                elif spread > bound / 3:
                    verdict = " >1/3"
                line += " | set%d med %.6g q1 %.6g q3 %.6g spread %.4f%s" % (
                    k + 1, med, q1, q3, spread, verdict)
                if k > 0:
                    worse = shift if lower_better[metric] else -shift
                    line += " shift %+.4f%s" % (
                        shift, " WORSE" if worse > bound else "")
                    ok = ok and worse <= bound
                entry["sets"].append({"metric": metric, "set": k + 1,
                                      "median": med, "q1": q1, "q3": q3,
                                      "spread": spread, "shift": shift})
            every = {r["metrics"][metric]["value"]
                     for rows in sets for r in rows}
            if units[metric] in TIME_UNITS and len(every) == 1:
                line += " CONSTANT"
                ok = False
            print(line)
        for key in DETAIL_QUANTILES:
            line = "%-30s detail" % key
            for k, rows in enumerate(sets):
                q1, med, q3 = quartiles([r["detail"][key] for r in rows])
                line += " | set%d med %.6g q1 %.6g q3 %.6g" % (k + 1, med,
                                                              q1, q3)
            distinct = {r["detail"][key] for rows in sets for r in rows}
            print(line + " | %d distinct values" % len(distinct))
        failed_shares = {r["failed"] / r["attempted"]
                         for rows in sets for r in rows}
        print("failed share per run: %s" % sorted(failed_shares))
        if len(failed_shares) != 1:
            ok = False

        # Bit-identical repeat of one seed.
        _, again = run_once(name, 1, seconds, False)
        base = sets[0][0]["metrics"]
        diffs = [m for m in DETERMINISTIC
                 if again["metrics"][m]["value"] != base[m]["value"]]
        print("seed 1 repeated: deterministic metrics %s" %
              ("identical" if not diffs else "DIFFER: " + ", ".join(diffs)))
        ok = ok and not diffs

        # Tracing overhead: an untraced and a traced run of the same seed
        # back to back, so both meet the same host conditions.
        overheads = []
        for t in range(args.traced):
            seed = 1000 + t
            _, plain = run_once(name, seed, seconds, False)
            detail, traced = run_once(name, seed, seconds, True)
            with open(os.path.join(ROOT, detail["trace_file"]),
                      encoding="utf-8") as f:
                events = len(json.load(f)["traceEvents"])
            untraced = plain["metrics"]["host_rps"]["value"]
            overhead = 1.0 - detail["host_rps"] / untraced
            overheads.append(overhead)
            print("traced pair %d (seed %d): host_rps untraced %.6g, traced "
                  "%.6g (traced slower by %.2f%%), %d per-layer metrics, %d "
                  "trace events loaded" % (t + 1, seed, untraced,
                                           detail["host_rps"], 100 * overhead,
                                           len(traced["metrics"]), events))
            entry.setdefault("traced", []).append(
                {"seed": seed, "untraced_host_rps": untraced,
                 "traced_host_rps": detail["host_rps"], "overhead": overhead,
                 "metrics": traced["metrics"]})
        if overheads:
            print("tracing overhead, median of %d pairs: %.2f%%" %
                  (len(overheads), 100 * statistics.median(overheads)))
        report["workloads"][name] = entry

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w",
              encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print("\nsteady: %s" % ("every spread and shift within its bound" if ok
                            else "SOME CHECK FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
