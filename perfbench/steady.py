#!/usr/bin/env python3
"""Steadiness test of the repository benchmark.

Runs the command of BENCHMARK.json on every workload (or the ones named)
with a fresh --seed per run, in two sets, and checks the benchmark against
its own bounds the way a change is judged:

  * within each set, the spread of every end-to-end metric, setup_s too
    -- the distance between the first and third quartile, as
    statistics.quantiles(values, n=4) gives them, as a share of the median --
    must stay within the metric's bound (the report also flags spreads above
    a third of it);
  * the second set's median of every metric, setup_s too, must not be worse
    than the first set's by more than the bound.

With --trace it also makes one traced run per workload and prints the
tracing overhead: the traced rerun's trace.* numbers against the untraced
medians of the first set.

Run it from the root of the checkout, e.g.

  python3 perfbench/steady.py --runs 10 --sets 2
  python3 perfbench/steady.py --runs 5 --sets 1 --workloads fl-sweep

It exits non-zero when a check fails. Runs are sequential: the benchmark
measures a loaded machine, so nothing else should run beside it.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed\n{out.stdout}")
    stolen = [l.strip() for l in lines if "stolen by the host" in l]
    return result["metrics"], stolen


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs to compare")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seed-base", type=int, default=100, help="first seed; later runs count up")
    ap.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]
    seed = args.seed_base
    failed = False
    for w in names:
        medians = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for _ in range(args.runs):
                got, stolen = run_once(bench["command"], w, seed, bench["run_seconds"], False)
                print(f"  seed {seed}: " + " ".join(f"{m['name']}={got[m['name']]['value']:.6g}" for m in metrics)
                      + "".join(f" ({s})" for s in stolen), flush=True)
                seed += 1
                for m in metrics:
                    values[m["name"]].append(got[m["name"]]["value"])
            print(f"{w} set {s + 1} ({args.runs} runs)")
            med = {}
            for m in metrics:
                vals = values[m["name"]]
                med[m["name"]] = statistics.median(vals)
                sp = spread(vals) if len(vals) >= 2 else 0.0
                flag = ""
                if sp > m["bound"]:
                    flag, failed = "  SPREAD OVER BOUND", True
                elif sp > m["bound"] / 3:
                    flag = "  spread over a third of the bound"
                print(f"  {m['name']:14} median {med[m['name']]:12.6g} {m['unit']:7}"
                      f" spread {sp:7.2%} (bound {m['bound']:.0%}){flag}")
            medians.append(med)
        for s in range(1, len(medians)):
            for m in metrics:
                d = worse_by(medians[0][m["name"]], medians[s][m["name"]], m["better"])
                verdict = "ok"
                if d > m["bound"]:
                    verdict, failed = "WORSE THAN BOUND", True
                print(f"  set {s + 1} vs set 1: {m['name']:14} {d:+7.2%} worse ({verdict})")
        if args.trace:
            got, _ = run_once(bench["command"], w, seed, bench["run_seconds"], True)
            seed += 1
            for name, untraced in (("trace.jobs_per_s", "jobs_per_s"), ("trace.job_p50_ms", "job_p50_ms")):
                base = medians[0][untraced]
                print(f"  tracing overhead: {name} {got[name]['value']:.6g} vs untraced median "
                      f"{base:.6g} ({got[name]['value'] / base - 1:+.2%})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
