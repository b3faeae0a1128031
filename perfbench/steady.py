#!/usr/bin/env python3
"""Steadiness record for the perfbench benchmark.

Runs sets of benchmark invocations, interleaved across workloads (set
by set, seed by seed, workload by workload), and reports for every
end-to-end metric of every workload the median, the quartiles, the
spread (interquartile distance over the median) and the difference
between the sets' medians, against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py                       # 2 sets x 10 seeds, all workloads
    python3 perfbench/steady.py --sets 1 --runs 5 --workloads chaos_day
    python3 perfbench/steady.py --record              # also write perfbench/steadiness.{json,md}

Run from the repository root; the benchmark builds into .bench_build
unless CARGO_TARGET_DIR is set.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")

# Set-to-set median differences of an earlier benchmark of the same
# four days, run at two lanes and rejected as too noisy, for comparison.
EARLIER_DELTAS = {
    ("planet_day", "run_s"): -0.112,
    ("chaos_day", "report_s"): 0.087,
    ("service_day", "run_s"): 0.066,
    ("multihop_day", "run_s"): -0.0004,
}

DIAG = {
    "mem_walk_s": re.compile(r"mem_walk_s ([0-9.]+) s"),
    "alu_s": re.compile(r"alu_s ([0-9.]+) s"),
    "failed_share": re.compile(r"^\s*failed_share\s+([0-9.]+) ratio", re.M),
    "span_drop_share": re.compile(r"^\s*span_drop_share\s+([0-9.]+) ratio", re.M),
    "report_s": re.compile(r"^\s*report_s\s+([0-9.]+) s", re.M),
    "arrivals": re.compile(r"fingerprint: arrivals (\d+)"),
    "reps": re.compile(r"obs off, (\d+) untraced"),
}


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = {}
    for key, rx in DIAG.items():
        m = rx.search(p.stdout)
        if m:
            diag[key] = float(m.group(1))
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "diag": diag,
    }


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--workloads", default="", help="comma list (default: all)")
    ap.add_argument("--record", action="store_true",
                    help="write perfbench/steadiness.json and perfbench/steadiness.md")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    t0 = time.monotonic()
    for s in range(args.sets):
        for seed in seeds:
            for w in workloads:
                r = run_once(bench, w, seed, seconds)
                r["set"] = s
                runs.append(r)
                vals = " ".join(f"{k}={v:.6g}" for k, v in r["metrics"].items())
                print(f"[{time.monotonic() - t0:7.1f}s] set {s} {w} seed {seed}: "
                      f"correct={r['correct']} {vals} wall={r['wall_s']:.1f}s "
                      f"host={r['diag'].get('mem_walk_s')}/{r['diag'].get('alu_s')}",
                      flush=True)

    table = []
    ok = True
    for w in workloads:
        diag = ["report_s"] if w == "chaos_day" else []
        for metric in list(bounds) + diag + ["mem_walk_s", "alu_s"]:
            per_set = []
            for s in range(args.sets):
                vals = [r["metrics"][metric] if metric in bounds else r["diag"][metric]
                        for r in runs if r["workload"] == w and r["set"] == s]
                per_set.append(stats(vals))
            row = {"workload": w, "metric": metric, "bound": bounds.get(metric), "sets": per_set}
            if args.sets >= 2:
                row["set_diff"] = per_set[1]["median"] / per_set[0]["median"] - 1
            if metric in bounds:
                b = bounds[metric]
                spreads = [p["spread"] for p in per_set]
                row["spread_ok"] = all(x <= b / 3 for x in spreads)
                row["diff_ok"] = abs(row.get("set_diff", 0.0)) <= b
                ok &= row["spread_ok"] and row["diff_ok"]
            row["earlier_set_diff"] = EARLIER_DELTAS.get((w, metric))
            table.append(row)

    lines = [
        "| workload | metric | bound | " + " | ".join(
            f"set {s + 1} median [q1, q3] (spread)" for s in range(args.sets))
        + (" | set 2 vs 1 | earlier benchmark, set 2 vs 1 |" if args.sets >= 2 else " |"),
        "|---|---|---|" + "---|" * args.sets + ("---|---|" if args.sets >= 2 else ""),
    ]
    for row in table:
        cells = [row["workload"], row["metric"],
                 "diagnostic" if row["bound"] is None else f"{row['bound']:g}"]
        for p in row["sets"]:
            cells.append(f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
                         f"({p['spread'] * 100:.1f}%)")
        if args.sets >= 2:
            cells.append(f"{row['set_diff'] * 100:+.2f}%")
            earlier = row["earlier_set_diff"]
            cells.append("" if earlier is None else f"{earlier * 100:+.2f}%")
        lines.append("| " + " | ".join(cells) + " |")
    checks = [f"{r['workload']} seed {r['seed']} set {r['set'] + 1}: "
              f"failed {r['failed']} of {r['attempted']} checks"
              + (f", span_drop_share {r['diag']['span_drop_share']}"
                 if "span_drop_share" in r["diag"] else "")
              for r in runs]
    report = "\n".join(lines)
    print(report)
    print("steady" if ok else "NOT steady: a spread exceeds a third of its bound, "
          "or a set moved by more than its bound")

    if args.record:
        with open(os.path.join(HERE, "steadiness.json"), "w") as f:
            json.dump({"run_seconds": seconds, "seeds": seeds, "sets": args.sets,
                       "table": table, "runs": runs}, f, indent=1)
        with open(os.path.join(HERE, "steadiness.md"), "w") as f:
            f.write("# Steadiness record\n\n")
            f.write(f"{args.sets} sets of {len(seeds)} runs per workload (seeds "
                    f"{seeds[0]}..{seeds[-1]}), interleaved across workloads, "
                    f"`--seconds {seconds}`, made with `python3 perfbench/steady.py "
                    f"--record`. Spread is the interquartile distance over the "
                    f"median of one set's runs. chaos_day's `report_s` is printed "
                    f"by every run but is not an end-to-end metric (see README.md). "
                    f"`mem_walk_s` and `alu_s` are the host reference, never "
                    f"folded into a metric.\n\n")
            f.write(report + "\n\n")
            f.write("Verdict: " + ("every spread below a third of its bound and "
                                   "every set difference within its bound.\n"
                                   if ok else "NOT steady.\n"))
            f.write("\n## Output checks per run\n\n")
            f.write("\n".join(f"- {c}" for c in checks) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
