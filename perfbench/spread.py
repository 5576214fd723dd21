#!/usr/bin/env python3
"""Measure the benchmark's own noise.

    python3 perfbench/spread.py [--workloads sweep_warm,serve_hits]
        [--seeds 1-10] [--batches 2] [--seconds 15] [--trace 0]

Runs `perfbench/run.py` once per (batch, workload, seed), from the
repository root, and prints per batch and metric the median and the
spread: (Q3 - Q1) / median, quartiles as `statistics.quantiles(n=4)`
gives them. Workloads and seconds default to BENCHMARK.json's. With two
or more batches it also prints each later batch's median shift against
the first, signed so that positive is worse, and checks both against the
bounds in BENCHMARK.json. Batch b uses seeds
offset by 100 * b, so batches share no seed. A summary goes to
perfbench/out/spread-<unix time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.time() - t0
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = seed_list(args.seeds)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    runs = {}  # (batch, workload) -> [result]
    for b in range(args.batches):
        for w in workloads:
            for s in seeds:
                r = run_once(w, s + 100 * b, seconds, args.trace)
                runs.setdefault((b, w), []).append(r)
                print(f"batch {b} {w} seed {s + 100 * b}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"({r['elapsed_s']:.1f} s)", file=sys.stderr)

    summary = {"seconds": seconds, "seeds": seeds, "batches": args.batches, "rows": []}
    ok = True
    print(f"{'workload':<11} {'metric':<34} " + " ".join(
        f"{'median' + str(b):>13} {'spread' + str(b):>8}" for b in range(args.batches))
        + (f" {'shift':>7} {'bound':>6}" if args.batches > 1 else ""))
    for w in workloads:
        names = list(runs[(0, w)][0]["metrics"])
        for name in names:
            row = {"workload": w, "metric": name, "batches": []}
            cells = []
            for b in range(args.batches):
                values = [r["metrics"][name]["value"] for r in runs[(b, w)]]
                med, spr = spread(values)
                row["batches"].append({"median": med, "spread": spr, "values": values})
                cells.append(f"{med:>13.6g} {spr:>8.3f}")
            line = f"{w:<11} {name:<34} " + " ".join(cells)
            bound = spec.get(name, {}).get("bound")
            if args.batches > 1:
                first = row["batches"][0]["median"]
                last = row["batches"][-1]["median"]
                sign = -1 if spec.get(name, {}).get("better") == "higher" else 1
                shift = sign * (last - first) / first if first else 0.0
                row["shift"] = shift
                line += f" {shift:>7.3f} {bound if bound is not None else '-':>6}"
                if bound is not None and shift > bound:
                    ok = False
                    line += "  SHIFT > BOUND"
            if bound is not None and name != "setup_s":
                worst = max(bt["spread"] for bt in row["batches"])
                if worst > bound:
                    ok = False
                    line += "  SPREAD > BOUND"
                elif worst > bound / 3:
                    line += "  spread > bound/3"
            print(line)
            summary["rows"].append(row)
    for (b, w), rs in runs.items():
        bad = [r for r in rs if not r["correct"]]
        if bad:
            ok = False
            print(f"batch {b} {w}: {len(bad)} incorrect runs")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{int(time.time())}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"summary: {path}; {'within bounds' if ok else 'OUTSIDE BOUNDS'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
