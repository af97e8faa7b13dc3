#!/usr/bin/env python3
"""Records the benchmark's baseline into benchmark/BASELINE.json.

Run from the repository root:

    python3 benchmark/baseline.py [--sets 2] [--seeds 10] [--out benchmark/BASELINE.json]

Every run is the command in BENCHMARK.json with `--workload W --seed S
--seconds <run_seconds> --trace 0`; set k uses seeds k*N+1 .. k*N+N, and
within a workload the sets take turns run by run. For
every (workload, end-to-end metric) and set the record keeps the values,
their median and quartiles (`statistics.quantiles(values, n=4)`), and the
spread (interquartile distance over the median), plus the host's nproc
and CPU model and each workload's run wall times. It summarizes the
record-only `op_wall_p50_ms` and `host.kernel_ms` the same way, to show
what the host-speed scaling removed. For every metric it
prints the bound the spreads support: three times the widest spread of
any (workload, set), at most 0.25. Runs whose result is not correct are
recorded and reported, never dropped. Exits 1 if any run failed or was
incorrect.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

# Record-only metrics summarized beside the declared ones: the raw wall
# clock of the operations and the host-speed kernel's time.
HOST_METRICS = [("op_wall_p50_ms", "ms"), ("host.kernel_ms", "ms")]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return {
        "values": values,
        "median": centre,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / centre if centre else 0.0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out", default="benchmark/BASELINE.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, ok = [], True
    # The sets alternate run by run, so that a slow spell of the host
    # falls on both rather than on one.
    for w in bench["workloads"]:
        for i in range(args.seeds):
            for k in range(args.sets):
                seed = k * args.seeds + i + 1
                cmd = bench["command"] + ["--workload", w["name"], "--seed", str(seed),
                                          "--seconds", seconds, "--trace", "0"]
                start = time.monotonic()
                p = subprocess.run(cmd, capture_output=True, text=True)
                wall = time.monotonic() - start
                lines = p.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print(f"set {k} {w['name']} seed {seed}: no result (exit {p.returncode})\n"
                          f"{p.stderr[-2000:]}", file=sys.stderr)
                    ok = False
                    continue
                ok = ok and p.returncode == 0 and result["correct"]
                for line in lines[:-1]:
                    name, _, rest = line.partition(" ")
                    if name in dict(HOST_METRICS):
                        result["metrics"][name] = {"value": float(rest.split()[0])}
                runs.append({"set": k, "workload": w["name"], "seed": seed, "wall": wall,
                             **result})
                print(f"set {k} {w['name']} seed {seed}: correct={result['correct']}"
                      f" wall {wall:.1f} s", flush=True)

    metrics, walls = {}, {}
    widest = {m["name"]: 0.0 for m in bench["end_to_end"]}
    for w in bench["workloads"]:
        metrics[w["name"]] = {}
        ws = [r["wall"] for r in runs if r["workload"] == w["name"]]
        if ws:
            walls[w["name"]] = {"median": statistics.median(ws), "max": max(ws)}
        host = [{"name": n, "unit": u, "better": "lower", "record_only": True}
                for n, u in HOST_METRICS]
        for m in bench["end_to_end"] + host:
            sets = []
            for k in range(args.sets):
                values = [r["metrics"][m["name"]]["value"] for r in runs
                          if r["set"] == k and r["workload"] == w["name"]
                          and m["name"] in r["metrics"]]
                if len(values) >= 2:
                    sets.append(summary(values))
            entry = {"unit": m["unit"], "better": m["better"], "sets": sets}
            if m.get("record_only"):
                entry["record_only"] = True
            if len(sets) >= 2 and sets[0]["median"]:
                sign = 1 if m["better"] == "lower" else -1
                entry["worsening"] = sign * (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
            if not sets:
                continue
            metrics[w["name"]][m["name"]] = entry
            spreads = " ".join(f"{s['spread']:.4f}" for s in sets)
            bound = "-" if m.get("record_only") else bounds[m["name"]]
            print(f"{w['name']:12} {m['name']:14} bound {bound:<5} spreads {spreads}"
                  f" worsening {entry.get('worsening', 0):+.4f}")
            if not m.get("record_only"):
                widest[m["name"]] = max([widest[m["name"]]] + [s["spread"] for s in sets])
    for name, spread in widest.items():
        supported = min(0.25, math.ceil(300 * spread) / 100)
        print(f"{name:14} widest spread {spread:.4f} supports bound {supported:.2f}"
              f" (declared {bounds[name]})")

    record = {
        "schema": "sadp-bench-baseline/v1",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "run_seconds": bench["run_seconds"],
        "sets": [{"seeds": [k * args.seeds + 1, (k + 1) * args.seeds]} for k in range(args.sets)],
        "runs": len(runs),
        "wall_s": walls,
        "metrics": metrics,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
