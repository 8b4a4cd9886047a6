"""Measure the baseline of every workload and store it in bench/spec.json.

    python3 bench/baseline.py

Runs ``run.py`` once per seed 1..10 on each workload, one run at a time,
with the run length of BENCHMARK.json, and records per end-to-end metric
every run's value, the median, the quartiles and the quartile spread as a
share of the median (``statistics.quantiles(values, n=4)``).  Prints a
table with each spread against a third of the metric's bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import jobs
from run import BENCH_DIR, ROOT

SEEDS = list(range(1, 11))


def main() -> int:
    with open(f"{ROOT}/BENCHMARK.json") as fh:
        bench = json.load(fh)
    spec = jobs.load_spec()
    baseline = {"runs": len(SEEDS), "seeds": SEEDS,
                "seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in baseline["seeds"]:
            out = subprocess.run(
                [sys.executable, f"{BENCH_DIR}/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
            ok &= results[-1]["correct"]
        table = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            table[name] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "values": values}
            flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
            print(f"{wl:13s} {name:12s} median {med:10.4f} {metric['unit']:4s} "
                  f"spread {spread:.4f} (bound/3 {metric['bound'] / 3:.4f}) {flag}", flush=True)
        table["failed"] = sum(r["failed"] for r in results)
        table["attempted"] = sum(r["attempted"] for r in results)
        baseline["workloads"][wl] = table
    spec["baseline"] = baseline
    with open(jobs.SPEC_PATH, "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
