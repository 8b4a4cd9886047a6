"""Benchmark entry point for moebius-dual.

    python3 bench/run.py --workload certificates --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop with a single client: the next job starts
only after the previous one returned.  Jobs come from ``bench/spec.json`` and
the seed alone, and run against ``src/`` of the checkout this file sits in.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run with span wrappers installed.  Every job's output
is checked (see jobs.check); the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

Working files go to ``.bench_work/`` in the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, BENCH_DIR)
import jobs  # noqa: E402
import speed  # noqa: E402

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "speedo = speed.Speedometer(float(sys.argv[3]))\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "speedo.start()\n"
    "t = time.perf_counter_ns()\n"
    "import moebius_dual, moebius_dual.cli\n"
    "t1 = time.perf_counter_ns()\n"
    "print(t1 - t - speedo.stop(t1), speedo.mean_ns)\n"
)


class SetupProbes:
    """Import times of moebius_dual and its CLI, each in a fresh interpreter,
    as a workload process pays them before its first job, scaled to the
    reference host speed like the job latencies.  The probes are spread over
    the timed phase, between rounds, so that setup_s samples the host over
    the same stretch of time as the job metrics."""

    def __init__(self, count: int, reference_ns: float, period_s: float):
        self.count = count
        self.reference_ns = reference_ns
        self.period_s = period_s
        self.times = []  # import time at the reference speed, in s
        self.raw = []  # import time as measured, in s

    def catch_up(self, share: float):
        """Probe until ``share`` of the probes are done."""
        while len(self.times) < self.count * min(share, 1.0):
            out = subprocess.run(
                [sys.executable, "-c", PROBE, SRC, BENCH_DIR, str(self.period_s)], cwd=ROOT,
                check=True, capture_output=True, text=True, timeout=120)
            import_ns, calibration = map(float, out.stdout.split())
            self.raw.append(import_ns / 1e9)
            self.times.append(import_ns * self.reference_ns / calibration / 1e9)


def run_rounds(rounds, md, cli, workdir, budget_s, min_cycles, tally, tracer=None, probes=None,
               speedo=None):
    """Cycle the distinct rounds until the jobs' own time reaches ``budget_s``
    and at least ``min_cycles`` cycles ran, always ending on a whole cycle,
    so every distinct job runs equally often.  ``probes`` catch up after
    each round.  Returns the number of rounds run."""
    busy_ns = 0
    r = 0
    while True:
        tally.new_round()
        # each round starts from a collected heap, outside the timed region
        gc.collect()
        for job in rounds[r % len(rounds)]:
            outcome = jobs.run_job(job, md, cli, workdir, tracer, speedo)
            busy_ns += outcome.latency_ns
            tally.add(job, outcome)
        r += 1
        if probes is not None:
            probes.catch_up(busy_ns / (budget_s * 1e9))
        if busy_ns >= budget_s * 1e9 and r % len(rounds) == 0 and r >= min_cycles * len(rounds):
            return r


class Tally:
    """Latencies and verdicts of the jobs of the timed phase."""

    def __init__(self, digests, pinned, reference_ns=None):
        self.digests = digests
        self.reference_ns = reference_ns
        self.pinned = pinned
        self.seen = {}
        self.latency_ns = []
        self.by_label = {}
        self.by_key = {}  # latencies of each distinct job
        self.scaled_by_key = {}  # the same, scaled to the reference host speed
        self.failed_keys = set()
        self.failures = []
        self.round_ns = []  # busy time of each round

    def new_round(self):
        self.round_ns.append(0)

    def add(self, job, outcome):
        reason = jobs.check(job, outcome, self.digests, self.pinned, self.seen)
        self.latency_ns.append(outcome.latency_ns)
        self.by_label.setdefault(job.label, []).append(outcome.latency_ns)
        self.by_key.setdefault(job.key, []).append(outcome.latency_ns)
        if outcome.calibration_ns:
            self.scaled_by_key.setdefault(job.key, []).append(
                outcome.latency_ns * self.reference_ns / outcome.calibration_ns)
        self.round_ns[-1] += outcome.latency_ns
        if reason:
            self.failures.append((job.label, reason))
            self.failed_keys.add(job.key)


def cycle_figures(per_job_ms, correct):
    """jobs_per_s, job_ms_p50 and job_ms_p90 of one cycle of the distinct
    rounds, with each job at the given latency."""
    return {
        "jobs_per_s": (1e3 * correct / sum(per_job_ms), "1/s"),
        "job_ms_p50": (statistics.median(per_job_ms), "ms"),
        "job_ms_p90": (statistics.quantiles(per_job_ms, n=10)[8], "ms"),
    }


def end_to_end(tally, rounds, setup_s):
    """Each distinct job ran in every cycle of the distinct rounds, so
    several times, spread over the run; its latency is the median of those
    runs, each scaled to the reference host speed.  The time metrics are
    those of one cycle of the distinct rounds at these latencies."""
    cycle = [job for round_jobs in rounds for job in round_jobs]
    correct = sum(job.key not in tally.failed_keys for job in cycle)
    scaled_ms = [statistics.median(tally.scaled_by_key[job.key]) / 1e6 for job in cycle]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {"setup_s": (setup_s, "s"), **cycle_figures(scaled_ms, correct),
         "peak_rss_mb": (rss_kb / 1024, "MB")}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def as_measured(tally, rounds, probes):
    """The time metrics without scaling: the median import time, and each
    job at the median of its measured latencies.  Printed, not reported."""
    cycle = [job for round_jobs in rounds for job in round_jobs]
    correct = sum(job.key not in tally.failed_keys for job in cycle)
    raw_ms = [statistics.median(tally.by_key[job.key]) / 1e6 for job in cycle]
    figures = {k: v for k, (v, _) in cycle_figures(raw_ms, correct).items()}
    return {"setup_s": statistics.median(probes.raw), **figures}


def main(argv=None) -> int:
    spec = jobs.load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "moebius_dual", "cli.py")):
        print(f"error: no moebius_dual sources under {SRC}", file=sys.stderr)
        return 2

    rounds = jobs.generate(args.workload, args.seed, spec)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        jobs.write_inputs(rounds, workdir)
        return measure(args, spec, rounds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, rounds, workdir) -> int:
    sys.path.insert(0, SRC)
    import moebius_dual as md
    import moebius_dual.cli as cli

    pinned = args.seed in spec["pinned_seeds"]
    tally = Tally(jobs.load_digests(), pinned, spec["reference_calibration_ns"])
    round_jobs = len(rounds[0])
    print(f"workload {args.workload}  seed {args.seed}  pinned {pinned}  "
          f"inputs_sha256 {jobs.inputs_sha256(rounds)}")
    print(f"  {round_jobs} jobs per round, {len(rounds)} distinct rounds, closed loop, "
          f"1 client, 1 thread")

    if not args.trace:
        speedo = speed.Speedometer(spec["calibration_period_s"])
        probes = SetupProbes(spec["setup_probes"], tally.reference_ns, speedo.period_s)
        n_rounds = run_rounds(rounds, md, cli, workdir, args.seconds, spec["min_cycles"], tally,
                              probes=probes, speedo=speedo)
        probes.catch_up(1.0)
        metrics = end_to_end(tally, rounds, statistics.median(probes.times))
        raw = as_measured(tally, rounds, probes)
        print("  as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    else:
        import spans

        # the first half untraced, the second half traced; both run whole
        # cycles, so per-round counts do not depend on host speed
        ref = Tally(tally.digests, pinned)
        run_rounds(rounds, md, cli, workdir, args.seconds / 2, 1, ref)
        tracer = spans.Tracer()
        installed = spans.install(tracer)
        try:
            n_rounds = run_rounds(rounds, md, cli, workdir, args.seconds / 2, 1, tally, tracer)
        finally:
            installed.uninstall()
        overhead_s = (statistics.median(tally.round_ns) - statistics.median(ref.round_ns)) / 1e9
        metrics = spans.metrics(tracer, n_rounds, overhead_s)
        report_trace(args, metrics)
        tracer.write_jsonl(os.path.join(WORK, f"trace-{args.workload}.jsonl"))
        tally.failures += ref.failures

    attempted = len(tally.latency_ns) + (len(ref.latency_ns) if args.trace else 0)
    failed = len(tally.failures)
    report_run(args, tally, n_rounds, attempted, failed, metrics)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def report_run(args, tally, n_rounds, attempted, failed, metrics):
    reps = min(len(lat) for lat in tally.by_key.values())
    print(f"  {n_rounds} rounds, {len(tally.latency_ns)} timed jobs (latency samples), "
          f"{len(tally.by_key)} distinct jobs, each run at least {reps} times, "
          f"error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for label, reason in tally.failures[:10]:
        print(f"  FAILED {label}: {reason}")
    for label, lat in sorted(tally.by_label.items()):
        print(f"  {statistics.median(lat) / 1e6:10.2f} ms median  x{len(lat):<4d} {label}")
    if not args.trace:
        for k, v in metrics.items():
            print(f"  {k:14s} {v['value']:.6g} {v['unit']}")


def report_trace(args, metrics):
    import spans

    wall = metrics["trace.job_wall_s"]["value"]
    layer_sum = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    print(f"  traced job wall {wall:.4f} s/round, layer self times sum to {layer_sum:.4f} "
          f"s/round ({'agree' if abs(layer_sum - wall) <= 1e-6 * max(wall, 1) else 'DISAGREE'})")
    print(f"  tracing overhead {metrics['trace.overhead_s']['value']:+.4f} s per round "
          "(median traced minus median untraced round)")
    for layer in spans.LAYERS:
        v = metrics[f"{layer}.self_s"]["value"]
        print(f"  {layer:16s} {v:9.4f} s/round  {100 * v / wall if wall else 0:5.1f}%")
    groups = sorted(((metrics[f"{g}.self_s"]["value"], g) for g in spans.GROUPS), reverse=True)
    print("  top metrics: " + ", ".join(f"{g} {v:.3f}" for v, g in groups[:5]))
    expected = {
        "certificates": ("duality+rational", ("duality", "rational")),
        "lattices": ("rational.matmul", None),
        "population": ("cannings+rational", ("cannings", "rational")),
    }[args.workload]
    if expected[1] is None:
        agree = groups[0][1] == expected[0]
    else:
        share = sum(metrics[f"{layer}.self_s"]["value"] for layer in expected[1])
        agree = wall > 0 and share / wall > 0.5
    print(f"  dominant layer check: expected {expected[0]}: "
          f"{'agrees' if agree else 'DISAGREES'}")


if __name__ == "__main__":
    sys.exit(main())
