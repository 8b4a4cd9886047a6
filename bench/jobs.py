"""Job generation, execution and the per-job correctness oracle.

A job is either a CLI run (``moebius_dual.cli.main(argv)`` in-process, with
``--output`` to a file) or a short sequence of public API calls.  Jobs are
generated from the workload seed alone; the program only ever sees the
generated argv, kernel files and API arguments.

Each job has a content key: the sha256 of its kind, argv or API arguments
and input file.  ``digests.json`` maps keys to the sha256 of the canonical
output recorded for the pinned seeds, so a job with a known key must
reproduce that output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(BENCH_DIR, "spec.json")
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
INPUT_TOKEN = "{input}"


def load_spec():
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def load_digests():
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    kind: str  # "cli" or an API kind
    label: str  # job kind as reported: the argv without seeded values, or the API call
    argv: tuple  # CLI argv; INPUT_TOKEN stands for the input file path
    api: str  # canonical JSON of the API arguments, "" for CLI jobs
    input_text: str  # content of the input file, "" when there is none
    key: str

    @classmethod
    def make(cls, kind, label, argv=(), api=None, input_text=""):
        api_text = "" if api is None else json.dumps(api, sort_keys=True)
        key = sha256(json.dumps([kind, list(argv), api_text, input_text]))
        return cls(kind, label, tuple(argv), api_text, input_text, key)


@dataclass
class Outcome:
    latency_ns: int
    exit_code: int | None  # None when the job raised
    canonical: str  # the output the digest is taken over
    report: object  # parsed CLI report or ZetaPair, for the verdict checks
    error: str
    invariant: list | None = None  # invariant distribution of a duality job's kernel
    calibration_ns: float = 0.0  # mean calibration time over the job (speed.Speedometer)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _subset_zeta(n):
    """Z(a, b) = 1 if a is a subset of b, over masks in (popcount, value) order."""
    masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
    return [[1 if a & ~b == 0 else 0 for b in masks] for a in masks]


def _matrix_json(rows):
    return json.dumps(
        {"rows": len(rows), "cols": len(rows[0]),
         "entries": [[_fmt(Fraction(v)) for v in row] for row in rows]}
    )


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _strongly_connected(rows) -> bool:
    n = len(rows)
    for adj in (rows, [list(c) for c in zip(*rows)]):
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            for j in range(n):
                if adj[i][j] != 0 and j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) != n:
            return False
    return True


VARIANTS = ("zeta", "zeta-transpose", "moebius", "moebius-transpose")
# per variant: does the certificate use columns of P, and is the cone transposed
_USES_COLUMNS = {"zeta": True, "zeta-transpose": True, "moebius": False, "moebius-transpose": False}
_TRANSPOSED = {"zeta": False, "zeta-transpose": True, "moebius": True, "moebius-transpose": False}


def _random_kernel(rng, size):
    """Row-stochastic kernel with entries k/6: six draws of a target per row."""
    rows = []
    for _ in range(size):
        row = [0] * size
        for _ in range(6):
            row[rng.randrange(size)] += 1
        rows.append([Fraction(c, 6) for c in row])
    return rows


def _cone_kernel(rng, n, variant):
    """Every column (or row) is Z g (or Z' g) for a random g >= 0, so the
    part-(ii) condition holds for the variant."""
    size = 1 << n
    z = _subset_zeta(n)
    base = [list(c) for c in zip(*z)] if _TRANSPOSED[variant] else z
    vecs = []
    for _ in range(size):
        g = [rng.randrange(0, 4) for _ in range(size)]
        vecs.append([sum(base[i][k] * g[k] for k in range(size)) for i in range(size)])
    if _USES_COLUMNS[variant]:
        return [[vecs[j][i] for j in range(size)] for i in range(size)]
    return vecs


def _gen_duality(rng, entry, variant, cone):
    n = entry["n"]
    size = 1 << n
    rows = _cone_kernel(rng, n, variant) if cone else _random_kernel(rng, size)
    argv = ["duality", "--n", str(n), "--variant", variant, "--kernel", INPUT_TOKEN]
    # a stochastic irreducible kernel also gets its exact invariant distribution
    api = {"invariant": (not cone) and _strongly_connected(rows)}
    label = f"duality --n {n} ({'cone' if cone else 'random'})"
    return Job.make(entry["kind"], label, argv, api, _matrix_json(rows))


def _gen_divisibility(rng, entry):
    labels = sorted(rng.sample(range(1, entry["max_label"] + 1), entry["labels"]))
    label = f"moebius_matrix(divisibility, {entry['labels']} labels)"
    return Job.make(entry["kind"], label, api={"labels": labels})


def _gen_chain_product(rng, entry):
    lengths = list(entry["lengths"])
    rng.shuffle(lengths)
    label = f"moebius_matrix(product_poset(chain, chain), {lengths[0] * lengths[1]} elements)"
    return Job.make(entry["kind"], label, api={"lengths": lengths})


def _gen_simulate(rng, entry, steps):
    n = entry["N"]
    argv = ["simulate", "--model", entry["model"], "--N", str(n),
            "--steps", str(steps), "--reps", str(entry["reps"]),
            "--seed", str(rng.randrange(1 << 31)),
            "--start", str(rng.randint(1, n)), "--dual-start", str(rng.randint(1, n))]
    label = f"simulate --model {entry['model']} --N {n} --steps {steps}"
    return Job.make("simulate", label, argv)


def _round_jobs(rng, mix, k):
    """The jobs of round ``k``, shuffled; variants and steps rotate with ``k``."""
    out = []
    for entry in mix:
        kind = entry["kind"]
        for i in range(k * entry["per_round"], (k + 1) * entry["per_round"]):
            if kind == "cli":
                out.append(Job.make("cli", " ".join(entry["argv"]), entry["argv"]))
            elif kind in ("duality_random", "duality_cone"):
                variant = VARIANTS[i % len(VARIANTS)]
                out.append(_gen_duality(rng, entry, variant, kind == "duality_cone"))
            elif kind == "subset_lattice_api":
                out.append(Job.make(kind, f"subset_lattice({entry['n']})", api={"n": entry["n"]}))
            elif kind == "divisibility_api":
                out.append(_gen_divisibility(rng, entry))
            elif kind == "chain_product_api":
                out.append(_gen_chain_product(rng, entry))
            elif kind == "simulate":
                steps = entry["steps"]
                out.append(_gen_simulate(rng, entry, steps[i % len(steps)]))
            else:
                raise ValueError(f"unknown job kind {kind!r} in spec.json")
    rng.shuffle(out)
    return out


def generate(workload: str, seed: int, spec=None):
    """The job list of a workload: ``distinct_rounds`` rounds, each the full
    mix in a seeded order.  Depends on nothing but the spec and the seed."""
    spec = spec or load_spec()
    wl = spec["workloads"][workload]
    rng = random.Random(f"{workload}:{seed}")
    return [_round_jobs(rng, wl["mix"], k) for k in range(wl["distinct_rounds"])]


def inputs_sha256(rounds) -> str:
    """One digest over every generated argv, API argument and input file."""
    h = hashlib.sha256()
    for round_jobs in rounds:
        for job in round_jobs:
            h.update(job.key.encode())
    return h.hexdigest()


def write_inputs(rounds, workdir):
    for round_jobs in rounds:
        for job in round_jobs:
            if job.input_text:
                path = input_path(job, workdir)
                if not os.path.exists(path):
                    with open(path, "w") as fh:
                        fh.write(job.input_text)


def input_path(job, workdir):
    return os.path.join(workdir, f"in-{job.key[:24]}.json")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _canonical_mu(zp) -> str:
    """Elements in index order and every mu(a, b) by index pair."""
    idx = zp.poset.index
    mu = sorted((idx[a], idx[b], v) for (a, b), v in zp.mu.items())
    return json.dumps({"elements": [str(e) for e in zp.poset.elements], "mu": mu},
                      separators=(",", ":"))


def run_job(job, md, cli, workdir, tracer=None, speedo=None) -> Outcome:
    """Run one job; only the calls into the program are inside the latency,
    and with a speedometer the time of its samples is taken out of it."""
    out_path = os.path.join(workdir, "out.txt")
    api = json.loads(job.api) if job.api else {}
    result = None
    exit_code = None
    error = ""
    if tracer is not None:
        tracer.begin_job()
    if speedo is not None:
        speedo.start()
    t0 = time.perf_counter_ns()
    try:
        if job.argv:
            argv = [input_path(job, workdir) if a == INPUT_TOKEN else a for a in job.argv]
            exit_code = cli.main(argv + ["--output", out_path])
            if exit_code == 0 and api.get("invariant"):
                with open(input_path(job, workdir)) as fh:
                    kernel = md.Kernel.of(md.RationalMatrix.from_json(fh.read()))
                result = md.invariant_distribution(kernel)
        elif job.kind == "subset_lattice_api":
            result = md.subset_lattice(api["n"]).pair
            exit_code = 0
        elif job.kind == "divisibility_api":
            poset = md.build_poset(api["labels"], lambda a, b: b % a == 0)
            result = md.moebius_matrix(poset)
            exit_code = 0
        elif job.kind == "chain_product_api":
            c1, c2 = (md.build_poset(range(k), lambda a, b: a <= b) for k in api["lengths"])
            result = md.moebius_matrix(md.product_poset(c1, c2))
            exit_code = 0
    except Exception as exc:  # a raising job is a failed job, and the loop goes on
        exit_code = None
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter_ns()
    latency_ns, calibration = t1 - t0, 0.0
    if speedo is not None:
        latency_ns -= speedo.stop(t1)
        calibration = speedo.mean_ns
    if tracer is not None:
        tracer.end_job()
    if exit_code != 0:
        return Outcome(latency_ns, exit_code, "", None, error or f"exit code {exit_code}",
                       calibration_ns=calibration)
    if job.argv:
        with open(out_path) as fh:
            text = fh.read()
        report = json.loads(text)
        if result is not None:
            text += "invariant: " + " ".join(_fmt(x) for x in result) + "\n"
        return Outcome(latency_ns, exit_code, text, report, "", result, calibration)
    return Outcome(latency_ns, exit_code, _canonical_mu(result), result, "",
                   calibration_ns=calibration)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def _check_duality(job, report, rho):
    if rho is not None:
        kernel = json.loads(job.input_text)["entries"]
        p = [[Fraction(v) for v in row] for row in kernel]
        if sum(rho) != 1 or any(x <= 0 for x in rho):
            return "invariant distribution is not a positive probability vector"
        if [sum(rho[i] * p[i][j] for i in range(len(p))) for j in range(len(p))] != list(rho):
            return "invariant distribution is not invariant"
    if report["condition_i"] != report["Q_nonnegative"]:
        return "condition_i != Q_nonnegative"
    if report["condition_ii"] and not report["monotone"]:
        return "condition (ii) holds but Q is not monotone"
    if job.kind == "duality_cone" and not report["condition_ii"]:
        return "cone-built kernel fails condition (ii)"
    return None


def _check_cli(job, report):
    command = job.argv[0]
    if command == "cannings":
        if report.get("transpose_zeta_duality") is False:
            return "transpose_zeta_duality is false"
        if report.get("coarse_duality_verified") is not True:
            return "coarse_duality_verified is not true"
        if not report.get("forward_stochastic"):
            return "forward kernel not stochastic"
        if not (report.get("backward_stochastic") or report.get("backward_substochastic")):
            return "backward kernel not (sub)stochastic"
    elif command == "coarsen" and job.argv[1] == "sets":
        if report.get("enumeration_agrees") is not True:
            return "enumeration_agrees is not true"
    elif command == "lattice":
        n = int(job.argv[job.argv.index("--n") + 1])
        size = (1 << n) if job.argv[1] == "subsets" else _bell(n)
        if report["rows"] != size or report["cols"] != size:
            return f"lattice matrix is not {size}x{size}"
        if any(report["entries"][i][i] != "1" for i in range(size)):
            return "Moebius diagonal is not 1"
    elif command == "simulate":
        exact = float(Fraction(report["exact"]))
        for side in ("forward", "backward"):
            mean, se = report[f"{side}_mean"], report[f"{side}_stderr"]
            if abs(mean - exact) > 6 * se + 1e-9:
                return f"{side} estimate {mean} is more than 6 standard errors from {exact}"
    return None


def _bell(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _check_api(job, zp):
    api = json.loads(job.api)
    idx = zp.poset.index
    if job.kind == "subset_lattice_api":
        for (a, b), v in zp.mu.items():
            if a & ~b or v != (-1) ** (bin(b).count("1") - bin(a).count("1")):
                return f"mu({a}, {b}) = {v} differs from the closed form"
        if len(zp.poset) != 1 << api["n"]:
            return "wrong number of subsets"
    elif job.kind == "chain_product_api":
        for ((a1, a2), (b1, b2)), v in zp.mu.items():
            chain_mu = [1 if b == a else -1 if b == a + 1 else 0 for a, b in ((a1, b1), (a2, b2))]
            if v != chain_mu[0] * chain_mu[1]:
                return f"mu({(a1, a2)}, {(b1, b2)}) = {v} differs from the product formula"
        if len(idx) != api["lengths"][0] * api["lengths"][1]:
            return "wrong number of product elements"
    elif job.kind == "divisibility_api":
        if set(idx) != set(api["labels"]):
            return "poset elements differ from the labels"
    return None


def digest_key(job) -> str:
    """Table key of a job: a 128-bit prefix of its content key."""
    return job.key[:32]


def output_digest(outcome) -> str:
    return sha256(outcome.canonical)[:32]


def check(job, outcome, digests, pinned, seen) -> str | None:
    """The reason the job counts as failed, or None if it is correct.

    ``digests`` maps job keys to the output digests recorded for the pinned
    seeds; a job whose key is there must reproduce that output, and on a
    pinned seed every job must find its key.  ``seen`` holds the digests of
    this run, so a job repeated within a run must reproduce its own output.
    """
    if outcome.error or outcome.exit_code != 0:
        return outcome.error or f"exit code {outcome.exit_code}"
    try:
        if job.argv and job.argv[0] == "duality":
            reason = _check_duality(job, outcome.report, outcome.invariant)
        elif job.argv:
            reason = _check_cli(job, outcome.report)
        else:
            reason = _check_api(job, outcome.report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
    if reason:
        return reason
    key, digest = digest_key(job), output_digest(outcome)
    want = digests.get(key)
    if want is None and pinned:
        return "no digest recorded for this pinned-seed job"
    if want is not None and want != digest:
        return "output digest differs from the recorded one"
    if seen.setdefault(key, digest) != digest:
        return "output differs from an earlier run of the same job"
    return None
