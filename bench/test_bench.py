"""Tests of the benchmark itself: input determinism, the correctness oracle
and the span bookkeeping.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import os
import sys

import pytest

import jobs
import spans

sys.path.insert(0, os.path.join(os.path.dirname(jobs.BENCH_DIR), "src"))
import moebius_dual as md  # noqa: E402
import moebius_dual.cli as cli  # noqa: E402


def _first(rounds, pred):
    return next(j for r in rounds for j in r if pred(j))


@pytest.fixture(scope="module")
def cert_rounds():
    return jobs.generate("certificates", 0)


def test_seed_fully_determines_inputs():
    for workload in jobs.load_spec()["workloads"]:
        a, b = jobs.generate(workload, 5), jobs.generate(workload, 5)
        assert jobs.inputs_sha256(a) == jobs.inputs_sha256(b)
        assert jobs.inputs_sha256(a) != jobs.inputs_sha256(jobs.generate(workload, 6))


def test_pinned_seeds_have_recorded_digests():
    spec, digests = jobs.load_spec(), jobs.load_digests()
    for workload in spec["workloads"]:
        for seed in spec["pinned_seeds"]:
            for r in jobs.generate(workload, seed, spec):
                assert all(jobs.digest_key(j) in digests for j in r)


def _run(job, tmp_path, tracer=None):
    jobs.write_inputs([[job]], str(tmp_path))
    return jobs.run_job(job, md, cli, str(tmp_path), tracer)


def test_recorded_output_is_correct(cert_rounds, tmp_path):
    job = _first(cert_rounds, lambda j: "--n 3" in j.label)
    outcome = _run(job, tmp_path)
    assert jobs.check(job, outcome, jobs.load_digests(), True, {}) is None


def test_perturbed_output_counts_as_failure(cert_rounds, tmp_path):
    job = _first(cert_rounds, lambda j: "--n 3" in j.label)
    outcome = _run(job, tmp_path)
    digests = jobs.load_digests()

    # one changed entry of Q: verdicts still hold, the digest does not
    doc = json.loads(outcome.canonical.split("invariant:")[0])
    doc["Q"]["entries"][0][0] = "12345/7"
    changed = dataclasses.replace(outcome, canonical=json.dumps(doc, indent=2) + "\n")
    assert jobs.check(job, changed, digests, True, {}) == (
        "output digest differs from the recorded one")

    # a false verdict fails even for a seed with no recorded digests
    flipped = dict(outcome.report, condition_i=not outcome.report["condition_i"])
    wrong = dataclasses.replace(outcome, report=flipped)
    assert jobs.check(job, wrong, {}, False, {}) == "condition_i != Q_nonnegative"

    # a repeat of the same job that differs from the first run fails
    seen = {}
    assert jobs.check(job, outcome, {}, False, seen) is None
    assert jobs.check(job, changed, {}, False, seen) == (
        "output differs from an earlier run of the same job")


def test_perturbed_api_result_counts_as_failure(tmp_path):
    job = jobs.Job.make("chain_product_api", "chain product", api={"lengths": [3, 4]})
    outcome = _run(job, tmp_path)
    assert jobs.check(job, outcome, {}, False, {}) is None
    zp = outcome.report
    pair = next(k for k, v in zp.mu.items() if v == -1)
    bad = dataclasses.replace(outcome, report=dataclasses.replace(zp, mu={**zp.mu, pair: 1}))
    assert "product formula" in jobs.check(job, bad, {}, False, {})


def test_failing_job_counts_as_failure(tmp_path):
    argv = ["duality", "--n", "1", "--kernel", jobs.INPUT_TOKEN]
    job = jobs.Job.make("duality_random", "bad kernel", argv, {"invariant": False},
                        json.dumps({"rows": 2, "cols": 2, "entries": [[0.5, 0.5], [1, 0]]}))
    outcome = _run(job, tmp_path)
    assert outcome.exit_code == 2
    assert jobs.check(job, outcome, {}, False, {}) == "exit code 2"

    raising = jobs.Job.make("divisibility_api", "label 0", api={"labels": [0, 1, 2]})
    outcome = _run(raising, tmp_path)
    assert outcome.exit_code is None
    assert jobs.check(raising, outcome, {}, False, {}).startswith("ZeroDivisionError")


def test_span_self_times_add_up_to_job_wall(cert_rounds, tmp_path):
    original = md.duality.h_dual
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        assert md.coarse_graining.h_dual is md.duality.h_dual is not original
        for job in cert_rounds[0][:4]:
            _run(job, tmp_path, tracer)
    finally:
        installed.uninstall()
    assert md.duality.h_dual is original and md.coarse_graining.h_dual is original
    assert not hasattr(md.RationalMatrix.__matmul__, "__wrapped__")

    total_self = sum(tracer.self_ns)
    job_wall = tracer.total_ns[tracer.name_id(spans.ROOT)]
    assert total_self == job_wall
    assert tracer.calls_of("cli.main") == 4
    assert tracer.calls_of("duality.h_dual") >= 8
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.name)))
    # every span but the job roots has a parent in the same job
    for i in range(len(tracer.name)):
        p = tracer.parent[i]
        if tracer.names[tracer.name[i]] == spans.ROOT:
            assert p == -1
        else:
            assert tracer.job[p] == tracer.job[i] and tracer.start[p] <= tracer.start[i]

    # the work counters run in their own span, not inside the span they count
    assert tracer.calls_of(spans.COUNT) >= tracer.calls_of("rational.RationalMatrix.__matmul__")
    for i in range(len(tracer.name)):
        if tracer.names[tracer.name[i]] == spans.COUNT:
            counted = max(j for j in range(i) if tracer.parent[j] == tracer.parent[i])
            assert tracer.names[tracer.name[counted]] in spans.COUNTERS
            assert tracer.end[counted] <= tracer.start[i]

    m = spans.metrics(tracer, 1, 0.0)
    layer_sum = sum(m[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(m["trace.job_wall_s"]["value"], rel=1e-9)
    assert m["cli.main.self_s"]["value"] == pytest.approx(tracer.self_s("cli.main"))
    assert m["cli.main.self_s"]["value"] < m["cli.self_s"]["value"]


def test_runs_end_on_whole_cycles(tmp_path):
    import run

    rounds = [[jobs.Job.make("chain_product_api", f"c{k}", api={"lengths": [2, k + 2]})]
              for k in range(3)]
    tally = run.Tally({}, False)
    assert run.run_rounds(rounds, md, cli, str(tmp_path), 0, 2, tally) == 6
    assert not tally.failures
    assert sorted(len(lat) for lat in tally.by_key.values()) == [2, 2, 2]


def test_callbacks_are_charged_to_the_caller(tmp_path):
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        _run(jobs.Job.make("chain_product_api", "c", api={"lengths": [3, 4]}), tmp_path, tracer)
    finally:
        installed.uninstall()
    m = spans.metrics(tracer, 1, 0.0)
    assert m["poset.build_poset.leq_calls"]["value"] == 3 ** 2 + 4 ** 2 + 12 ** 2
    assert m["poset.moebius_matrix.elements"]["value"] == 12
    # the chains' leq lambdas belong to the job, the product's leq to product_poset
    assert tracer.self_s("harness.job") > 0 and tracer.self_s("poset.product_poset") > 0
    assert sum(tracer.self_ns) == tracer.total_ns[tracer.name_id(spans.ROOT)]


def test_speedometer_scales_latency(tmp_path):
    import speed

    speedo = speed.Speedometer(0.002)
    job = jobs.Job.make("chain_product_api", "c", api={"lengths": [6, 7]})
    jobs.write_inputs([[job]], str(tmp_path))
    outcome = jobs.run_job(job, md, cli, str(tmp_path), speedo=speedo)
    # ticks ran during the job, and their time is not in its latency
    assert len(speedo.samples) > 2 and speedo.ticks
    assert outcome.latency_ns > 0 and outcome.calibration_ns == speedo.mean_ns
    # a sample in which the thread lost the core does not count as speed
    speedo.samples = [100.0, 110.0, 90.0, 4000.0]
    assert speedo.mean_ns == 100.0
