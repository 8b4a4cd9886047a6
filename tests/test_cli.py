import hashlib
import json
import os
import subprocess
import sys

import pytest

from moebius_dual import RationalMatrix
from moebius_dual.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lattice_partitions_moebius(capsys):
    code, out, _ = run(["lattice", "partitions", "--n", "3", "--emit", "moebius"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == 5
    # bottom (all singletons) to top (one block) entry is 2
    assert doc["entries"][0][-1] == "2"
    assert doc["labels"][0] == "{1}{2}{3}"


def test_lattice_subsets_csv(capsys):
    code, out, _ = run(
        ["lattice", "subsets", "--n", "2", "--emit", "zeta", "--format", "csv"], capsys
    )
    assert code == 0
    m = RationalMatrix.from_csv(out, has_labels=True)
    assert m == RationalMatrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]])


def test_duality_certificate(tmp_path, capsys):
    kernel = tmp_path / "p.json"
    kernel.write_text(
        json.dumps({"rows": 4, "cols": 4, "entries": [["1/4"] * 4] * 4})
    )
    code, out, _ = run(
        ["duality", "--poset", "subsets", "--n", "2", "--variant", "zeta",
         "--kernel", str(kernel)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["condition_i"] is True and doc["Q_nonnegative"] is True
    # emitted Q round-trips through the shared JSON format
    q = RationalMatrix.from_json(json.dumps(doc["Q"]))
    assert q.rows == 4


def test_duality_rejects_float_kernel(tmp_path, capsys):
    kernel = tmp_path / "p.json"
    kernel.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[0.5]]}))
    code, _, err = run(
        ["duality", "--n", "0", "--kernel", str(kernel)], capsys
    )
    assert code == 2
    assert "invalid-config" in err


def test_coarsen_sets_and_partitions(capsys):
    code, out, _ = run(["coarsen", "sets", "--n", "4"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["enumeration_agrees"] is True
    assert doc["zeta"]["entries"][0] == ["1", "4", "6", "4", "1"]
    code, out, _ = run(["coarsen", "partitions", "--n", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"] == ["1+1+1", "2+1", "3"]


def test_cannings_haploid_report(capsys):
    code, out, _ = run(["cannings", "--model", "wf", "--N", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["transpose_zeta_duality"] is True
    assert doc["coarse_backward"]["entries"][2] == ["0", "1/2", "1/2"]


def test_cannings_multiallelic_report(capsys):
    code, out, _ = run(["cannings", "--model", "wf", "--N", "2", "--T", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["backward_substochastic"] is True
    assert doc["max_defect"] == "1/2"


def test_simulate_deterministic_output(capsys):
    argv = ["simulate", "--model", "wf", "--N", "3", "--steps", "1", "--reps",
            "500", "--seed", "5", "--start", "2", "--dual-start", "1"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # identical flags and seed give identical bytes
    doc = json.loads(out1)
    assert doc["exact"] == "2/3"


def test_verify_all_passes(capsys):
    code, out, _ = run(["verify-all", "--max-n", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])


def test_exit_codes(capsys, monkeypatch, tmp_path):
    # size cap
    code, _, err = run(["lattice", "subsets", "--n", "25"], capsys)
    assert code == 3 and "size-cap" in err
    # invalid config
    code, _, _ = run(["lattice", "subsets"], capsys)
    assert code == 2
    # environment override of the cap
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "4")
    code, _, err = run(["lattice", "subsets", "--n", "3"], capsys)
    assert code == 3
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "not-a-number")
    code, _, _ = run(["lattice", "subsets", "--n", "2"], capsys)
    assert code == 2
    monkeypatch.delenv("MOEBIUS_DUAL_MAX_STATES")
    # bad values exit 2, with no traceback, naming the argument
    simulate = ["simulate", "--N", "3", "--steps", "1", "--seed", "0", "--dual-start", "1"]
    bad = [
        (simulate + ["--start", "5", "--reps", "10"], "--start"),
        (simulate + ["--start", "1", "--reps", "0"], "--reps"),
        (["lattice", "subsets", "--n", "-1"], "--n"),
        (["cannings", "--model", "moran", "--N", "1"], "N must be"),
        (["cannings", "--model", "wf", "--N", "2", "--T", "0"], "T must be"),
        (["coarsen", "partitions", "--n", "0"], "n must be"),
        (["lattice", "partitions", "--n", "0"], "n must be"),
        (["cannings", "--model", "wf", "--N", "2", "--verify", "all"], "--verify"),
        (["duality", "--n", "1", "--kernel", negative_kernel(tmp_path)], "entry (0, 1)"),
        # malformed kernel documents name what is wrong with them
        (["duality", "--n", "1", "--kernel", kernel_file(tmp_path, "list", [1, 2])],
         "must be an object, got list"),
        (["duality", "--n", "1", "--kernel", kernel_file(tmp_path, "no-entries", {"rows": 2})],
         "entries must be a list of rows, got None"),
        (["duality", "--n", "1", "--kernel", kernel_file(tmp_path, "int-entries", {"entries": 5})],
         "entries must be a list of rows, got 5"),
    ]
    for argv, name in bad:
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err and "size-cap" not in err
        assert name in err, argv


def kernel_file(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def negative_kernel(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["2", "-1"], ["0", "1"]]}))
    return str(path)


def run_optimized(code, tmp_path):
    """Run ``code`` in a fresh ``python -O``, which strips every assert statement."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path)


def test_checks_survive_optimized_mode(tmp_path):
    # a broken identity matrix must fail every verify-all check, not only
    # those that happen to raise an exception of their own
    broken = run_optimized(
        "import sys\n"
        "from moebius_dual import RationalMatrix, cli\n"
        "eye = RationalMatrix.identity.__func__\n"
        "RationalMatrix.identity = classmethod(lambda cls, n: eye(cls, n).scale(2))\n"
        "sys.exit(cli.main(['verify-all', '--max-n', '2']))\n",
        tmp_path,
    )
    assert broken.returncode == 1, broken.stderr
    checks = json.loads(broken.stdout)["checks"]
    assert len(checks) == 8 and not any(c["ok"] for c in checks)
    # a whole-matrix identity names the first entry where its two sides differ
    assert checks[0]["witness"] == "Z M = I fails at (0, 0)"
    # a negative kernel is bad input, with or without -O
    negative = run_optimized(
        "import sys\n"
        "from moebius_dual import cli\n"
        f"sys.exit(cli.main(['duality', '--n', '1', '--kernel', {negative_kernel(tmp_path)!r}]))\n",
        tmp_path,
    )
    assert negative.returncode == 2 and "invalid-config" in negative.stderr
    assert negative.stdout == ""


# sha256 of stdout at the commit before the haploid and multi-allelic
# Cannings paths were merged; any change in these reports fails here
GOLDEN = {
    "cannings --model wf --N 3":
        "962bd64e0dde84a4ac63151a3b9e7d18141483eae44c1bf2211532950af46ead",
    "cannings --model moran --N 3":
        "468b515aed1c2604e417f0c06197b9416fa85a836c20cc4893d65884124b168e",
    "cannings --model moran --N 3 --T 2":
        "2586c97914ac469a16fafe90d11bad9ff73845ba3b07aa83a85ead28840aa1ad",
    "cannings --model wf --N 2":
        "c29636da40fec9805b459c903f0de9edb2edb2269be8062f85d2ab9aeba76085",
    "verify-all --max-n 4":
        "da8b0aa4c34e4df9c852383a37a83ce6a590bdb77d19fe49c9b775f3ff6ebc4e",
    # recorded before the matrix core moved from Fraction entries to integer
    # numerators over one common denominator
    "lattice subsets --n 3 --emit moebius":
        "553e6cb97568debb1eddf0f0e923331f5f7b63fcf83d73eca4d84861208358f9",
    "lattice partitions --n 4 --emit moebius":
        "c9aeaf4f52017c4ff1132f8e8c5c333b0f288a8667f5d3fd36587f17d3e41188",
    "coarsen sets --n 5":
        "31b29c0eea38101d47a8f0cac14b23e2f3102b96afcbecbace120989d49fdeea",
    "coarsen partitions --n 4":
        "2356d303c76b010cab81d66e5ee32732d374c074fdff9ff47d7ea4ffff7d670a",
    "duality --n 2 --variant zeta --kernel {kernel}":
        "9cf7021ed2480cd48b9a5be609b436682b6ffc42bdd9c33859e0fc0fbac0471f",
    "duality --n 2 --variant moebius-transpose --kernel {kernel}":
        "6fc5afdce19f3ece4e3c3647b9a6669794f5522bcffc85524018c8ba3705ca1f",
}

# a stochastic kernel on the subsets of {1, 2} with four different denominators
MIXED_KERNEL = [["1/2", "1/3", "1/6", "0"], ["1/5", "2/5", "0", "2/5"],
                ["1/7", "0", "3/7", "3/7"], ["1/4", "1/4", "1/4", "1/4"]]


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output(command, tmp_path, capsys):
    kernel = tmp_path / "mixed.json"
    kernel.write_text(json.dumps({"rows": 4, "cols": 4, "entries": MIXED_KERNEL}))
    code, out, _ = run(command.format(kernel=kernel).split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        ["lattice", "subsets", "--n", "2", "--output", str(target)], capsys
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"] == 4
