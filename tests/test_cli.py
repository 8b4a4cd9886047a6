import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import RationalMatrix, cli, lattices
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
        ["duality", "--n", "2", "--variant", "zeta", "--kernel", str(kernel)],
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


def test_duality_rejects_boolean_kernel(tmp_path, capsys):
    # JSON true/false are not 1/0: the entry is named and the run is bad input
    kernel = kernel_file(tmp_path, "bool", {"entries": [[True, False], [False, True]]})
    code, out, err = run(["duality", "--n", "1", "--kernel", kernel], capsys)
    assert code == 2 and out == ""
    assert "invalid-config" in err and "bool entry True" in err


def test_cap_below_one_is_invalid_config(capsys, monkeypatch):
    for raw in ("0", "-1"):
        monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", raw)
        for argv in (["lattice", "subsets", "--n", "0"], ["cannings", "--model", "wf", "--N", "2"]):
            code, out, err = run(argv, capsys)
            assert code == 2 and out == "", argv
            assert "invalid-config" in err and "MOEBIUS_DUAL_MAX_STATES must be >= 1" in err
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "1")
    code, _, _ = run(["lattice", "subsets", "--n", "0"], capsys)
    assert code == 0


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


def _refuse(what):
    def refuse(*args):
        raise AssertionError(f"{what} allocated past the cap")

    return refuse


def test_verify_all_honours_the_state_cap(capsys, monkeypatch):
    monkeypatch.setattr(lattices, "_subset_order", _refuse("subset order"))
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "8")
    for max_n, states in (("4", 16), ("13", 8192)):
        code, out, err = run(["verify-all", "--max-n", max_n], capsys)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "size-cap",
                                   "detail": f"{states} states exceed the cap 8"}


def test_verify_all_exits_on_a_cap_a_later_check_reaches(capsys, monkeypatch):
    # a cap that admits 2^max_n but not a later check's state space exits 3,
    # not as a failed identity: WF(2) at T = 2 has 3^2 and partitions of 5 have 52
    for cap, max_n, states in (("8", "3", 9), ("32", "5", 52)):
        monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", cap)
        code, out, err = run(["verify-all", "--max-n", max_n], capsys)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "size-cap",
                                   "detail": f"{states} states exceed the cap {cap}"}


@pytest.mark.parametrize("command", [
    ["lattice", "subsets", "--n"],
    ["duality", "--kernel", "unread.json", "--n"],
    ["verify-all", "--max-n"],
])
def test_huge_subset_counts_exit_on_the_cap(command, capsys, monkeypatch):
    monkeypatch.setattr(lattices, "_subset_order", _refuse("subset order"))
    # 2**14284 is the largest power of two that Python formats by default;
    # past it the count is written as a power, and 2**(10**18) is never built
    for n, states in ((13, "8192"), (14284, str(1 << 14284)), (14285, "2^14285"),
                      (20000, "2^20000"), (10**18, f"2^{10**18}")):
        code, out, err = run(command + [str(n)], capsys)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "size-cap",
                                   "detail": f"{states} states exceed the cap 4096"}
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "8")
    code, _, err = run(command + ["4"], capsys)
    assert code == 3 and json.loads(err)["detail"] == "16 states exceed the cap 8"


def test_huge_partition_counts_exit_on_the_bell_bound(capsys, monkeypatch):
    exact_bell = lattices.bell_number

    def small_bell(n):
        if n > 64:
            raise AssertionError(f"bell_number({n}) computed past the bound")
        return exact_bell(n)

    monkeypatch.setattr(lattices, "enumerate_partitions", _refuse("partitions"))
    monkeypatch.setattr(lattices, "_rgs", _refuse("restricted-growth strings"))
    monkeypatch.setattr(lattices, "bell_number", small_bell)
    # Bell(n) >= 2^(n-1) decides the cap before any Bell number is computed
    for n in (1500, 10**18):
        code, out, err = run(["lattice", "partitions", "--n", str(n)], capsys)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "size-cap",
                                   "detail": f"Bell({n}) >= 2^{n - 1} states exceed the cap 4096"}
    # while 2^(n-1) <= cap the exact Bell number is still reported
    for n, states in ((8, 4140), (13, 27644437)):
        code, _, err = run(["lattice", "partitions", "--n", str(n)], capsys)
        assert code == 3
        assert json.loads(err)["detail"] == f"{states} states exceed the cap 4096"
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "1")
    code, _, err = run(["lattice", "partitions", "--n", "2"], capsys)
    assert code == 3 and json.loads(err)["detail"] == "Bell(2) >= 2^1 states exceed the cap 1"


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
    not_json, binary = tmp_path / "not.json", tmp_path / "binary.json"
    not_json.write_text("not json")
    binary.write_bytes(b"\xff\xfe\x00")
    deep, huge = tmp_path / "deep.json", tmp_path / "huge.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    huge.write_text('{"entries": [["' + "1" * 5000 + '"]], "rows": ' + "1" * 5000 + "}")
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
        (["duality", "--n", "0", "--kernel",
          kernel_file(tmp_path, "bool-shape", {"rows": True, "cols": True, "entries": [["1"]]})],
         "matrix JSON rows must be 1"),
        (["duality", "--n", "2", "--kernel", negative_kernel(tmp_path)],
         "--kernel is 2x2, but the lattice of --n 2 has 4 states"),
        (["cannings", "--model", "wf", "--N", "2", "--format", "csv"], "--format csv"),
        # the duality command has only the subset lattice, so it takes no --poset
        (["duality", "--poset", "subsets", "--n", "1", "--kernel", negative_kernel(tmp_path)],
         "--poset"),
        # files that cannot be read or written name their flag
        (["duality", "--n", "1", "--kernel", str(tmp_path)], "--kernel: [Errno 21] Is a directory"),
        (["duality", "--n", "1", "--kernel", str(not_json)],
         "--kernel: Expecting value: line 1 column 1 (char 0)"),
        (["duality", "--n", "1", "--kernel", str(binary)], "--kernel: "),
        (["duality", "--n", "1", "--kernel", str(deep)], "--kernel: maximum recursion depth"),
        (["duality", "--n", "1", "--kernel", str(huge)], "--kernel: Exceeds the limit (4300 digits)"),
        (["lattice", "subsets", "--n", "2", "--output", str(tmp_path / "missing" / "o.json")],
         "--output: [Errno 2] No such file or directory"),
    ]
    for argv, name in bad:
        code, out, err = run(argv, capsys)
        assert code == 2, argv
        assert out == "" and "Traceback" not in err and "size-cap" not in err
        assert name in err, argv


@pytest.mark.parametrize("flag", ["--steps", "--reps"])
def test_simulate_counts_past_their_bounds_name_the_flag(flag, tmp_path):
    # a count of 10^30 reaches the library's named bound, not numpy or len()
    argv = {"--model": "wf", "--N": "3", "--start": "1", "--dual-start": "1", "--seed": "0",
            "--steps": "3", "--reps": "3", flag: str(10**30)}
    out = run_python(["-m", "moebius_dual.cli", "simulate", *(x for item in argv.items() for x in item)],
                     tmp_path, text=True)
    assert out.returncode in (2, 3) and out.stdout == "" and "Traceback" not in out.stderr
    assert f"{flag[2:]} must be in" in out.stderr


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        outputs = [run(["lattice", "subsets", "--n", "2"], capsys) for _ in range(3)]
        run(["coarsen", "sets", "--n", "2"], capsys)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert outputs[0][0] == 0 and outputs[1:] == outputs[:-1]


def test_main_runs_the_command_bound_when_it_is_called(capsys, monkeypatch):
    # a parser kept from an earlier call must not keep the cmd_* it saw then
    assert run(["coarsen", "sets", "--n", "2"], capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_coarsen", lambda args: seen.append(args.n) or 0)
    assert run(["coarsen", "sets", "--n", "3"], capsys) == (0, "", "")
    assert seen == [3]


def test_failed_parse_and_help_leave_the_parser_reusable(capsys):
    missing = ["duality", "--n", "2", "--kernel"]
    first = run(["lattice", "subsets", "--n", "2"], capsys)
    bad = run(missing, capsys)
    helped = run(["duality", "--help"], capsys)
    assert bad[0] == 2 and "--kernel" in bad[2]
    assert helped[0] == 0 and "--variant" in helped[1]
    assert run(["lattice", "subsets", "--n", "2"], capsys) == first
    assert run(missing, capsys) == bad
    assert run(["duality", "--help"], capsys) == helped


# JSON values of every kind, some with the keys of a kernel document; "HUGE"
# is written as an integer of 5,000 digits, past what int() parses
_KERNEL_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                           st.sampled_from(["0", "1", "1/2", "-1", "HUGE"]))
_KERNEL_DOCS = st.recursive(_KERNEL_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["entries", "rows", "cols"]) | st.text(max_size=2), inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(doc=_KERNEL_DOCS, depth=st.sampled_from([0, 1, 100_000]))
def test_any_json_kernel_exits_0_or_2(tmp_path_factory, doc, depth):
    # any JSON value, nested in up to 100,000 lists, is a kernel or bad
    # input: never a traceback, a verification failure or a size cap
    kernel = tmp_path_factory.getbasetemp() / "any-kernel.json"
    text = json.dumps(doc).replace('"HUGE"', "1" * 5000)
    kernel.write_text("[" * depth + text + "]" * depth)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["duality", "--n", "0", "--kernel", str(kernel)])
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""


def kernel_file(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def negative_kernel(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["2", "-1"], ["0", "1"]]}))
    return str(path)


ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def run_python(args, cwd, **kwargs):
    """Run a fresh interpreter with ``args``, importing the package from src."""
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd, **kwargs)


def run_optimized(code, tmp_path):
    """Run ``code`` in a fresh ``python -O``, which strips every assert statement."""
    return run_python(["-O", "-c", code], tmp_path, text=True)


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
    # recorded before the Cannings kernel builders moved from one Fraction
    # per atom to integer atom weights over the law's common denominator
    "cannings --model wf --N 5":
        "f675bebe33c3682a02a552971b4c20d7a4c5fc94936fff30d1672ae04992331d",
    "cannings --model wf --N 4 --T 2":
        "5891bb5c3485a4f12aed14794a6d6ce08f34d34c50d2c5388986257d74e4bafc",
    "cannings --model moran --N 4 --T 2":
        "57ddcfa9ada3c0f33f0730bab2760f58d8d26bcd589b22365e351aa330a065fb",
    # recorded before the product orders were read off their Kronecker factors
    # and multiplied by mode products: 729 and 512 states pin that at scale
    "cannings --model moran --N 6 --T 2":
        "88260d82f4f90ed4b5124e5263722c678c334d7f4ec48003fec1112b2f783e4d",
    "lattice subsets --n 9 --emit moebius":
        "c38a0ede22217fbc491290d79c9f81fb6fcd93bebfafde9ec5616959cadb0e88",
    # recorded before the partitions became one restricted-growth array and
    # the coarse partition rows were computed on it
    "coarsen partitions --n 6":
        "37f565a37a8e6fd27a72ff9958123dac2c2d851f22f0521cca4f465cbf09ee9c",
    "coarsen partitions --n 8":
        "7fc84ee020b9f19ab2a5162c57d71d28663a2a439763e7453c9f878660d5128d",
    "lattice partitions --n 6 --emit moebius":
        "d694573916bdedde60cb1d667b0ce03b2d3ec28cbd7ac1df481a3c68fdea6d71",
    # --format pretty (nested dicts, lists of lists, lists of dicts), recorded
    # before the Monte Carlo draws were mapped to atoms by a lookup
    "cannings --model moran --N 3 --T 2 --format pretty":
        "fc6c170b584946843db5f85aee8e329c829cf81c64352a7c372b67d7a8f10631",
    "lattice partitions --n 3 --emit moebius --format pretty":
        "24fc5cbc31513e5e904ede8fe9eab28bf4c3d033f644bc2d394d9094fe01426e",
    "coarsen sets --n 3 --format pretty":
        "adc00593874a562d9a3676b1cd43a54e1ce5bd05e40143734075ca3ec7e596bd",
    "verify-all --max-n 2 --format pretty":
        "a08439963b631e92ce8dbb6705047f76909926ed6280ac66bcb3bac7021cddd3",
    "simulate --model wf --N 4 --steps 3 --reps 200 --seed 5 --start 3 --dual-start 2 --format pretty":
        "d24a477d83a19bb8ee1e77b6b195bd156444a2f6421b78b9d490880498251f4d",
    "simulate --model moran --N 5 --steps 4 --reps 300 --seed -2 --start 3 --dual-start 2 --format pretty":
        "5c6349e4e29ce5cc749c5574875d45b022f6075b77e0667c8a1910fa6fad424d",
    # recorded before the Wright-Fisher closed forms and kernel counts moved
    # to size-vector arrays and type codes: WF past N 5, and at T 2 past N 4
    "cannings --model wf --N 6":
        "f4d06874774d39d751dd873facdb207c3e877221fd6c27b8b4ab06b8c730706c",
    "cannings --model wf --N 5 --T 2":
        "005fd38211bb94b338ace9e6c8bf51484a59bac9a2f26e549775a01d5f347a34",
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


# sha256 of each demo's stdout, recorded before the product-of-sets lattice
# and the multi-allelic coarse result were folded into subset_lattice and
# CoarseDualityResult; 04 re-pinned when its duality line stopped naming a
# matrix route that the builder no longer runs, and again when it stopped
# naming the inclusion-exclusion check that the builder no longer runs
DEMOS = {
    "01_posets_and_moebius.py": "88dd53b50c146f4cfd5151cba39a7e83ca8baf1b20ebb40115bc62c437cf1e9b",
    "02_duality_cones.py": "2dad3d2d5da6710548bcec3ed486b5258b82ed6e90628c959b57dc39e50939fc",
    "03_coarse_graining.py": "ba477fc24d48e6951b1c6ba0b5751d36988ea8958e9f5cf783f26fe96b6df8e4",
    "04_cannings_models.py": "5028a019d1ec44e9e9c3b4bfac06011df01f57d0987f979026cfdd907c45ff79",
}


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_output(script, tmp_path):
    done = run_python([os.path.join(ROOT, "demos", script)], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[script]


# JSON documents with every kind of key and leaf that json.dumps coerces:
# tuples, non-string keys, floats past JSON, escapes and non-ASCII text, and
# leaves that only default=str can write
_LEAVES = st.one_of(st.text(), st.integers(-2 ** 70, 2 ** 70), st.floats(), st.booleans(),
                    st.none(), st.fractions())
_KEYS = st.one_of(st.text(max_size=4), st.integers(-9, 9), st.floats(width=16), st.booleans(),
                  st.none())


@settings(max_examples=100, deadline=None)
@given(st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(st.text(max_size=3), max_size=4), st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=20))
def test_indented_json_matches_the_stdlib(doc):
    assert cli._dumps(doc) == json.dumps(doc, indent=2, default=str)


def test_indented_json_rejects_keys_as_the_stdlib_does():
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
        cli._dumps({(1, 2): 0})


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        ["lattice", "subsets", "--n", "2", "--output", str(target)], capsys
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["rows"] == 4


def test_output_is_written_in_place_and_cut_to_length(tmp_path, capsys):
    # a longer file already there ends with exactly the new bytes
    argv = ["lattice", "subsets", "--n", "2"]
    _, want, _ = run(argv, capsys)
    target = tmp_path / "out.json"
    target.write_text("x" * 20000)
    assert run(argv + ["--output", str(target)], capsys)[:2] == (0, "")
    assert target.read_text() == want
    # a new file gets the mode open(path, "w") gives it under the same umask
    fresh, reference = tmp_path / "fresh.json", tmp_path / "reference.json"
    reference.open("w").close()
    assert run(argv + ["--output", str(fresh)], capsys)[0] == 0
    assert os.stat(fresh).st_mode == os.stat(reference).st_mode
    # a device is written and never truncated; a directory is a bad --output
    assert run(argv + ["--output", os.devnull], capsys)[:2] == (0, "")
    code, out, err = run(argv + ["--output", str(tmp_path)], capsys)
    assert (code, out) == (2, "") and "--output: [Errno 21] Is a directory" in err
