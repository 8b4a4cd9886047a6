"""Command-line interface: matrix exports, duality certificates,
coarse-graining, population models, simulation and a verification suite.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 size cap exceeded.  The MOEBIUS_DUAL_MAX_STATES environment variable
overrides the library's default cap on the orders it builds.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .cannings import (
    coarsen_multiallelic,
    exact_coarse_duality_value,
    monte_carlo_duality,
    moran_law,
    multiallelic_kernels,
    wright_fisher_law,
)
from .coarse_graining import (
    MAX_ENUMERATION_GROUND,
    coarse_partition_matrices,
    coarse_set_matrices,
    coarse_set_matrices_enumerated,
)
from .duality import (
    DualityVariant,
    Kernel,
    positivity_certificate,
    strong_condition_check,
)
from .errors import InvalidParameter, MoebiusDualError, SizeOverflow, VerificationFailure, _require
from .lattices import partition_lattice, partition_moebius_closed_form, subset_lattice
from .poset import _check_states
from .rational import RationalMatrix, _require_equal, format_fraction

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_CONFIG = 2
EXIT_SIZE = 3

ENUMERATION = "coarse set closed forms = enumeration"


def _dumps(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2, default=str)``, byte for byte, with every
    leaf encoded by the C encoder: with an indent the stdlib falls back to its
    pure-Python encoder.  Tuples are lists and keys are coerced as ``json``
    coerces them."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        items = [f"{_encode_str(_key(k))}: {_encode_str(v) if type(v) is str else _dumps(v, depth + 1)}"
                 for k, v in obj.items()]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [_encode_str(v) if type(v) is str else _dumps(v, depth + 1) for v in obj]
        brackets = "[]"
    else:
        return json.dumps(obj, default=str)
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def _key(key) -> str:
    """A dict key as ``json`` writes it: a str as it is; a bool, an int, a
    float or None as its JSON value."""
    if isinstance(key, str):
        return key
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(args, payload, *, matrix=None, labels=None):
    """Write the payload in the requested format to --output or stdout."""
    if args.format == "json":
        text = _dumps(payload) + "\n"
    elif args.format == "csv":
        if matrix is None:
            raise InvalidParameter("--format csv is only available for matrix commands")
        text = matrix.to_csv(row_labels=labels, col_labels=labels)
    else:  # pretty
        text = _pretty(payload)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidParameter(f"--output: {exc}") from None
    else:
        sys.stdout.write(text)


def _pretty(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines) + ("\n" if indent == 0 else "")
    if isinstance(payload, list):
        return "\n".join(
            _pretty(v, indent) if isinstance(v, (dict, list)) else f"{pad}- {v}"
            for v in payload
        )
    return f"{pad}{payload}"


def _matrix_doc(m: RationalMatrix, labels=None) -> dict:
    doc = {
        "rows": m.rows,
        "cols": m.cols,
        "entries": m._strings(),
    }
    if labels is not None:
        doc["labels"] = [str(l) for l in labels]
    return doc


def _load_kernel(path: str) -> Kernel:
    try:
        with open(path) as fh:
            matrix = RationalMatrix.from_json(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidParameter(f"--kernel: {exc}") from None
    return Kernel.of(matrix)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_lattice(args) -> int:
    if args.family == "subsets":
        lat = subset_lattice(args.n)
        pair = lat.pair
        labels = [lat.label(m) for m in pair.poset.elements]
    else:
        pair = partition_lattice(args.n).pair
        labels = [str(p) for p in pair.poset.elements]
    chosen = {"zeta": pair.zeta, "moebius": pair.moebius}[args.emit]
    _emit(args, _matrix_doc(chosen, labels), matrix=chosen, labels=labels)
    return EXIT_OK


def cmd_duality(args) -> int:
    lat = subset_lattice(args.n)
    p = _load_kernel(args.kernel)
    if p.matrix.shape != (len(lat.poset), len(lat.poset)):
        raise InvalidParameter(
            f"--kernel is {p.matrix.rows}x{p.matrix.cols}, but the lattice of --n {args.n} has "
            f"{len(lat.poset)} states"
        )
    variant = DualityVariant(args.variant)
    cert = positivity_certificate(p, lat.pair, variant)
    strong = strong_condition_check(p, lat.pair, variant)
    report = {
        "poset": f"subsets(N={args.n})",
        "kernel_kind": p.kind,
        **cert.to_dict(),
        **strong.to_dict(),
        "Q": _matrix_doc(cert.q),
    }
    _emit(args, report, matrix=cert.q)
    return EXIT_OK


def cmd_coarsen(args) -> int:
    if args.family == "sets":
        cm = coarse_set_matrices(args.n)
        labels = [str(j) for j in range(args.n + 1)]
        report = {
            "relation": "cardinality",
            "classes": labels,
            "zeta": _matrix_doc(cm.zeta),
            "moebius": _matrix_doc(cm.moebius),
            "zeta_transpose": _matrix_doc(cm.zeta_transpose),
            "moebius_transpose": _matrix_doc(cm.moebius_transpose),
        }
        if args.n <= MAX_ENUMERATION_GROUND:
            _require(cm == coarse_set_matrices_enumerated(args.n), ENUMERATION, args.n)
            report["enumeration_agrees"] = True
        _emit(args, report, matrix=cm.zeta, labels=labels)
    else:
        skels, z, mo = coarse_partition_matrices(args.n)
        labels = [str(s) for s in skels]
        report = {
            "relation": "skeleton",
            "classes": labels,
            "zeta": _matrix_doc(z, labels),
            "moebius": _matrix_doc(mo, labels),
        }
        _emit(args, report, matrix=z, labels=labels)
    return EXIT_OK


def _build_law(model: str, n: int):
    return wright_fisher_law(n) if model == "wf" else moran_law(n)


def cmd_cannings(args) -> int:
    law = _build_law(args.model, args.N)
    ma = multiallelic_kernels(law, args.T)
    res = coarsen_multiallelic(ma)
    haploid = args.T == 1
    report = {"model": args.model, "N": args.N, "T": args.T,
              "forward_stochastic": ma.p_ext.is_stochastic}
    if haploid:
        # the builder has matched its counted Q to h_dual's (M' P Z')', and the
        # coarsener has coarse-grained that one verified Q
        report["backward_stochastic"] = ma.q.is_stochastic
        report["transpose_zeta_duality"] = True
    else:
        report["backward_substochastic"] = ma.q.is_substochastic
        report["max_defect"] = format_fraction(max(ma.defect))
        report["classes"] = [str(c) for c in res.rel.class_labels]
    report["coarse_forward"] = _matrix_doc(res.p_coarse.matrix)
    if haploid:
        report["hypergeometric"] = _matrix_doc(res.h_coarse_hat)
    report["coarse_backward"] = _matrix_doc(res.q_coarse_hh.matrix)
    report["coarse_duality_verified"] = True
    _emit(args, report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    law = _build_law(args.model, args.N)
    for flag, size in (("--start", args.start), ("--dual-start", args.dual_start)):
        if size > args.N:
            raise InvalidParameter(f"{flag} must be <= N = {args.N}, got {size}")
    a = (1 << args.start) - 1
    b = (1 << args.dual_start) - 1
    res = monte_carlo_duality(law, a, b, args.steps, args.reps, args.seed)
    exact = exact_coarse_duality_value(law, args.start, args.dual_start, args.steps)
    report = {
        "model": args.model,
        "N": args.N,
        "steps": args.steps,
        "reps": args.reps,
        "seed": args.seed,
        "start": args.start,
        "dual_start": args.dual_start,
        "forward_mean": res.forward_mean,
        "forward_stderr": res.forward_stderr,
        "backward_mean": res.backward_mean,
        "backward_stderr": res.backward_stderr,
        "exact": format_fraction(exact),
    }
    _emit(args, report)
    return EXIT_OK


def _verification_suite(max_n: int):
    """One (name, callable) pair per identity; callables raise on failure."""
    checks = []

    def add(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @add(f"subset zeta inverse identities, N <= {max_n}")
    def _():
        for n in range(max_n + 1):
            pair = subset_lattice(n).pair
            _require_equal(pair.zeta @ pair.moebius, RationalMatrix.identity(1 << n), "Z M = I")

    @add(f"subset Moebius closed form, N <= {max_n}")
    def _():
        for n in range(max_n + 1):
            lat = subset_lattice(n)
            for (a, b) in lat.poset.comparable_pairs():
                ea, eb = lat.poset.elements[a], lat.poset.elements[b]
                mu = lat.mu_closed_form(ea, eb)
                _require(lat.pair.moebius[a, b] == mu, "subset mu = closed form", (ea, eb))

    @add(f"partition Moebius closed form, n <= {min(max_n, 5)}")
    def _():
        for n in range(1, min(max_n, 5) + 1):
            pl = partition_lattice(n)
            for (a, b) in pl.poset.comparable_pairs():
                pa, pb = pl.poset.elements[a], pl.poset.elements[b]
                mu = partition_moebius_closed_form(pa, pb)
                _require(pl.pair.moebius[a, b] == mu, "partition mu = closed form", (pa, pb))

    @add("coarse set matrices: closed forms equal enumeration, N <= 8")
    def _():
        for n in range(min(max_n * 2, 8) + 1):
            _require(coarse_set_matrices(n) == coarse_set_matrices_enumerated(n), ENUMERATION, n)

    @add("coarse partition matrices invert each other, n <= 5")
    def _():
        for n in range(1, min(max_n, 5) + 1):
            coarse_partition_matrices(n)  # checks coarse Z M = I

    @add(f"transpose-zeta duality for WF and Moran, N <= {min(max_n, 4)}")
    def _():
        for n in range(2, min(max_n, 4) + 1):
            for law in (wright_fisher_law(n), moran_law(n)):
                multiallelic_kernels(law, 1)  # verifies Z' Q' = P Z' against h_dual

    @add(f"coarse Cannings pipeline and hypergeometric forms, N <= {min(max_n, 4)}")
    def _():
        for n in range(2, min(max_n, 4) + 1):
            for law in (wright_fisher_law(n), moran_law(n)):
                # at T = 1 the coarsener checks H = hypergeometric_matrix(n), its
                # closed-form inverse and the stochasticity of both coarse chains
                coarsen_multiallelic(multiallelic_kernels(law, 1))

    @add("multi-allelic duality and substochastic coarse dual, WF N=2 T=2")
    def _():
        # the coarsener checks that the coarse dual is substochastic
        coarsen_multiallelic(multiallelic_kernels(wright_fisher_law(2), 2))

    return checks


def cmd_verify_all(args) -> int:
    # capped before any check runs; a cap a later check reaches is no failed identity
    _check_states(power=args.max_n)
    results = []
    failed = False
    for name, fn in _verification_suite(args.max_n):
        try:
            fn()
            results.append({"check": name, "ok": True})
        except SizeOverflow:
            raise
        except MoebiusDualError as exc:
            failed = True
            results.append({"check": name, "ok": False, "witness": str(exc)})
    _emit(args, {"ok": not failed, "checks": results})
    return EXIT_VERIFICATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _at_least(low: int):
    """argparse type for an integer >= low, so that a bad value names its flag."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse says "invalid int value" for non-integers
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebius-dual",
        description="Exact zeta/Moebius duality, coarse-graining and population models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("lattice", help="emit zeta or Moebius matrix of a lattice")
    p.add_argument("family", choices=("subsets", "partitions"))
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--emit", choices=("zeta", "moebius"), default="zeta")
    common(p)

    p = sub.add_parser("duality", help="positivity certificate for a kernel")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument(
        "--variant",
        choices=[v.value for v in DualityVariant],
        default="zeta",
    )
    p.add_argument("--kernel", required=True, help="JSON file with p/q entries")
    common(p)

    p = sub.add_parser("coarsen", help="coarse zeta/Moebius matrices")
    p.add_argument("family", choices=("sets", "partitions"))
    p.add_argument("--n", type=_at_least(0), required=True)
    common(p)

    p = sub.add_parser("cannings", help="population model kernels and verification")
    p.add_argument("--model", choices=("wf", "moran"), required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--T", type=int, default=1, help="1 = haploid, >= 2 = multi-allelic")
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo duality estimates")
    p.add_argument("--model", choices=("wf", "moran"), default="wf")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--steps", type=_at_least(0), required=True)
    p.add_argument("--reps", type=_at_least(1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--start", type=_at_least(0), required=True, help="forward start cardinality")
    p.add_argument(
        "--dual-start", type=_at_least(0), required=True, help="backward start cardinality"
    )
    common(p)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--max-n", type=_at_least(0), default=4)
    common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built by the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; callable repeatedly in one process, with one parser."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    # looked up per call, so that a wrapped or patched cmd_* is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except SizeOverflow as exc:
        print(json.dumps({"error": "size-cap", "detail": str(exc)}), file=sys.stderr)
        return EXIT_SIZE
    except VerificationFailure as exc:
        print(
            json.dumps({"error": "verification-failure", "witness": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    except (MoebiusDualError, OSError, ValueError) as exc:
        print(json.dumps({"error": "invalid-config", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
