"""Span wrappers installed around the public calls of moebius_dual.

Only the traced run installs them; an untraced run never imports this
module.  Wrappers go on the ``RationalMatrix`` methods named in
``RATIONAL_METHODS`` and on every public module function, in every
``moebius_dual`` module that bound the function by name (so ``h_dual`` is
wrapped inside ``coarse_graining`` too).

Each call records a span: name, start, end, parent span and job id, kept
in flat in-memory arrays and written out as JSON lines at the end.  Self
time is span time minus the time its child spans cover.  Callbacks that a
wrapped function receives (the ``fn`` of ``RationalMatrix.from_function``,
the ``leq`` of ``build_poset``) run on behalf of the caller, so their time
is charged to the caller's span, and spans opened inside them are children
of the caller.  The work counters run in a ``harness.count`` span of their
own.  With a root span per job, the self times of all spans add up to the
job wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from array import array
from time import perf_counter_ns

PACKAGE = "moebius_dual"
ROOT = "harness.job"
# the work counters' own time, kept out of the span they count
COUNT = "harness.count"

# The RationalMatrix methods that get spans.  The accessors (``rows``,
# ``cols``, ``shape``, ``__getitem__``, ``row``, ``col``, ``array``,
# ``__iter__``, ``_wrap``) and ``__repr__``/``__hash__`` do not: they are
# called per entry or per row, a span each would cost more than the call, and
# their time is charged to the calling span, whatever its layer.
RATIONAL_METHODS = (
    "__init__", "identity", "zeros", "diagonal", "from_function", "column",
    "__matmul__", "__add__", "__sub__", "scale", "__eq__", "T", "apply", "power",
    "inverse", "nullspace_vector", "is_nonnegative", "min_entry", "row_sums",
    "is_stochastic", "is_substochastic", "to_json", "from_json", "to_csv", "from_csv",
)
_RM = "rational.RationalMatrix."

GROUPS = {
    "rational.matmul": [_RM + "__matmul__"],
    "rational.inverse": [_RM + "inverse"],
    "rational.nullspace": [_RM + "nullspace_vector"],
    "rational.eq": [_RM + "__eq__"],
    "rational.build": [_RM + m for m in ("__init__", "identity", "zeros", "diagonal",
                                          "from_function", "column")],
    "rational.apply": [_RM + "apply"],
    "rational.serialize": [_RM + m for m in ("to_json", "from_json", "to_csv", "from_csv")]
    + ["rational.parse_fraction", "rational.format_fraction"],
    "poset.build_poset": ["poset.build_poset"],
    "poset.moebius_matrix": ["poset.moebius_matrix"],
    "poset.zeta_matrix": ["poset.zeta_matrix"],
    "lattices.subset_lattice": ["lattices.subset_lattice"],
    "lattices.partition_lattice": ["lattices.partition_lattice"],
    "lattices.enumerate_partitions": ["lattices.enumerate_partitions"],
    "duality.h_dual": ["duality.h_dual"],
    "duality.cone_membership": ["duality.cone_membership"],
    "duality.positivity_certificate": ["duality.positivity_certificate"],
    "duality.strong_condition_check": ["duality.strong_condition_check"],
    "duality.invariant_distribution": ["duality.invariant_distribution"],
    "coarse_graining.check_compatibility": ["coarse_graining.check_compatibility"],
    "coarse_graining.coarse_by_source_columns": ["coarse_graining.coarse_by_source_columns"],
    "coarse_graining.coarse_duality_pipeline": ["coarse_graining.coarse_duality_pipeline"],
    "coarse_graining.closed_forms": ["coarse_graining.coarse_set_matrices",
                                     "coarse_graining.coarse_set_matrices_enumerated",
                                     "coarse_graining.coarse_partition_matrices"],
    "cannings.law": ["cannings.wright_fisher_law", "cannings.moran_law"],
    "cannings.forward_kernel": ["cannings.forward_kernel"],
    "cannings.backward_kernel": ["cannings.backward_kernel"],
    "cannings.verify_duality": ["cannings.verify_transpose_zeta_duality"],
    "cannings.multiallelic_kernels": ["cannings.multiallelic_kernels"],
    "cannings.coarsen": ["cannings.coarsen_to_cannings", "cannings.coarsen_multiallelic"],
    "cannings.moment_formula": ["cannings.coarse_backward_moment_formula"],
    "cannings.monte_carlo": ["cannings.monte_carlo_duality"],
    "cli.main": ["cli.main"],
}
LAYERS = ("rational", "poset", "lattices", "duality", "coarse_graining", "cannings", "cli",
          "harness")

# positional index and keyword name of the callback argument, per span name
CALLBACKS = {_RM + "from_function": (3, "fn"), "poset.build_poset": (1, "leq")}


class Tracer:
    """In-memory span store with online self-time aggregation."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one entry per span, in start order
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.job = array("q")
        self.stack = []  # indices of open spans
        self.covered = []  # per open span: ns covered by children and callbacks
        self.self_ns = []  # per name id
        self.total_ns = []
        self.calls = []
        self.counts = {}
        self.job_id = -1
        self._root = self.name_id(ROOT)
        self._root_idx = None

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.total_ns.append(0)
            self.calls.append(0)
        return nid

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0)
        self.stack.append(idx)
        self.covered.append(0)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx):
        now = perf_counter_ns()
        self.end[idx] = now
        self.stack.pop()
        covered = self.covered.pop()
        dur = now - self.start[idx]
        nid = self.name[idx]
        self.self_ns[nid] += dur - covered
        self.total_ns[nid] += dur
        self.calls[nid] += 1
        if self.covered:
            self.covered[-1] += dur

    def begin_job(self):
        self.job_id += 1
        self._root_idx = self.open(self._root)

    def end_job(self):
        # a job that raised may leave spans open; close them first
        while self.stack and self.stack[-1] != self._root_idx:
            self.close(self.stack[-1])
        self.close(self._root_idx)

    def callback(self, fn):
        """Wrap a callback so its time is charged to the caller's span."""

        def run(*args, **kwargs):
            if len(self.stack) < 2:
                return fn(*args, **kwargs)
            idx = self.stack.pop()
            covered = self.covered.pop()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self.stack.append(idx)
                self.covered.append(covered + dt)
                self.covered[-2] -= dt

        return run

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]], "start_ns": self.start[i],
                    "end_ns": self.end[i], "parent": self.parent[i], "job": self.job[i],
                }) + "\n")

    def self_s(self, span_name):
        nid = self._ids.get(span_name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def total_s(self, span_name):
        nid = self._ids.get(span_name)
        return 0.0 if nid is None else self.total_ns[nid] / 1e9

    def calls_of(self, span_name):
        nid = self._ids.get(span_name)
        return 0 if nid is None else self.calls[nid]


# ---------------------------------------------------------------------------
# Work counts, computed from argument and result shapes
# ---------------------------------------------------------------------------


def _count_matmul(tr, args, result):
    a, b = args[0], args[1]
    r, k = a.shape
    c = b.shape[1]
    tr.count("matmul.madds", r * k * c)
    tr.count("matmul.entries", r * k + k * c)
    tr.count("matmul.zeros", sum(row.count(0) for m in (a, b) for row in m))


def _count_inverse(tr, args, result):
    tr.count("inverse.n3", args[0].rows ** 3)


def _count_build_poset(tr, args, result):
    tr.count("build_poset.leq_calls", len(result) ** 2)


def _count_moebius(tr, args, result):
    tr.count("moebius_matrix.elements", len(result.poset))


def _count_law(tr, args, result):
    tr.count("law.atoms", len(result.support))


def _count_monte_carlo(tr, args, result):
    tr.count("monte_carlo.reps", result.reps)


COUNTERS = {
    _RM + "__matmul__": _count_matmul,
    _RM + "inverse": _count_inverse,
    "poset.build_poset": _count_build_poset,
    "poset.moebius_matrix": _count_moebius,
    "cannings.wright_fisher_law": _count_law,
    "cannings.moran_law": _count_law,
    "cannings.monte_carlo_duality": _count_monte_carlo,
}


def _wrap(fn, name, tracer):
    nid = tracer.name_id(name)
    count_nid = tracer.name_id(COUNT)
    counter = COUNTERS.get(name)
    cb_pos, cb_kw = CALLBACKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if cb_pos is not None:
            if len(args) > cb_pos:
                args = args[:cb_pos] + (tracer.callback(args[cb_pos]),) + args[cb_pos + 1:]
            elif cb_kw in kwargs:
                kwargs[cb_kw] = tracer.callback(kwargs[cb_kw])
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            idx = tracer.open(count_nid)
            try:
                counter(tracer, args, result)
            finally:
                tracer.close(idx)
        return result

    return wrapper


class Installed:
    """The patched attributes, so that ``uninstall`` can restore them."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def install(tracer):
    """Patch RationalMatrix methods and every public module function."""
    from moebius_dual.rational import RationalMatrix

    inst = Installed()
    for attr in RATIONAL_METHODS:
        raw = RationalMatrix.__dict__.get(attr)  # a later version may drop a method
        if raw is None:
            continue
        name = _RM + attr
        if isinstance(raw, classmethod):
            inst.set(RationalMatrix, attr, classmethod(_wrap(raw.__func__, name, tracer)))
        elif isinstance(raw, property):
            inst.set(RationalMatrix, attr, property(_wrap(raw.fget, name, tracer)))
        else:
            inst.set(RationalMatrix, attr, _wrap(raw, name, tracer))

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    wrappers = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and not value.__name__.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")):
                if value not in wrappers:
                    short = value.__module__[len(PACKAGE) + 1:]
                    wrappers[value] = _wrap(value, f"{short}.{value.__name__}", tracer)
                inst.set(module, attr, wrappers[value])
    return inst


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_of(span_name):
    return span_name.split(".", 1)[0]


def metrics(tracer, rounds, overhead_s):
    """Per-layer metrics of the traced phase, per round of the job mix."""
    per = 1.0 / rounds
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for group, spans in GROUPS.items():
        put(f"{group}.self_s", sum(tracer.self_s(s) for s in spans) * per, "s/round")
    for layer in LAYERS:
        put(f"{layer}.self_s", sum(tracer.self_s(n) for n in tracer.names
                                   if layer_of(n) == layer) * per, "s/round")
    for group in ("rational.matmul", "rational.inverse", "rational.nullspace", "rational.eq",
                  "duality.h_dual", "duality.cone_membership"):
        put(f"{group}.calls", sum(tracer.calls_of(s) for s in GROUPS[group]) * per,
            "count/round")
    c = tracer.counts
    put("rational.matmul.madds", c.get("matmul.madds", 0) * per, "count/round")
    entries = c.get("matmul.entries", 0)
    put("rational.matmul.zero_share", c.get("matmul.zeros", 0) / entries if entries else 0.0,
        "ratio")
    put("rational.inverse.n3", c.get("inverse.n3", 0) * per, "count/round")
    put("poset.build_poset.leq_calls", c.get("build_poset.leq_calls", 0) * per, "count/round")
    put("poset.moebius_matrix.elements", c.get("moebius_matrix.elements", 0) * per,
        "count/round")
    put("cannings.law.atoms", c.get("law.atoms", 0) * per, "count/round")
    mc_s = tracer.total_s("cannings.monte_carlo_duality")
    put("cannings.monte_carlo.reps_per_s", c.get("monte_carlo.reps", 0) / mc_s if mc_s else 0.0,
        "1/s")
    put("trace.job_wall_s", tracer.total_s(ROOT) * per, "s/round")
    put("trace.overhead_s", overhead_s, "s/round")
    put("trace.spans", len(tracer.name) * per, "count/round")
    return out
