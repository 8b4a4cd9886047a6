import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from moebius_dual import (
    ConeReport,
    DualityVariant,
    Kernel,
    RationalMatrix,
    build_poset,
    cone_membership,
    h_dual,
    h_transform,
    invariant_distribution,
    moebius_matrix,
    partition_lattice,
    positivity_certificate,
    representing_measure,
    strong_condition_check,
    subset_lattice,
    support_implication_check,
)
from moebius_dual.errors import (InvalidParameter, NonpositiveH, NonRationalEntry, NotIrreducible,
                                 SingularH, VerificationFailure)

F = Fraction


def two_chain():
    return moebius_matrix(build_poset([0, 1], lambda a, b: a <= b))


def test_kernel_kind_detection():
    assert Kernel.of(RationalMatrix([["1/2", "1/2"], [0, 1]])).kind == "stochastic"
    assert Kernel.of(RationalMatrix([["1/2", "1/4"], [0, 1]])).kind == "substochastic"
    assert Kernel.of(RationalMatrix([[2, 0], [0, 1]])).kind == "general"


def test_h_dual_two_chain_hand_values():
    zp = two_chain()
    p = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    q = h_dual(p, *DualityVariant.ZETA.h_pair(zp))
    assert q == RationalMatrix([["1/4", "1/4"], [0, 1]])
    # the defining identity in the other variants, with H^-1 read off the pair
    for v in DualityVariant:
        h, h_inv = v.h_pair(zp)
        assert h_inv == h.inverse()
        qv = h_dual(p, h, h_inv)
        assert h @ qv.T == p.matrix @ h


def test_h_dual_rejects_singular_or_mismatched_h():
    p = Kernel.of(RationalMatrix.identity(2))
    # no H^-1 can invert a singular H, so H H^-1 = I fails for any candidate
    singular = RationalMatrix([[1, 1], [1, 1]])
    with pytest.raises(VerificationFailure, match=r"H H\^-1 = I"):
        h_dual(p, singular, RationalMatrix.identity(2))
    with pytest.raises(VerificationFailure, match=r"H H\^-1 = I"):
        h_dual(p, RationalMatrix([[1, 1], [0, 1]]), RationalMatrix([[1, 1], [0, 1]]))
    with pytest.raises(SingularH):
        h_dual(p, RationalMatrix.identity(3), RationalMatrix.identity(3))
    with pytest.raises(SingularH):
        h_dual(p, RationalMatrix.identity(2), RationalMatrix.identity(3))


def test_cone_membership_subset_examples():
    lat = subset_lattice(2)
    # g(J) = |J| lies in the transposed cone but not the plain one
    g = [F(bin(m).count("1")) for m in lat.poset.elements]
    assert cone_membership(g, lat.pair, transposed=True).member
    rep = cone_membership(g, lat.pair, transposed=False)
    assert not rep.member
    assert rep.first_negative == 1  # the singleton {1} witnesses it
    # indicators of down-sets are always in the plain cone, of up-sets in
    # the transposed one
    for i in range(len(lat.poset)):
        down = [F(1 if lat.poset.leq_idx(j, i) else 0) for j in range(len(lat.poset))]
        up = [F(1 if lat.poset.leq_idx(i, j) else 0) for j in range(len(lat.poset))]
        assert cone_membership(down, lat.pair).member
        assert cone_membership(up, lat.pair, transposed=True).member


def test_cone_membership_forces_nonnegativity():
    lat = subset_lattice(2)
    # g(J) = 2^{|J|} lies in the transposed cone with constant image 1
    g = [F(2) ** bin(m).count("1") for m in lat.poset.elements]
    rep = cone_membership(g, lat.pair, transposed=True)
    assert rep.member
    assert rep.image == (F(1), F(1), F(1), F(1))
    assert all(v >= 0 for v in g)


def test_representing_measure_weights():
    lat = subset_lattice(2)
    g = [F(2) ** bin(m).count("1") for m in lat.poset.elements]
    w = representing_measure(g, lat.pair).weights
    assert w == {0b00: F(1), 0b01: F(-2), 0b10: F(-2), 0b11: F(4)}


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=6),
        min_size=8,
        max_size=8,
    ),
    st.lists(
        st.fractions(min_value=0, max_value=3, max_denominator=6),
        min_size=8,
        max_size=8,
    ),
)
def test_cone_is_closed_under_nonnegative_combinations(w1, w2):
    lat = subset_lattice(3)
    z = lat.pair.zeta
    g1 = z.apply(w1)  # in the cone by construction
    g2 = z.apply(w2)
    combo = [a + 2 * b for a, b in zip(g1, g2)]
    assert cone_membership(g1, lat.pair).member
    assert cone_membership(combo, lat.pair).member


def _random_kernel_rows(rng, n, denom=12):
    rows = []
    for _ in range(n):
        rows.append([F(rng.randrange(0, denom + 1), denom) for _ in range(n)])
    return RationalMatrix(rows)


def test_positivity_certificate_equivalence_random():
    import random

    rng = random.Random(12345)
    lat = subset_lattice(2)
    for variant in DualityVariant:
        seen_true = seen_false = 0
        for _ in range(40):
            p = Kernel.of(_random_kernel_rows(rng, 4))
            rep = positivity_certificate(p, lat.pair, variant)
            # internal assertion already cross-checked; track both verdicts occur
            if rep.condition_holds:
                seen_true += 1
            else:
                seen_false += 1
            assert rep.condition_holds == rep.q_nonnegative
        assert seen_false > 0  # random kernels are rarely in the cone


def test_strong_condition_constructed_kernels():
    lat = subset_lattice(2)
    zp = lat.pair
    n = len(zp.poset)
    z = zp.zeta.array()
    # columns (or rows) built as nonnegative combinations of zeta columns
    # lie in the plain cone; of zeta rows, in the transposed cone
    import random

    rng = random.Random(99)
    for variant in DualityVariant:
        cols = []
        for _ in range(n):
            w = [F(rng.randrange(0, 4)) for _ in range(n)]
            base = z.T if variant.transposed_cone else z
            cols.append(list(base @ np.array(w, dtype=object)))
        if variant.uses_columns:
            mat = RationalMatrix.from_function(n, n, lambda i, j: cols[j][i])
        else:
            mat = RationalMatrix.from_function(n, n, lambda i, j: cols[i][j])
        rep = strong_condition_check(Kernel.of(mat), zp, variant)
        assert rep.condition_holds and rep.monotone


def test_strong_condition_detects_failure():
    zp = two_chain()
    # e_1 = (0, 1) as a column is not in the plain cone on the two-chain
    p = Kernel.of(RationalMatrix([[0, 1], [0, 1]]))
    rep = strong_condition_check(p, zp, DualityVariant.MOEBIUS_TRANSPOSE)
    assert not rep.condition_holds


def test_support_implication():
    zp = two_chain()
    poset = zp.poset
    # upper-triangular P: dual supported on the reversed order
    p = Kernel.of(RationalMatrix([["1/2", "1/2"], [0, 1]]))
    q = h_dual(p, zp.zeta, zp.moebius)
    assert support_implication_check(p, q, poset, direction="forward")
    # hypothesis failing makes the check vacuously true
    p2 = Kernel.of(RationalMatrix([[0, 1], [1, 0]]))
    q2 = h_dual(p2, zp.zeta, zp.moebius)
    assert support_implication_check(p2, q2, poset, direction="forward")
    with pytest.raises(InvalidParameter, match=r"direction must be 'forward' or 'reverse', "
                                               r"got 'sideways'"):
        support_implication_check(p, q, poset, direction="sideways")


@pytest.mark.parametrize("zp", [two_chain(), subset_lattice(2).pair], ids=["chain2", "subsets2"])
def test_support_implication_both_directions(zp):
    poset = zp.poset
    n = len(poset)
    upper = RationalMatrix(poset.matrix.astype(np.int64))  # P(c, d) != 0 only for c <= d
    full = RationalMatrix(np.ones((n, n), dtype=np.int64))  # charges incomparable pairs too
    for direction, hyp, broken_q in (("forward", upper, upper), ("reverse", upper.T, upper.T)):
        # the conclusion is on the other side of the diagonal from the hypothesis
        assert support_implication_check(Kernel.of(hyp), hyp.T, poset, direction=direction)
        with pytest.raises(VerificationFailure, match=r"support of P => support of Q"):
            support_implication_check(Kernel.of(hyp), broken_q, poset, direction=direction)
        # a P that fails the hypothesis makes the check vacuous, whatever Q is
        assert support_implication_check(Kernel.of(full), broken_q, poset, direction=direction)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_support_implication_names_a_kernel_off_the_poset(direction):
    # P or Q of another size is refused before any array operation, naming it
    poset = subset_lattice(2).poset
    fits = RationalMatrix.identity(4)
    wrong = RationalMatrix.identity(2)
    for p, q, name in ((wrong, fits, "p"), (fits, wrong, "q")):
        with pytest.raises(InvalidParameter, match=f"^support implication: {name} is 2x2, "
                                                   f"the poset has 4 elements$"):
            support_implication_check(Kernel.of(p), q, poset, direction=direction)


def test_h_transform_rejects_a_short_h():
    q = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    with pytest.raises(InvalidParameter, match=r"\(1, 1\) @ \(2, 2\)"):
        h_transform(q, [1])


def test_h_transform():
    q = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    # h = right 1-eigenvector (constant) keeps it stochastic
    assert h_transform(q, [1, 1]).is_stochastic
    # non-eigenvector h gives a non-stochastic kernel
    out = h_transform(q, [1, 2])
    assert not out.is_stochastic
    with pytest.raises(NonpositiveH):
        h_transform(q, [1, 0])


@pytest.mark.parametrize("h", [[0.5, 1.0], [0.1, 0.1], [True, 1], [1, np.float64(2)]])
def test_h_transform_reads_h_through_the_rational_gate(h):
    q = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    with pytest.raises(NonRationalEntry):
        h_transform(q, h)
    # exact entries of every accepted kind give the same kernel
    assert h_transform(q, [1, 2]) == h_transform(q, ["1", F(2)]) == h_transform(q, np.array([1, 2]))



def test_h_transform_takes_a_kernel_with_negative_entries():
    # Q h = h, but Q_h = Q has a negative entry, so it is not stochastic
    out = h_transform(Kernel.of(RationalMatrix([[2, -1], [0, 1]])), [1, 1])
    assert out.matrix == RationalMatrix([[2, -1], [0, 1]]) and not out.is_stochastic


_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_H = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8).filter(lambda x: x > 0)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_h_transform_matches_the_fraction_reference_on_any_kernel(data):
    n = data.draw(st.integers(1, 4), label="n")
    rows = data.draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
                     label="rows")
    h = data.draw(st.lists(_H, min_size=n, max_size=n), label="h")
    out = h_transform(Kernel.of(RationalMatrix(rows)), h)
    assert out.matrix == RationalMatrix([[rows[i][j] * h[j] / h[i] for j in range(n)]
                                         for i in range(n)])
    qh = [sum(q * x for q, x in zip(row, h)) for row in rows]
    nonnegative = all(q >= 0 for row in rows for q in row)
    assert out.is_stochastic == (nonnegative and qh == h)
    assert out.is_substochastic == (nonnegative and all(a <= x for a, x in zip(qh, h)))


def optimized_stdout(code):
    """The stdout lines of ``code`` run by a fresh ``python -O``, which strips every assert."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout.splitlines()


def test_a_wrong_h_transform_fails_in_optimized_mode():
    # every product of the transform scaled by 2 breaks its row sums; every
    # product's columns rolled by one keeps the row sums and breaks the signs
    code = (
        "import numpy as np\n"
        "from moebius_dual import Kernel, RationalMatrix, h_transform\n"
        "from moebius_dual.errors import VerificationFailure\n"
        "q = Kernel.of(RationalMatrix([[2, -1, 0], [0, 1, 0], [0, 0, 1]]))\n"
        "mul = RationalMatrix.__matmul__\n"
        "for fault in (lambda m: m.scale(2), lambda m: RationalMatrix(np.roll(m.array(), 1, axis=1))):\n"
        "    RationalMatrix.__matmul__ = lambda a, b: fault(mul(a, b))\n"
        "    try:\n"
        "        h_transform(q, [1, 1, 1])\n"
        "    except VerificationFailure as exc:\n"
        "        print(exc.identity)\n"
    )
    assert optimized_stdout(code) == ["row sums of Q_h = (Q h) / h", "Q_h has the signs of Q"]

def test_invariant_distribution():
    p = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    assert invariant_distribution(p) == [F(1, 3), F(2, 3)]
    with pytest.raises(NotIrreducible):
        invariant_distribution(Kernel.of(RationalMatrix.identity(2)))
    with pytest.raises(ValueError):
        invariant_distribution(Kernel.of(RationalMatrix([[2]])))
    # a stochastic kernel that is not square is named by its shape
    with pytest.raises(InvalidParameter, match=r"must be square, got shape \(1, 2\)"):
        invariant_distribution(Kernel.of(RationalMatrix([[1, 0]])))


@st.composite
def stochastic_kernels(draw):
    """Row-stochastic kernels of 2-16 states: entries k/6 drawn as the benchmark
    draws them (six targets per row), or rows of weights over their own sums, so
    the denominators are mixed.  With ``cycle`` each state also moves to the
    next one, so the kernel is irreducible; without it, it may not be."""
    n = draw(st.integers(2, 16))
    cycle = draw(st.booleans())
    mixed = draw(st.booleans())
    rows = []
    for i in range(n):
        if mixed:
            weights = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=n, max_size=n))
        else:
            weights = [0] * n
            for j in draw(st.lists(st.integers(0, n - 1), min_size=6 - cycle, max_size=6 - cycle)):
                weights[j] += 1
        weights[(i + 1) % n] += cycle or not any(weights)
        rows.append([F(w, sum(weights)) for w in weights])
    return rows


def strongly_connected(rows):
    """Every state reaches every other along positive entries (breadth first)."""
    n = len(rows)
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            frontier = [j for i in frontier for j in range(n) if rows[i][j] and j not in seen]
            seen.update(frontier)
        if len(seen) < n:
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(stochastic_kernels())
def test_invariant_distribution_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    p = Kernel.of(RationalMatrix(rows))
    event("irreducible" if strongly_connected(rows) else "reducible")
    if not strongly_connected(rows):
        with pytest.raises(NotIrreducible):
            invariant_distribution(p)
        return
    system = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
    (kernel,) = (system.T - sympy.eye(len(rows))).nullspace()
    want = [F(int(x.p), int(x.q)) for x in kernel / sum(kernel)]
    assert invariant_distribution(p) == want
    # a kernel whose first row sums to 1 + 1/7 is not stochastic
    bumped = [[rows[0][0] + F(1, 7)] + rows[0][1:]] + rows[1:]
    with pytest.raises(InvalidParameter, match="must be a stochastic kernel"):
        invariant_distribution(Kernel.of(RationalMatrix(bumped)))


# each identity of invariant_distribution fires on its own seeded fault: the
# nullspace vector replaced by none, a zero-sum vector, a vector with a
# negative entry and a vector off the invariant line (1, 2) of this kernel
INVARIANT_FAULTS = [
    (None, "(P' - I) rho = 0 has a solution", None),
    ([F(1), F(-1)], "sum of rho != 0", None),
    ([F(2), F(-1)], "rho > 0", 1),
    ([F(1), F(3)], "rho P = rho", (0, 0)),
]


@pytest.mark.parametrize("vector, identity, witness", INVARIANT_FAULTS,
                         ids=[fault[1] for fault in INVARIANT_FAULTS])
def test_each_invariant_distribution_identity_fires_on_its_fault(monkeypatch, vector, identity,
                                                                 witness):
    p = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    monkeypatch.setattr(RationalMatrix, "nullspace_vector", lambda self: vector)
    with pytest.raises(VerificationFailure) as caught:
        invariant_distribution(p)
    assert (caught.value.identity, caught.value.witness) == (identity, witness)


def test_a_wrong_invariant_distribution_fails_in_optimized_mode():
    code = (
        "from fractions import Fraction\n"
        "from moebius_dual import Kernel, RationalMatrix, invariant_distribution\n"
        "from moebius_dual.errors import VerificationFailure\n"
        "RationalMatrix.nullspace_vector = lambda self: [Fraction(1), Fraction(3)]\n"
        "try:\n"
        "    invariant_distribution(Kernel.of(RationalMatrix([['1/2', '1/2'], ['1/4', '3/4']])))\n"
        "except VerificationFailure as exc:\n"
        "    print(exc.identity)\n"
    )
    assert optimized_stdout(code) == ["rho P = rho"]


# -- the Fraction-loop certificates, kept as the reference -------------------
# One cone_membership call per state, cumulative vectors summed as Fraction
# object arrays, and the monotone scan run pair by pair in comparable_pairs
# order; the library forms all cone images with one product instead.


def _reference_cone(g, zp, transposed):
    image = (zp.moebius.T if transposed else zp.moebius).apply(g)
    labels = zp.poset.elements
    first_negative = next((lab for lab, v in zip(labels, image) if v < 0), None)
    if first_negative is None and any(F(x) < 0 for x in g):
        witness = next(lab for lab, x in zip(labels, g) if F(x) < 0)
        raise VerificationFailure("cone member g >= 0", witness)
    return (first_negative is None, tuple(image), first_negative)


def _reference_cumulative_vectors(p, poset, variant):
    a = p.array() if variant.uses_columns else p.array().T
    members = poset.matrix if variant.cumulative_downward else poset.matrix.T
    return [list(a[:, members[:, i]].sum(axis=1)) for i in range(len(poset))]


def _reference_certificate(p, zp, variant):
    """(per_index, condition_holds, q, q_nonnegative) of condition (i)."""
    reports = tuple(_reference_cone(vec, zp, variant.transposed_cone)
                    for vec in _reference_cumulative_vectors(p.matrix, zp.poset, variant))
    q = h_dual(p, *variant.h_pair(zp))
    return reports, all(r[0] for r in reports), q, q.is_nonnegative()


def _reference_monotone_failure(q, zp, variant):
    """The first comparable pair at which Q breaks the variant's monotonicity."""
    qa = q.array() if variant.monotonicity.endswith("-a") else q.array().T
    sign = 1 if variant.monotonicity.startswith("increasing") else -1
    for i, j in zp.poset.comparable_pairs():
        if i != j and not all(sign * (qa[j] - qa[i]) >= 0):
            return (zp.poset.elements[i], zp.poset.elements[j])
    return None


def _reference_strong(p, zp, variant):
    """(per_index, condition_holds, q, first failing monotone pair) of condition (ii)."""
    a = p.matrix.array()
    reports = tuple(_reference_cone(list(v), zp, variant.transposed_cone)
                    for v in (a.T if variant.uses_columns else a))
    holds = all(r[0] for r in reports)
    q = h_dual(p, *variant.h_pair(zp))
    return reports, holds, q, _reference_monotone_failure(q, zp, variant) if holds else None


def _as_tuples(reports):
    return tuple((r.member, r.image, r.first_negative) for r in reports)


def _cone_built(zp, variant, weights):
    """A kernel whose columns (or rows) lie in the variant's cone: each is Z
    (or Z') times a nonnegative weight vector."""
    base = zp.zeta.T if variant.transposed_cone else zp.zeta
    g = base @ RationalMatrix(weights)  # column c is the margin of state c
    return g if variant.uses_columns else g.T


_ratio = st.fractions(min_value=0, max_value=3, max_denominator=7)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(0, 3))
    zp = subset_lattice(n).pair
    variant = draw(st.sampled_from(list(DualityVariant)))
    k = 1 << n
    rows = draw(st.lists(st.lists(_ratio, min_size=k, max_size=k), min_size=k, max_size=k))
    kind = draw(st.sampled_from(["random", "stochastic", "large", "cone"]))
    if kind == "stochastic":
        rows = [[x / sum(r) for x in r] if sum(r) else [F(1, k)] * k for r in rows]
    m = _cone_built(zp, variant, rows) if kind == "cone" else RationalMatrix(rows)
    if kind == "large":
        m = m.scale(2**70)  # numerators beyond int64
    return zp, variant, Kernel.of(m), kind


@settings(max_examples=100, deadline=None)
@given(kernel_cases())
def test_certificates_match_fraction_reference(case):
    zp, variant, p, kind = case
    per_index, holds, q, q_nonneg = _reference_certificate(p, zp, variant)
    rep = positivity_certificate(p, zp, variant)
    assert (_as_tuples(rep.per_index), rep.condition_holds, rep.q, rep.q_nonnegative) == (
        per_index, holds, q, q_nonneg)
    per_index, holds, q, failure = _reference_strong(p, zp, variant)
    assert failure is None
    strong = strong_condition_check(p, zp, variant)
    assert (_as_tuples(strong.per_index), strong.condition_holds, strong.q) == (
        per_index, holds, q)
    assert strong.condition_holds or kind != "cone"


@pytest.mark.parametrize("descriptor", ["uses_columns", "cumulative_downward", "transposed_cone"])
@pytest.mark.parametrize("variant", list(DualityVariant))
def test_broken_descriptor_fails_images_identity(descriptor, variant, monkeypatch):
    # flipping one entry of the descriptor table changes the images of every
    # kernel, whether or not the condition (i) verdict changes with it
    flag = getattr(DualityVariant, descriptor)
    monkeypatch.setattr(DualityVariant, descriptor,
                        property(lambda self: flag.fget(self) != (self is variant)))
    zp = subset_lattice(2).pair
    p = Kernel.of(RationalMatrix([["1/2", "1/3", "1/6", "0"], ["1/5", "2/5", "0", "2/5"],
                                  ["1/7", "0", "3/7", "3/7"], ["1/4", "1/4", "1/4", "1/4"]]))
    with pytest.raises(VerificationFailure) as e:
        positivity_certificate(p, zp, variant)
    assert e.value.identity == "condition (i) images = Q"
    for other in DualityVariant:
        if other is not variant:
            positivity_certificate(p, zp, other)


@pytest.mark.parametrize("variant", list(DualityVariant))
def test_monotone_failure_names_the_reference_pair(variant, monkeypatch):
    # claim the opposite monotonicity: the first pair that breaks it is the
    # one the pair-by-pair reference scan finds
    import random

    rng = random.Random(3)
    zp = subset_lattice(3).pair
    w = [[F(rng.randrange(0, 4)) for _ in range(8)] for _ in range(8)]
    p = Kernel.of(_cone_built(zp, variant, w))
    claimed = variant.monotonicity
    flipped = claimed.replace("increasing", "x").replace("decreasing", "increasing").replace(
        "x", "decreasing")
    monkeypatch.setattr(DualityVariant, "monotonicity",
                        property(lambda self: flipped if self is variant else claimed))
    q = h_dual(p, *variant.h_pair(zp))
    expected = _reference_monotone_failure(q, zp, variant)
    assert expected is not None
    with pytest.raises(VerificationFailure) as e:
        strong_condition_check(p, zp, variant)
    assert (e.value.identity, e.value.witness) == ("condition (ii) => Q monotone", expected)


def test_cone_member_with_negative_g_names_the_reference_witness():
    # with -I in place of M a negative g has a nonnegative image; both paths
    # name the first negative entry of g
    import dataclasses

    zp = subset_lattice(2).pair
    bad = dataclasses.replace(zp, moebius=RationalMatrix.identity(4).scale(-1))
    g = [0, -1, -2, 0]
    with pytest.raises(VerificationFailure) as ref:
        _reference_cone(g, bad, False)
    with pytest.raises(VerificationFailure) as e:
        cone_membership(g, bad)
    assert (e.value.identity, e.value.witness) == (ref.value.identity, ref.value.witness)
    assert e.value.witness == zp.poset.elements[1]
    # a negative g outside the cone is a plain non-member
    assert cone_membership([-1, 0, 0, 0], zp) == ConeReport(False, (-1, 0, 0, 0), 0)


def test_negative_kernel_names_first_negative_entry():
    p = Kernel.of(RationalMatrix([[1, 0, "-1/3"], [0, -2, 1], [0, 0, 1]]))
    zp = build_poset(range(3), lambda a, b: a <= b)
    with pytest.raises(InvalidParameter, match=r"entry \(0, 2\) is negative: -1/3"):
        positivity_certificate(p, moebius_matrix(zp), DualityVariant.ZETA)


def _fraction_matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def _fraction_rows(m):
    """The entries of m, one scalar read each."""
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


@pytest.mark.parametrize("lattice", [subset_lattice(3), partition_lattice(3)],
                         ids=["subsets3", "partitions3"])
@pytest.mark.parametrize("variant", list(DualityVariant))
def test_cone_images_match_plain_fraction_products(lattice, variant):
    import random

    zp = lattice.pair
    n = len(zp.poset)
    z, m = _fraction_rows(zp.zeta), _fraction_rows(zp.moebius)
    zt, mt = [list(c) for c in zip(*z)], [list(c) for c in zip(*m)]
    rng = random.Random(n * 10 + list(DualityVariant).index(variant))
    weights = [[F(rng.randrange(0, 4)) for _ in range(n)] for _ in range(n)]
    kernels = [_random_kernel_rows(rng, n, denom=6), _random_kernel_rows(rng, n, denom=35),
               _cone_built(zp, variant, weights)]
    for kernel in kernels:
        p = _fraction_rows(kernel)
        single = p if variant.uses_columns else [list(c) for c in zip(*p)]
        cumulative = _fraction_matmul(single, z if variant.cumulative_downward else zt)
        cone = mt if variant.transposed_cone else m
        for report, margins in ((positivity_certificate(Kernel.of(kernel), zp, variant), cumulative),
                                (strong_condition_check(Kernel.of(kernel), zp, variant), single)):
            images = _fraction_matmul(cone, margins)
            assert [r.image for r in report.per_index] == [tuple(c) for c in zip(*images)]
            assert all(type(x) is F for r in report.per_index for x in r.image)
