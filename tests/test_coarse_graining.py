import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import (
    DualityVariant,
    EquivalenceRelation,
    Kernel,
    RationalMatrix,
    build_poset,
    cardinality_relation,
    check_compatibility,
    coarse_partition_matrices,
    coarse_set_matrices,
    coarse_set_matrices_enumerated,
    moebius_matrix,
    product_poset,
    skeleton_relation,
    subset_lattice,
    coarse_duality_pipeline,
    positivity_certificate,
)
from moebius_dual import coarse_graining, lattices
from moebius_dual.coarse_graining import CoarseResult
from moebius_dual.errors import IncompatibleMatrix, InvalidParameter, SizeOverflow, VerificationFailure
from moebius_dual.lattices import (
    Partition,
    Skeleton,
    bell_number,
    enumerate_partitions,
    partition_moebius_closed_form,
    skeleton,
    skeletons_of,
)

F = Fraction


def test_relation_accessors():
    rel = EquivalenceRelation.from_function(range(4), lambda x: x % 2)
    assert rel.class_labels == (0, 1)
    assert rel.classes == {0: 0, 1: 1, 2: 0, 3: 1}
    assert rel.class_members == {0: (0, 2), 1: (1, 3)}
    assert rel.class_sizes == {0: 2, 1: 2}
    skewed = EquivalenceRelation.from_function(range(5), lambda x: "b" if x == 0 else "a")
    assert tuple(skewed.class_sizes.values()) == (1, 4)  # in class index order
    assert EquivalenceRelation.trivial("ab").num_classes == 2
    assert EquivalenceRelation.single_class("ab").num_classes == 1
    # the first unhashable class label is named
    with pytest.raises(InvalidParameter, match=r"class labels must be hashable, got \[1\]"):
        EquivalenceRelation.from_function([1, 2], lambda e: [e])


def test_identity_always_compatible():
    rel = EquivalenceRelation.from_function(range(4), lambda x: x // 2)
    res = check_compatibility(RationalMatrix.identity(4), rel)
    assert res.compatible
    assert res.coarse == RationalMatrix.identity(2)


def reference_check_compatibility(h, rel):
    """The class row sums as one Fraction sum per entry and class, each fine row
    against the first member of its class: the oracle for the lumping product."""
    n, m = len(rel.elements), rel.num_classes
    a = h.array()
    members = [[i for i, c in enumerate(rel.class_of) if c == k] for k in range(m)]
    sums = [[sum((a[i, c] for c in members[k]), Fraction(0)) for k in range(m)]
            for i in range(n)]
    coarse_rows = [None] * m
    for i in range(n):
        k = rel.class_of[i]
        if coarse_rows[k] is None:
            coarse_rows[k] = (i, sums[i])
        elif sums[i] != coarse_rows[k][1]:
            ref_i = coarse_rows[k][0]
            bad = next(t for t in range(m) if sums[i][t] != sums[ref_i][t])
            witness = (rel.elements[ref_i], rel.elements[i], rel.class_labels[bad])
            return CoarseResult(compatible=False, coarse=None, witness=witness)
    coarse = RationalMatrix([row for _, row in coarse_rows])
    return CoarseResult(compatible=True, coarse=coarse, witness=None)


@st.composite
def matrix_and_relation(draw):
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n))
    class_label = dict(zip([f"e{i}" for i in range(n)], labels))
    rel = EquivalenceRelation.from_function(class_label, class_label.get)
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    mode = draw(st.sampled_from(["random", "compatible", "one entry off"]))
    if mode != "random":
        # give every row the class sums of its class's first row, correcting
        # the entry at the first member of each target class
        first = [rel.class_of.index(k) for k in range(rel.num_classes)]
        for i in range(n):
            ref = first[rel.class_of[i]]
            for k, c0 in enumerate(first):
                cols = [c for c in range(n) if rel.class_of[c] == k]
                rows[i][c0] += sum(rows[ref][c] for c in cols) - sum(rows[i][c] for c in cols)
    if mode == "one entry off":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += draw(st.sampled_from([F(1, 5), F(-3)]))
    # large entries take the Python-int numerator path
    scale = draw(st.sampled_from([1, 2**70]))
    return RationalMatrix(rows).scale(scale), rel


@settings(max_examples=200, deadline=None)
@given(matrix_and_relation())
def test_compatibility_matches_fraction_reference(case):
    h, rel = case
    assert check_compatibility(h, rel) == reference_check_compatibility(h, rel)


def test_wrong_moebius_entry_is_caught():
    # M enters Q directly, so a wrong M given in a replaced pair, which no
    # Z M = I check of the zeta pair sees, must fail H H^-1 = I
    lat = subset_lattice(2)
    rel = cardinality_relation(lat)
    p = Kernel.of(RationalMatrix.from_function(4, 4, lambda i, j: F(1, 4)))
    rows = [list(r) for r in lat.pair.moebius]
    for i in range(4):
        for j in range(4):
            bad_rows = [list(r) for r in rows]
            bad_rows[i][j] += 1
            bad = dataclasses.replace(lat.pair, moebius=RationalMatrix(bad_rows))
            for variant in DualityVariant:
                with pytest.raises(VerificationFailure):
                    positivity_certificate(p, bad, variant)
                with pytest.raises(VerificationFailure):
                    coarse_duality_pipeline(p, bad, variant, rel)


def test_zeta_cardinality_coarse_value():
    lat = subset_lattice(3)
    rel = cardinality_relation(lat)
    res = check_compatibility(lat.pair.zeta, rel)
    assert res.compatible
    assert res.coarse[1, 2] == 2  # two 2-sets above a fixed singleton


def test_incompatible_with_witness():
    lat = subset_lattice(2)
    rel = cardinality_relation(lat)
    # H(J, K) = 1 only at J = {1}, K = {1}: the two singleton rows differ
    h = RationalMatrix.from_function(
        4, 4, lambda i, j: F(1 if (lat.poset.elements[i], lat.poset.elements[j]) == (1, 1) else 0)
    )
    res = check_compatibility(h, rel)
    assert not res.compatible
    a1, a2, cls = res.witness
    assert {a1, a2} == {1, 2} and cls == 1


def test_compatibility_rejects_a_shape_mismatch():
    rel = cardinality_relation(subset_lattice(2))
    with pytest.raises(InvalidParameter, match=r"h is 3x3, rel has 4 elements"):
        check_compatibility(RationalMatrix.identity(3), rel)


def test_compatibility_closed_under_sum_and_product():
    lat = subset_lattice(3)
    rel = cardinality_relation(lat)
    z = lat.pair.zeta
    m = lat.pair.moebius
    for h1, h2 in [(z, m), (z, z), (m, m)]:
        s = check_compatibility(h1 + h2, rel)
        p = check_compatibility(h1 @ h2, rel)
        assert s.compatible and p.compatible
        c1 = check_compatibility(h1, rel).coarse
        c2 = check_compatibility(h2, rel).coarse
        assert p.coarse == c1 @ c2
        assert s.coarse == c1 + c2


def test_coarse_inverse_is_inverse_of_coarse():
    lat = subset_lattice(4)
    rel = cardinality_relation(lat)
    cz = check_compatibility(lat.pair.zeta, rel).coarse
    cm = check_compatibility(lat.pair.moebius, rel).coarse
    assert cz @ cm == RationalMatrix.identity(5)
    assert cz.inverse() == cm


def test_transpose_pitfall_counterexample():
    # coarse of the transpose differs from the transpose of the coarse
    lat = subset_lattice(2)
    rel = cardinality_relation(lat)
    cz = check_compatibility(lat.pair.zeta, rel).coarse
    czt = check_compatibility(lat.pair.zeta.T, rel).coarse
    assert czt[2, 1] == 2 and cz.T[2, 1] == 1
    assert czt != cz.T
    # but coarse of the transposed inverse still inverts the coarse transpose
    cmt = check_compatibility(lat.pair.moebius.T, rel).coarse
    assert czt @ cmt == RationalMatrix.identity(3)


def test_product_zeta_coarse_factorizes():
    lat1, lat2 = subset_lattice(2), subset_lattice(1)
    rel1, rel2 = cardinality_relation(lat1), cardinality_relation(lat2)
    prod = product_poset(lat1.poset, lat2.poset)
    zp = moebius_matrix(prod)
    c1, c2 = rel1.classes, rel2.classes
    rel = EquivalenceRelation.from_function(prod.elements, lambda e: (c1[e[0]], c2[e[1]]))
    res = check_compatibility(zp.zeta, rel)
    assert res.compatible
    c1 = check_compatibility(lat1.pair.zeta, rel1).coarse
    c2 = check_compatibility(lat2.pair.zeta, rel2).coarse
    for a, (a1, a2) in enumerate(rel.class_labels):
        for b, (b1, b2) in enumerate(rel.class_labels):
            assert res.coarse[a, b] == c1[a1, b1] * c2[a2, b2]


def test_coarse_set_matrices_closed_forms():
    cm = coarse_set_matrices(3)
    assert cm.zeta[1, 2] == 2
    assert cm.moebius[1, 2] == -2
    assert cm.zeta_transpose[2, 1] == 2
    assert cm.moebius_transpose[2, 1] == -2
    for n in range(0, 9):
        cm = coarse_set_matrices(n)
        en = coarse_set_matrices_enumerated(n)
        assert (cm.zeta, cm.moebius, cm.zeta_transpose, cm.moebius_transpose) == (
            en.zeta,
            en.moebius,
            en.zeta_transpose,
            en.moebius_transpose,
        )
        assert all(cm.zeta[j, j] == 1 for j in range(n + 1))
    with pytest.raises(SizeOverflow):
        coarse_set_matrices(30)
    with pytest.raises(SizeOverflow):
        coarse_set_matrices_enumerated(13)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_enumeration_catches_a_wrong_count_at_a_middle_representative(monkeypatch, n):
    # {2..N-1} put in class N-1 miscounts the superset rows of its subsets:
    # {2} (class 1) gains a superset of size N-1, while {1} and {N}, the first
    # and last representatives, contain no such subset, and the miscounted
    # rows of {1..N-1} and {2..N} (class N-1) agree
    bitwise_count = np.bitwise_count
    middle = (1 << (n - 1)) - 2

    def miscounted(masks):
        cards = bitwise_count(masks)
        return np.where(masks == middle, cards + 1, cards)

    monkeypatch.setattr(np, "bitwise_count", miscounted)
    with pytest.raises(VerificationFailure) as e:
        coarse_set_matrices_enumerated(n)
    assert (e.value.identity, e.value.witness) == ("coarse set rows are representative-free", 1)


def test_coarse_set_matches_full_lattice_coarsening():
    for n in range(0, 6):
        lat = subset_lattice(n)
        rel = cardinality_relation(lat)
        cm = coarse_set_matrices(n)
        assert check_compatibility(lat.pair.zeta, rel).coarse == cm.zeta
        assert check_compatibility(lat.pair.moebius, rel).coarse == cm.moebius
        assert check_compatibility(lat.pair.zeta.T, rel).coarse == cm.zeta_transpose
        assert (
            check_compatibility(lat.pair.moebius.T, rel).coarse
            == cm.moebius_transpose
        )


def test_coarse_partition_matrices_values():
    skels, z, mo = coarse_partition_matrices(3)
    names = [str(s) for s in skels]
    assert names == ["1+1+1", "2+1", "3"]
    assert z[0, 1] == 3  # three 2+1 partitions above the singletons
    assert z[0, 0] == 1
    assert mo[0, 2] == 2  # mu(bottom, top) on three elements
    assert z @ mo == RationalMatrix.identity(3)
    with pytest.raises(SizeOverflow):
        coarse_partition_matrices(9)


def test_coarse_partition_matches_full_lattice_coarsening():
    for n in range(1, 6):
        parts = enumerate_partitions(n)
        poset = build_poset(parts, lambda a, b: a.refines(b))
        zp = moebius_matrix(poset)
        rel = skeleton_relation(poset.elements)
        skels, z, mo = coarse_partition_matrices(n)
        assert tuple(skels) == rel.class_labels
        assert check_compatibility(zp.zeta, rel).coarse == z
        assert check_compatibility(zp.moebius, rel).coarse == mo


def test_source_column_coarsening_detects_dependence():
    rel = EquivalenceRelation.from_function(range(3), lambda x: min(x, 1))
    # columns 1 and 2 (same target class) have different class-0 sums
    # source-column coarsening is the row-sum coarsening of the transpose
    q = RationalMatrix([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    res = check_compatibility(q.T, rel)
    assert not res.compatible
    assert res.witness == (1, 2, 1)
    # whereas the identity is representative-independent here
    ok = check_compatibility(RationalMatrix.identity(3).T, rel)
    assert ok.compatible and ok.coarse.T == RationalMatrix.identity(2)



@pytest.mark.parametrize("variant", [DualityVariant.ZETA, DualityVariant.ZETA_TRANSPOSE])
def test_coarse_pipeline_runs_on_a_dual_with_negative_entries(variant):
    # a stochastic kernel whose duals under both zeta variants have negative
    # entries: the h-transform of such a coarse dual is valid input
    lat = subset_lattice(2)
    p = Kernel.of(RationalMatrix([[0, "1/2", "1/2", 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]))
    res = coarse_duality_pipeline(p, lat.pair, variant, cardinality_relation(lat))
    assert not res.q_coarse_hh.matrix.is_nonnegative()

def test_coarse_pipeline_trivial_and_one_class_relations():
    lat = subset_lattice(2)
    p = Kernel.of(
        RationalMatrix.from_function(4, 4, lambda i, j: F(1, 4))
    )
    trivial = EquivalenceRelation.trivial(lat.poset.elements)
    res = coarse_duality_pipeline(p, lat.pair, DualityVariant.ZETA, trivial)
    assert res.p_coarse.matrix == p.matrix
    assert res.q_coarse_hh.matrix == res.q
    # a one-class relation needs H itself to be compatible; on an antichain
    # the zeta matrix is the identity, so the pipeline collapses to total mass
    antichain = moebius_matrix(build_poset(range(3), lambda a, b: a == b))
    pu = Kernel.of(RationalMatrix.from_function(3, 3, lambda i, j: F(1, 3)))
    one = EquivalenceRelation.single_class(antichain.poset.elements)
    res1 = coarse_duality_pipeline(pu, antichain, DualityVariant.ZETA, one)
    assert res1.p_coarse.matrix == RationalMatrix([[1]])
    assert res1.q_coarse_hh.matrix == RationalMatrix([[1]])
    # on a nontrivial poset the zeta matrix is not one-class compatible
    with pytest.raises(IncompatibleMatrix) as e:
        coarse_duality_pipeline(
            p, lat.pair, DualityVariant.ZETA,
            EquivalenceRelation.single_class(lat.poset.elements),
        )
    assert e.value.which == "H"


def test_coarse_pipeline_incompatible_p_raises():
    lat = subset_lattice(2)
    rel = cardinality_relation(lat)
    # a stochastic P that treats the two singletons differently
    rows = RationalMatrix.identity(4).array()
    rows[1, :] = [F(1), F(0), F(0), F(0)]
    p = Kernel.of(RationalMatrix(rows))
    with pytest.raises(IncompatibleMatrix) as e:
        coarse_duality_pipeline(p, lat.pair, DualityVariant.ZETA, rel)
    assert e.value.which == "P"


def test_coarse_pipeline_rejects_a_reordered_relation():
    lat = subset_lattice(2)
    p = Kernel.of(RationalMatrix.from_function(4, 4, lambda i, j: F(1, 4)))
    rel = EquivalenceRelation.trivial(reversed(lat.poset.elements))
    with pytest.raises(InvalidParameter, match=r"rel elements must match the zp poset"):
        coarse_duality_pipeline(p, lat.pair, DualityVariant.ZETA, rel)


def test_coarse_pipeline_restores_stochasticity_on_symmetric_kernel():
    lat = subset_lattice(2)
    rel = cardinality_relation(lat)
    # uniform kernel is compatible and stochastic
    p = Kernel.of(RationalMatrix.from_function(4, 4, lambda i, j: F(1, 4)))
    for variant in DualityVariant:
        res = coarse_duality_pipeline(p, lat.pair, variant, rel)
        assert res.p_coarse.is_stochastic
        assert res.h_hat == (F(1), F(2), F(1))
        # coarse duality, re-checked here explicitly
        assert (
            res.h_coarse_hat @ res.q_coarse_hh.matrix.T
            == res.p_coarse.matrix @ res.h_coarse_hat
        )


# ---------------------------------------------------------------------------
# The Python loops that the coarse enumerations replaced, kept as references
# ---------------------------------------------------------------------------


def reference_coarse_set_rows(n):
    """Per cardinality j, the rows of Z, M, Z', M' at the first representative
    and whether every other representative gives the same rows."""
    size = n + 1

    def reps(j):
        if n <= 8:
            return [m for m in range(1 << n) if bin(m).count("1") == j]
        lo = (1 << j) - 1
        hi = lo << (n - j)
        return [lo] if lo == hi else [lo, hi]

    def rows_for(rep):
        z, mo, zt, mot = ([0] * size for _ in range(4))
        j = bin(rep).count("1")
        for mask in range(1 << n):
            k = bin(mask).count("1")
            if rep & ~mask == 0:
                z[k] += 1
                mo[k] += (-1) ** (k - j)
            if mask & ~rep == 0:
                zt[k] += 1
                mot[k] += (-1) ** (j - k)
        return z, mo, zt, mot

    out = []
    for j in range(size):
        cand = [rows_for(r) for r in reps(j)]
        assert all(c == cand[0] for c in cand[1:])
        out.append(cand[0])
    return [RationalMatrix([r[t] for r in out]) for t in range(4)]


def reference_rgs(n):
    """All restricted-growth strings of length n by recursion, in canonical
    order: atoms descending, then RGS lex."""
    out = []

    def grow(rgs, top):
        if len(rgs) == n:
            out.append(tuple(rgs))
            return
        for v in range(top + 2):
            grow(rgs + [v], max(top, v))

    grow([], -1)
    return sorted(out, key=lambda r: (-len(set(r)), r))


def consecutive_blocks(eta):
    """The partition {1..e1}{e1+1..}... with the atom sizes of ``eta``."""
    bounds = np.cumsum((0,) + eta.parts)
    return Partition.from_atoms([range(a + 1, b + 1) for a, b in zip(bounds, bounds[1:])], eta.total)


def reversal(alpha):
    """The image of ``alpha`` under i -> n + 1 - i."""
    return Partition.from_atoms([{alpha.n + 1 - i for i in a} for a in alpha.atoms()], alpha.n)


def reference_coarse_partition_rows(n):
    """The coarse rows from Partition objects alone, at a representative of
    consecutive blocks and at its reversal, which must agree."""
    parts = [Partition(r) for r in reference_rgs(n)]
    skels = list(dict.fromkeys(skeleton(g) for g in parts))
    by_skel = [[g for g in parts if skeleton(g) == s] for s in skels]

    def rows_for(alpha):
        z = [0] * len(skels)
        mo = [0] * len(skels)
        for k, members in enumerate(by_skel):
            for gamma in members:
                if alpha.refines(gamma):
                    z[k] += 1
                    mo[k] += partition_moebius_closed_form(alpha, gamma)
        return z, mo

    rows = []
    for eta in skels:
        rep = consecutive_blocks(eta)
        rows.append(rows_for(rep))
        assert rows[-1] == rows_for(reversal(rep))
    return skels, RationalMatrix([r[0] for r in rows]), RationalMatrix([r[1] for r in rows])


def test_rgs_array_matches_the_recursive_reference():
    for n in range(10):
        got = lattices._rgs(n)
        assert got.dtype == np.int8 and got.shape == (bell_number(n), n)
        assert [tuple(r) for r in got.tolist()] == reference_rgs(n)
        assert [p.rgs for p in enumerate_partitions(n)] == reference_rgs(n)
        if n <= 7:
            # bit k of a pair mask is the k-th pair (i, j), i < j, ordered by j then i
            pairs = [(i, j) for j in range(n) for i in range(j)]
            assert lattices._pair_masks(got).tolist() == [
                sum(1 << k for k, (i, j) in enumerate(pairs) if r[i] == r[j]) for r in got.tolist()]


def test_coarse_set_enumeration_matches_loop_reference():
    for n in range(13):
        en = coarse_set_matrices_enumerated(n)
        assert [en.zeta, en.moebius, en.zeta_transpose, en.moebius_transpose] == (
            reference_coarse_set_rows(n))


def test_coarse_partition_matrices_match_loop_reference():
    for n in range(1, 9):
        assert coarse_partition_matrices(n) == reference_coarse_partition_rows(n)


def test_representatives_are_the_consecutive_blocks_and_their_reversal():
    for n in range(1, 9):
        skels = skeletons_of(n)
        sizes = np.array([s.parts + (0,) * (n - s.part_count) for s in skels])
        firsts = [consecutive_blocks(s) for s in skels]
        expected = [p.rgs for p in firsts] + [reversal(p).rgs for p in firsts]
        assert [tuple(r) for r in coarse_graining._representatives(sizes).tolist()] == expected


def _singleton_seconds(sizes, real=coarse_graining._representatives):
    """``_representatives`` with the singletons as every second representative."""
    reps = real(sizes)
    reps[len(sizes):] = np.arange(sizes.shape[1])
    return reps


def test_representative_dependence_is_caught(monkeypatch):
    # a second representative that disagrees with the first fails the check,
    # at the first skeleton whose rows differ
    monkeypatch.setattr(coarse_graining, "_representatives", _singleton_seconds)
    with pytest.raises(VerificationFailure, match="representative-free") as e:
        coarse_partition_matrices(3)
    assert e.value.witness == Skeleton((2, 1))


def test_representative_dependence_is_caught_in_optimized_mode():
    # the same wrong second representatives fail under python -O as well
    code = (
        "import numpy as np\n"
        "from moebius_dual import coarse_graining, coarse_partition_matrices\n"
        "from moebius_dual.errors import VerificationFailure\n"
        "real = coarse_graining._representatives\n"
        "def singleton_seconds(sizes):\n"
        "    reps = real(sizes)\n"
        "    reps[len(sizes):] = np.arange(sizes.shape[1])\n"
        "    return reps\n"
        "coarse_graining._representatives = singleton_seconds\n"
        "try:\n"
        "    coarse_partition_matrices(3)\n"
        "    print('accepted')\n"
        "except VerificationFailure as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines() == [
        "coarse partition rows are representative-free fails at Skeleton(parts=(2, 1))"]
