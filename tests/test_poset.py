import dataclasses
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import (
    RationalMatrix,
    build_poset,
    coarse_set_matrices_enumerated,
    moebius_matrix,
    moran_law,
    multiallelic_kernels,
    partition_lattice,
    product_poset,
    subset_lattice,
    zeta_matrix,
)
from moebius_dual import coarse_graining, poset
from moebius_dual.errors import InvalidParameter, PartialOrderViolation, SizeOverflow


def chain(n):
    return build_poset(range(n), lambda a, b: a <= b)


def divisibility(n):
    return build_poset(range(1, n + 1), lambda a, b: b % a == 0)


def test_validation_witnesses():
    with pytest.raises(PartialOrderViolation) as e:
        build_poset([0, 1], lambda a, b: a < b)
    assert e.value.axiom == "reflexivity"
    with pytest.raises(PartialOrderViolation) as e:
        build_poset([0, 1], lambda a, b: True)
    assert e.value.axiom == "antisymmetry"
    rel = {(0, 1), (1, 2)}
    with pytest.raises(PartialOrderViolation) as e:
        build_poset([0, 1, 2], lambda a, b: a == b or (a, b) in rel)
    assert e.value.axiom == "transitivity"
    assert e.value.witness == (0, 1, 2)


def dense_validate_order(labels, m):
    """The order validation the packed one replaced: one int64 product m @ m."""
    n = len(labels)
    for i in range(n):
        if not m[i, i]:
            raise PartialOrderViolation("reflexivity", (labels[i],))
    both = m & m.T
    ii, jj = np.nonzero(both)
    for i, j in zip(ii.tolist(), jj.tolist()):
        if i != j:
            raise PartialOrderViolation("antisymmetry", (labels[i], labels[j]))
    # i<=j and j<=k but not i<=k, found via one boolean matrix product
    reach = (m.astype(np.int64) @ m.astype(np.int64)) > 0
    bad = reach & ~m
    if bad.any():
        i, k = next(zip(*(x.tolist() for x in np.nonzero(bad))))
        j = next(j for j in range(n) if m[i, j] and m[j, k])
        raise PartialOrderViolation("transitivity", (labels[i], labels[j], labels[k]))


def validation_outcome(validate, m):
    labels = [f"x{i}" for i in range(len(m))]
    try:
        validate(labels, m)
    except PartialOrderViolation as exc:
        return exc.axiom, exc.witness
    return None


@st.composite
def relations(draw):
    """The componentwise order of up to 150 random grid points, which crosses
    the 8- and 64-bit row widths, with up to three reflexivity, antisymmetry
    or transitivity defects."""
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.integers(0, draw(st.integers(2, 8)), size=(n, 1, 2))
    eye = np.eye(n, dtype=bool)
    # equal points are incomparable, so that the order is antisymmetric
    m = (p <= p.transpose(1, 0, 2)).all(axis=2) & ((p != p.transpose(1, 0, 2)).any(axis=2) | eye)
    for kind in draw(st.lists(st.sampled_from("ratt"), max_size=3 if n else 0)):
        i, j = rng.integers(0, n, 2)
        if kind == "r":
            m[i, i] = False
        elif kind == "a":
            m[i, j] = m[j, i] = True
        else:  # drop a comparable or add an incomparable pair, which breaks transitivity or not
            pairs = np.argwhere(m ^ eye if i % 2 else ~(m | m.T))
            if len(pairs):
                i, j = pairs[j % len(pairs)]
                m[i, j] = not m[i, j]
    return m


@settings(max_examples=200, deadline=None)
@given(relations(), st.integers(1, 64))
def test_packed_validation_matches_the_dense_reference(m, block_bytes):
    expected = validation_outcome(dense_validate_order, m)
    assert validation_outcome(poset._validate_order, m) == expected
    # again over blocks of a few rows each, so that most violations lie in a later block
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset, "_BLOCK_BYTES", block_bytes)
        assert validation_outcome(poset._validate_order, m) == expected


def test_packed_validation_finds_a_violation_in_a_later_pair_block(monkeypatch):
    # 100 elements pack into 13 bytes per row, so a block holds at most three
    # pairs, and each row of the chain is a block of its own; the missing pair
    # lies past the first 64 columns
    monkeypatch.setattr(poset, "_BLOCK_BYTES", 3 * 13)
    m = np.triu(np.ones((100, 100), dtype=bool))
    m[70, 90] = False
    assert validation_outcome(poset._validate_order, m) == ("transitivity", ("x70", "x71", "x90"))
    assert validation_outcome(dense_validate_order, m) == ("transitivity", ("x70", "x71", "x90"))


def test_antisymmetry_in_a_later_block_precedes_an_earlier_intransitive_row(monkeypatch):
    monkeypatch.setattr(poset, "_BLOCK_BYTES", 13)  # 100 elements: one row per block
    m = np.triu(np.ones((100, 100), dtype=bool))
    m[10, 20] = False
    m[95, 80] = True
    assert validation_outcome(poset._validate_order, m) == ("antisymmetry", ("x80", "x95"))
    m[95, 80] = False
    assert validation_outcome(poset._validate_order, m) == ("transitivity", ("x10", "x11", "x20"))


def test_small_orders_are_validated_in_one_block(monkeypatch):
    blocks = []

    def recorded(weights, limit):
        found = list(row_blocks(weights, limit))
        blocks.append(found)
        return found

    row_blocks = poset._row_blocks
    monkeypatch.setattr(poset, "_row_blocks", recorded)
    for n in (30, 72):
        divisibility(n)
        chain(n)
    subset_lattice(8)  # the largest library order that is validated
    assert blocks == [[(0, n)] for n in (30, 30, 72, 72, 256)]


def test_validation_memory_is_bounded_by_blocks_of_rows():
    # a 4,096-element chain has 8.4 million comparable pairs, whose int64
    # index arrays alone would take 192 MB at once
    m = np.triu(np.ones((4096, 4096), dtype=bool))
    labels = tuple(range(4096))
    tracemalloc.start()
    try:
        poset._validate_order(labels, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20


def test_caller_orders_are_validated_at_every_size():
    # 600 elements, past the old 512-element validation bound
    with pytest.raises(PartialOrderViolation) as e:
        build_poset(range(600), lambda a, b: b - a in (0, 1))
    assert (e.value.axiom, e.value.witness) == ("transitivity", (0, 1, 2))
    with pytest.raises(PartialOrderViolation) as e:
        build_poset(range(600), lambda a, b: a <= b or (a, b) == (599, 0))
    assert (e.value.axiom, e.value.witness) == ("antisymmetry", (0, 599))


def test_unhashable_labels_are_a_typed_error():
    with pytest.raises(InvalidParameter, match=r"hashable, got \[2\]"):
        build_poset([(1,), [2], [3]], lambda a, b: a == b)
    # an exception of the caller's leq propagates unchanged
    with pytest.raises(ZeroDivisionError):
        build_poset([0, 1, 2], lambda a, b: b % a == 0)


@pytest.fixture
def self_checks(monkeypatch):
    """Counts the order validations and the Z M = I checks of the poset layer."""
    counts = Counter()
    validate, require_equal = poset._validate_order, poset._require_equal

    def counted_validate(labels, m):
        counts["order"] += 1
        validate(labels, m)

    def counted_require_equal(a, b, identity):
        counts[identity] += 1
        require_equal(a, b, identity)

    monkeypatch.setattr(poset, "_validate_order", counted_validate)
    monkeypatch.setattr(poset, "_require_equal", counted_require_equal)
    return counts


@pytest.mark.parametrize("build, states", [
    (lambda: subset_lattice(8), 256),
    (lambda: subset_lattice(9), 512),
    (lambda: partition_lattice(6), 203),
    (lambda: partition_lattice(7), 877),
    (lambda: multiallelic_kernels(moran_law(4), 3), 256),
    (lambda: multiallelic_kernels(moran_law(3), 6), 343),
], ids=["subsets-8", "subsets-9", "partitions-6", "partitions-7", "T3-N4", "T6-N3"])
def test_library_orders_are_self_checked_up_to_256_states(self_checks, build, states):
    assert len(build().pair.poset) == states
    assert self_checks == (Counter({"order": 1, "Z M = I": 1}) if states <= 256 else Counter())


def test_enumeration_compares_every_representative_up_to_256_subsets(monkeypatch):
    reps = []
    class_counts = coarse_graining._class_counts

    def counted(hits, classes, size):
        reps.append(len(hits))
        return class_counts(hits, classes, size)

    monkeypatch.setattr(coarse_graining, "_class_counts", counted)
    coarse_set_matrices_enumerated(8)
    assert sum(reps) == 2 * 2 ** 8  # every subset, once for up-sets and once for down-sets
    reps.clear()
    coarse_set_matrices_enumerated(9)
    assert max(reps) == 2 and sum(reps) == 2 * (2 * 10 - 2)  # one for the empty and for the full set


def test_caller_and_product_orders_are_always_validated(self_checks):
    build_poset(range(600), lambda a, b: a <= b)
    assert self_checks["order"] == 1
    product_poset(chain(20), chain(30))  # 600 elements
    assert self_checks["order"] == 4


def test_index_order_is_stable_linear_extension():
    # input already a linear extension is kept verbatim
    p = divisibility(12)
    assert p.elements == tuple(range(1, 13))
    # a scrambled input is re-sorted; ties break by input position, so 4
    # (listed first) precedes the incomparable 3
    q = build_poset([4, 2, 1, 3], lambda a, b: b % a == 0)
    assert q.elements == (1, 2, 4, 3)
    assert q.leq(2, 4) and not q.leq(2, 3)
    order = {e: i for i, e in enumerate(q.elements)}
    assert all(order[a] <= order[b] for a in q.elements for b in q.elements
               if q.leq(a, b))


def test_index_order_takes_earliest_ready_input_first():
    # a < b < c with d incomparable to all three: Kahn's sort places, at each
    # step, the earliest input among elements whose predecessors are placed
    rank = {"a": 0, "b": 1, "c": 2}
    calls = []

    def leq(x, y):
        calls.append((x, y))
        return x == y or (x in rank and y in rank and rank[x] <= rank[y])

    assert build_poset("abcd", leq).elements == ("a", "b", "c", "d")
    # not sorted by predecessor count, which would put a and d first
    assert build_poset("dcba", leq).elements == ("d", "a", "b", "c")
    # leq is asked once per ordered pair, row by row in input order
    assert calls[16:] == [(x, y) for x in "dcba" for y in "dcba"]
    assert build_poset([], leq).matrix.shape == (0, 0)


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        build_poset([1, 1], lambda a, b: a <= b)


def test_zeta_and_moebius_chain():
    zp = moebius_matrix(chain(4))
    assert zp.zeta @ zp.moebius == RationalMatrix.identity(4)
    # chain Moebius: 1 on the diagonal, -1 on the superdiagonal
    for i in range(4):
        for j in range(4):
            expected = 1 if i == j else (-1 if j == i + 1 else 0)
            assert zp.moebius[i, j] == expected
    assert zp.mu_value(0, 1) == -1
    assert zp.mu_value(0, 0) == 1


def test_moebius_against_gauss_jordan_oracle():
    for poset in (chain(6), divisibility(12)):
        zp = moebius_matrix(poset)
        assert zp.moebius == zeta_matrix(poset).inverse()


def test_zeta_pair_transposes():
    zp = moebius_matrix(divisibility(8))
    zt, mt = zp.zeta_transpose, zp.moebius_transpose
    assert zt @ mt == RationalMatrix.identity(8)
    assert zt == zp.zeta.T and mt == zp.moebius.T


def test_product_poset_moebius_factorizes():
    p1, p2 = chain(3), divisibility(6)
    zp1, zp2 = moebius_matrix(p1), moebius_matrix(p2)
    prod = product_poset(p1, p2)
    zp = moebius_matrix(prod)
    for (a1, a2) in prod.elements:
        for (b1, b2) in prod.elements:
            if prod.leq((a1, a2), (b1, b2)):
                assert zp.mu_value((a1, a2), (b1, b2)) == zp1.mu_value(
                    a1, b1
                ) * zp2.mu_value(a2, b2)


def test_product_poset_cap():
    with pytest.raises(SizeOverflow):
        product_poset(chain(80), chain(80))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=7))
def test_random_divisibility_subposets_invert(labels):
    poset = build_poset(sorted(labels), lambda a, b: b % a == 0)
    zp = moebius_matrix(poset)
    n = len(labels)
    assert zp.zeta @ zp.moebius == RationalMatrix.identity(n)
    assert zp.moebius @ zp.zeta == RationalMatrix.identity(n)
    # mu values are integers and mu(a,a) = 1
    for a in poset.elements:
        assert zp.mu_value(a, a) == 1
    for v in zp.mu.values():
        assert isinstance(v, int)


def test_up_down_sets():
    p = divisibility(12)
    i = p.index[2]
    ups = {p.elements[j] for j in p.up_idx(i)}
    downs = {p.elements[j] for j in p.down_idx(i)}
    assert ups == {2, 4, 6, 8, 10, 12}
    assert downs == {1, 2}
    assert all(p.leq_idx(a, b) for a, b in p.comparable_pairs())


def reference_moebius(p):
    """The row-by-row sum recursion that ``moebius_matrix`` replaced, kept as a
    reference: the Moebius rows as Python ints and the mu dict in its order."""
    n = len(p)
    below = [np.flatnonzero(p.matrix[:, b]).tolist() for b in range(n)]
    mu_rows = []
    mu = {}
    for i in range(n):
        row = [0] * n
        row[i] = 1
        for b in np.flatnonzero(p.matrix[i]).tolist():
            if b != i:
                # over c <= b, row[c] is mu(i, c) when i <= c < b and 0 otherwise
                row[b] = -sum(map(row.__getitem__, below[b]))
            mu[(p.elements[i], p.elements[b])] = row[b]
        mu_rows.append(row)
    return mu_rows, mu


def assert_matches_reference(p):
    zp = moebius_matrix(p)
    rows, mu = reference_moebius(p)
    assert list(zp.moebius) == rows
    assert list(zp.mu.items()) == list(mu.items())
    assert all(type(v) is int for v in zp.mu.values())


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=400), min_size=0, max_size=40))
def test_moebius_matches_sum_recursion_on_divisibility_posets(labels):
    # a shuffled input order makes the index order a nontrivial linear extension
    p = build_poset(sorted(labels, key=lambda x: (x * 7919) % 401), lambda a, b: b % a == 0)
    assert_matches_reference(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                                      st.integers(0, n - 1)), max_size=3 * n))))
def test_moebius_matches_sum_recursion_on_random_dag_closures(case):
    n, edges = case
    # edges i -> j with i < j, closed transitively and reflexively
    reach = np.eye(n, dtype=bool)
    for i, j in edges:
        if i < j:
            reach[i, j] = True
    for k in range(n):
        reach |= reach[:, [k]] & reach[[k], :]
    labels = [f"x{(5 * i) % n if n % 5 else i}" for i in range(n)][::-1]
    pos = {lab: n - 1 - i for i, lab in enumerate(labels)}
    p = build_poset(labels, lambda a, b: bool(reach[pos[a], pos[b]]))
    assert_matches_reference(p)


def test_mu_is_read_off_the_moebius_matrix_on_first_use():
    pair = subset_lattice(3).pair
    assert "mu" not in vars(pair)  # building the lattice built no mu dict
    labels = pair.poset.elements
    pairs = pair.poset.comparable_pairs()
    assert list(pair.mu.items()) == [((labels[i], labels[j]), pair.moebius[i, j]) for i, j in pairs]
    assert all(type(v) is int for v in pair.mu.values())
    assert "mu" in vars(pair)
    # a replaced Moebius matrix brings its own mu; a given mu is kept as it is
    doubled = dataclasses.replace(pair, moebius=pair.moebius.scale(2))
    assert list(doubled.mu.items()) == [(k, 2 * v) for k, v in pair.mu.items()]
    assert doubled.mu_value(0, 0b111) == -2
    given_mu = {**pair.mu, (0, 0b111): 5}
    assert dataclasses.replace(pair, mu=given_mu).mu is given_mu


def test_moebius_switches_to_python_ints_past_int64():
    # 25 stacked antichains of 8: every element is above the whole level below,
    # and mu(a, b) = (-1)^d 7^(d-1) for b d levels above a, up to 7^23 > 2^63
    width, levels = 8, 25
    p = build_poset([(lvl, k) for lvl in range(levels) for k in range(width)],
                    lambda a, b: a == b or a[0] < b[0])
    zp = moebius_matrix(p)
    for (a, b), v in zp.mu.items():
        d = b[0] - a[0]
        assert v == (1 if d == 0 else (-1) ** d * (width - 1) ** (d - 1))
    assert max(map(abs, zp.mu.values())) == 7 ** 23 > 2 ** 63
    assert_matches_reference(p)
    assert zp.moebius == zeta_matrix(p).inverse()


def test_up_and_down_sets_follow_the_index_order():
    p = build_poset([4, 2, 1, 3, 12, 6], lambda a, b: b % a == 0)
    for i in range(len(p)):
        assert p.up_idx(i) == [j for j in range(len(p)) if p.matrix[i, j]]
        assert p.down_idx(i) == [j for j in range(len(p)) if p.matrix[j, i]]
