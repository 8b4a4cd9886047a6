import dataclasses
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import (
    DualityVariant,
    Kernel,
    RationalMatrix,
    build_poset,
    h_dual,
    coarse_set_matrices_enumerated,
    moebius_matrix,
    moran_law,
    multiallelic_kernels,
    partition_lattice,
    product_poset,
    subset_lattice,
    zeta_matrix,
)
from moebius_dual import duality, lattices, poset
from moebius_dual.errors import (InvalidParameter, PartialOrderViolation, SizeOverflow,
                                 VerificationFailure)


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
    # every blocked pair scan of a small order is one block: the validation of
    # each order, and the Z M = I of the partition lattice
    blocks = []

    def recorded(m, width):
        found = list(pair_blocks(m, width))
        blocks.append((len(m), len(found)))
        return iter(found)

    pair_blocks = poset._pair_blocks
    monkeypatch.setattr(poset, "_pair_blocks", recorded)
    for n in (30, 72):
        divisibility(n)
        chain(n)
    partition_lattice(6)
    assert blocks == [(n, 1) for n in (30, 30, 72, 72, 203, 203)]


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


@pytest.mark.parametrize("build, states, product", [
    (lambda: subset_lattice(8), 256, True),
    (lambda: subset_lattice(9), 512, True),
    (lambda: partition_lattice(6), 203, False),
    (lambda: partition_lattice(7), 877, False),
    (lambda: multiallelic_kernels(moran_law(4), 3), 256, True),
    (lambda: multiallelic_kernels(moran_law(3), 6), 343, True),
], ids=["subsets-8", "subsets-9", "partitions-6", "partitions-7", "T3-N4", "T6-N3"])
def test_library_orders_are_self_checked_up_to_256_states(self_checks, build, states, product):
    # every library order is checked at every size: a partition lattice has its
    # order validated and Z M = I checked on each build; a product order
    # (subsets, Cannings partial states) has its one distinct factor, the
    # claw, validated and checked once, when it is cached, and its order
    # checked against the claw's Kronecker power on each build
    lattices._claw.cache_clear()
    assert len(build().pair.poset) == states
    assert self_checks == Counter({"order": 1, "Z M = I": 1})
    self_checks.clear()
    build()
    assert self_checks == (Counter() if product else Counter({"order": 1, "Z M = I": 1}))


def test_enumeration_compares_every_representative_up_to_256_subsets(monkeypatch):
    # the row of every subset J is compared with the row of {1..|J|}: one
    # subset put in the wrong cardinality class miscounts the rows of its
    # subsets and supersets, and is caught wherever it lies
    bitwise_count = np.bitwise_count
    for wrong in range(2 ** 8):
        def miscounted(masks, wrong=wrong):
            cards = bitwise_count(masks)
            return np.where(masks == wrong, (cards + 1) % 9, cards)

        monkeypatch.setattr(np, "bitwise_count", miscounted)
        with pytest.raises(VerificationFailure, match="representative-free"):
            coarse_set_matrices_enumerated(8)
    monkeypatch.undo()
    assert coarse_set_matrices_enumerated(8).zeta[0, 8] == 1


@st.composite
def sparse_products(draw):
    """A random order or relation as a bool matrix, and a random integer
    matrix; some entries are Python ints past int64, or big enough that the
    products leave int64."""
    z = draw(relations())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bits = draw(st.sampled_from([1, 3, 31, 62, 80]))
    y = (rng.integers(-(1 << 20), 1 << 20, (len(z), draw(st.integers(0, 4)))).astype(object)
         << max(0, bits - 20))
    if bits <= 62 or draw(st.booleans()):  # int64 where it fits, else Python ints
        y = poset._ints(y, poset._bound(y))
    return z, y


@settings(max_examples=200, deadline=None)
@given(sparse_products(), st.integers(1, 64))
def test_sparse_product_matches_the_dense_product(case, block_entries):
    z, y = case
    dense = RationalMatrix._wrap(z.astype(np.int64), 1) @ RationalMatrix._wrap(y.copy(), 1)
    assert RationalMatrix._wrap(poset._sparse_product(z, y), 1) == dense
    # again over blocks of a few rows each
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset, "_BLOCK_BYTES", block_entries)
        assert RationalMatrix._wrap(poset._sparse_product(z, y), 1) == dense


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


def test_product_poset_cap(monkeypatch):
    big, small = chain(80), chain(3)

    def refuse(*args):
        raise AssertionError("product built past the cap")

    monkeypatch.setattr(poset, "build_poset", refuse)
    with pytest.raises(SizeOverflow, match="^6400 states exceed the cap 4096$"):
        product_poset(big, big)
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "8")
    with pytest.raises(SizeOverflow, match="^9 states exceed the cap 8$"):
        product_poset(small, small)


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


# ---------------------------------------------------------------------------
# Product pairs: Moebius matrices read off Kronecker factors, mode products
# ---------------------------------------------------------------------------


def stacked_antichains(width, levels):
    """Every element lies above the whole level below; mu(a, b) is
    (-1)^d (width - 1)^(d - 1) for b d levels above a."""
    return build_poset([(lvl, k) for lvl in range(levels) for k in range(width)],
                       lambda a, b: a == b or a[0] < b[0])


@st.composite
def product_pairs(draw):
    """The zeta pair of a product order of at most 256 states: a product of
    two chains, of a divisibility poset and a chain, or of three chains; a
    subset lattice; or the Cannings partial states (a claw power) at T = 1..3."""
    kind = draw(st.sampled_from(["chains", "divisors", "three", "subsets", "claws"]))
    if kind == "chains":
        a, b = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        return moebius_matrix(product_poset(chain(a), chain(b)))
    if kind == "divisors":
        return moebius_matrix(product_poset(divisibility(draw(st.integers(1, 24))),
                                            chain(draw(st.integers(1, 10)))))
    if kind == "three":
        a, b, c = (draw(st.integers(1, 6)) for _ in range(3))
        return moebius_matrix(product_poset(chain(a), product_poset(chain(b), chain(c))))
    if kind == "subsets":
        return subset_lattice(draw(st.integers(0, 8))).pair
    t = draw(st.integers(1, 3))
    n = draw(st.integers(1, {1: 8, 2: 5, 3: 4}[t]))
    return lattices._claw_power(n, t, lambda masks: tuple(map(tuple, masks.tolist())))[2]


def random_matrix(draw, rows, cols, big):
    """Nonnegative entries over one denominator; ``big`` ones, up to 2^80 in
    numerator and denominator, make the products leave int64 for Python
    integers, the others stay in int64."""
    bits = draw(st.sampled_from([62, 80] if big else [3, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    num = rng.integers(0, 1 << min(bits, 30), (rows, cols)).astype(object) << max(0, bits - 30)
    return RationalMatrix(num.tolist()).scale(Fraction(1, draw(st.integers(1, 1 << bits))))


@settings(max_examples=20, deadline=None)
@given(product_pairs(), st.data())
def test_product_pairs_agree_with_the_dense_path(zp, data):
    n = len(zp.poset)
    assert isinstance(zp.zeta, poset._KronMatrix) and isinstance(zp.moebius, poset._KronMatrix)
    # the same matrices with no Kronecker factors
    dense = dataclasses.replace(zp, zeta=RationalMatrix(zp.zeta), moebius=RationalMatrix(zp.moebius))
    assert type(dense.zeta) is type(dense.moebius) is RationalMatrix
    # M read off the factors is the column recursion's
    assert zp.moebius == poset._moebius_pair(zp.poset).moebius
    x = random_matrix(data.draw, n, data.draw(st.integers(1, 3)), data.draw(st.booleans()))
    # kernels in Python integers on the smaller pairs, where the dense
    # reference stays quick
    p = Kernel.of(random_matrix(data.draw, n, n, n <= 32 and data.draw(st.booleans())))
    with pytest.MonkeyPatch.context() as patch:
        # mode products forced at every size, and counted
        patch.setattr(poset, "_MODE_STATES", 0)
        calls, mode_product = [], poset._mode_product
        patch.setattr(poset, "_mode_product", lambda *args: calls.append(1) or mode_product(*args))
        # Z, M, Z' and M' times x and x' times each equal the dense products
        for a, b in ((zp.zeta, dense.zeta), (zp.moebius, dense.moebius)):
            for fast, slow in ((a, b), (a.T, b.T)):
                assert fast @ x == slow @ x
                assert x.T @ fast == x.T @ slow
        assert len(calls) == 8
        # every variant's dual, cone images and reports
        cumulative = data.draw(st.booleans())
        for variant in DualityVariant:
            assert h_dual(p, *variant.h_pair(zp)) == h_dual(p, *variant.h_pair(dense))
            if n > 128:  # each report holds its image as n Fractions, slow past here
                continue
            # images, verdict and dual, and each report's verdict and witness;
            # the reports' image tuples are the columns of the images
            got, want = (duality._certify(p, pair, variant, cumulative) for pair in (zp, dense))
            assert got[0] == want[0] and got[2:] == want[2:]
            assert ([(r.member, r.first_negative) for r in got[1]]
                    == [(r.member, r.first_negative) for r in want[1]])


def test_product_pair_past_int64():
    # mu of the stacked antichains reaches 7^23 > 2^63, so the Kronecker
    # product and the mode products run in Python integers
    prod = product_poset(stacked_antichains(8, 25), chain(2))
    zp = moebius_matrix(prod)
    assert zp.moebius == poset._moebius_pair(prod).moebius
    assert zp.moebius._num.dtype == object
    g = RationalMatrix(np.eye(len(prod), 3, dtype=np.int64))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poset, "_MODE_STATES", 0)
        assert zp.moebius @ g == RationalMatrix(zp.moebius) @ g
        assert g.T @ zp.zeta.T == g.T @ RationalMatrix(zp.zeta).T


def test_product_with_an_empty_factor_is_empty():
    zp = moebius_matrix(product_poset(chain(0), chain(3)))
    assert len(zp.poset) == 0 and zp.moebius.shape == (0, 0)
    assert isinstance(zp.moebius, poset._KronMatrix)


def test_product_pairs_check_their_factors_and_order(monkeypatch):
    prod = product_poset(chain(3), divisibility(6))
    pair_of = poset._moebius_pair

    def wrong(p):
        pair = pair_of(p)
        if len(p) != 3:
            return pair
        num = pair.moebius._num.copy()
        num[0, 2] += 1
        return dataclasses.replace(pair, moebius=RationalMatrix(num))

    with monkeypatch.context() as patch:
        patch.setattr(poset, "_moebius_pair", wrong)
        with pytest.raises(VerificationFailure) as e:
            moebius_matrix(prod)
    assert (e.value.identity, e.value.witness) == ("Z M = I", (0, 2))
    # a product_poset whose order lost one comparable pair
    broken = poset._poset_from_matrix(prod.elements, prod.matrix.copy())
    broken.matrix.flags.writeable = True
    broken.matrix[0, -1] = False
    leaves, perm = prod._factors
    pairs = tuple(poset._checked_pair(f) for f in leaves)
    with pytest.raises(VerificationFailure) as e:
        poset._kron_pair(broken, pairs, perm)
    assert (e.value.identity, e.value.witness) == (
        "order = permuted Kronecker power", (prod.elements[0], prod.elements[-1]))
    with pytest.raises(VerificationFailure, match="no permutation"):
        poset._kron_pair(prod, pairs, np.zeros(len(prod), dtype=np.int64))


def test_replaced_pairs_keep_no_factors():
    # Z or M replaced through dataclasses.replace is never paired with the
    # factors of the original, so products use the replaced matrices; an
    # unreplaced Z or M keeps its own
    zp = subset_lattice(7).pair
    assert len(zp.poset) > poset._MODE_STATES
    assert dataclasses.replace(zp).moebius is zp.moebius
    wrong = dataclasses.replace(zp, moebius=zp.moebius.scale(2))
    assert type(wrong.moebius) is RationalMatrix and wrong.zeta is zp.zeta
    g = RationalMatrix([[1]] * 128)
    assert duality._cone_reports(g, wrong, False)[0] == zp.moebius.scale(2) @ g


def test_product_checks_survive_optimized_mode():
    # subset_lattice(9) has 512 states; a wrong entry of its chain factor's M
    # or one flipped entry of its order fails under python -O as well
    code = (
        "import dataclasses\n"
        "from moebius_dual import RationalMatrix, lattices, poset, subset_lattice\n"
        "from moebius_dual.errors import VerificationFailure\n"
        "pair_of, order_of = poset._moebius_pair, lattices._subset_order\n"
        "def wrong_factor(p):\n"
        "    pair = pair_of(p)\n"
        "    num = pair.moebius._num.copy()\n"
        "    num[0, 1] = 0\n"
        "    return dataclasses.replace(pair, moebius=RationalMatrix(num))\n"
        "def flipped_order(masks):\n"
        "    m = order_of(masks)\n"
        "    m[0, len(masks) - 1] = False\n"
        "    return m\n"
        "for module, name, fake in ((poset, '_moebius_pair', wrong_factor),\n"
        "                           (lattices, '_subset_order', flipped_order)):\n"
        "    real = getattr(module, name)\n"
        "    setattr(module, name, fake)\n"
        "    try:\n"
        "        subset_lattice(9)\n"
        "        print('accepted')\n"
        "    except VerificationFailure as exc:\n"
        "        print(exc)\n"
        "    setattr(module, name, real)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["Z M = I fails at (0, 1)",
                                       "order = permuted Kronecker power fails at (0, 511)"]
