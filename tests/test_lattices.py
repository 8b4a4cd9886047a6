import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import lattices
from moebius_dual import (
    Partition,
    RationalMatrix,
    Skeleton,
    bell_number,
    build_poset,
    enumerate_partitions,
    moebius_matrix,
    partition_lattice,
    partition_moebius_closed_form,
    skeleton,
    skeletons_of,
    subset_lattice,
)
from moebius_dual.errors import InvalidParameter, InvalidSkeleton, NotComparable, SizeOverflow


def test_subset_lattice_canonical_order():
    lat = subset_lattice(3)
    els = lat.poset.elements
    assert els[0] == 0 and els[-1] == 0b111
    pops = [bin(m).count("1") for m in els]
    assert pops == sorted(pops)
    # total number of comparable pairs is 3^N, counting the diagonal
    assert len(lat.poset.comparable_pairs()) == 3 ** 3


def test_subset_mu_closed_form_matches_recursion():
    for n in range(0, 5):
        lat = subset_lattice(n)
        for i, j in lat.poset.comparable_pairs():
            a, b = lat.poset.elements[i], lat.poset.elements[j]
            assert lat.pair.moebius[i, j] == lat.mu_closed_form(a, b)
    with pytest.raises(NotComparable):
        subset_lattice(2).mu_closed_form(0b01, 0b10)


def test_subset_helpers():
    lat = subset_lattice(3)
    assert lat.mask_of([1, 3]) == 0b101
    assert lat.label(0b101) == "{1 3}"
    assert lat.label(0) == "{}"
    with pytest.raises(ValueError):
        lat.mask_of([4])
    with pytest.raises(SizeOverflow):
        subset_lattice(25)
    with pytest.raises(InvalidParameter, match="N must be >= 0"):
        subset_lattice(-1)


def _refuse(*args):
    raise AssertionError("allocated past the cap")


def test_lattices_raise_on_the_state_cap_before_they_allocate(monkeypatch):
    monkeypatch.setattr(lattices, "_subset_order", _refuse)
    monkeypatch.setattr(lattices, "enumerate_partitions", _refuse)
    monkeypatch.setattr(lattices, "_rgs", _refuse)
    monkeypatch.setattr(lattices, "bell_number", lambda n: _refuse() if n > 64 else bell_number(n))
    for build, n, detail in ((subset_lattice, 13, "8192"), (subset_lattice, 15, "32768"),
                             (subset_lattice, 10**18, f"2^{10**18}"),
                             (partition_lattice, 8, "4140"),
                             (partition_lattice, 10**18, f"Bell({10**18}) >= 2^{10**18 - 1}")):
        with pytest.raises(SizeOverflow) as e:
            build(n)
        assert str(e.value) == f"{detail} states exceed the cap 4096"
    monkeypatch.undo()
    assert len(subset_lattice(12).poset) == 4096 and len(partition_lattice(7).poset) == 877
    # the library itself honours the environment's cap
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "8")
    assert len(subset_lattice(3).poset) == 8
    with pytest.raises(SizeOverflow, match="^16 states exceed the cap 8$"):
        subset_lattice(4)
    with pytest.raises(SizeOverflow, match="^15 states exceed the cap 8$"):
        partition_lattice(4)
    for raw, message in (("0", "must be >= 1, got 0"), ("eight", "'eight' is not an integer")):
        monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", raw)
        with pytest.raises(InvalidParameter, match=message):
            subset_lattice(0)


def flatten(masks, width):
    """The bitmasks of ``width`` bits each side by side, the first lowest."""
    return sum(m << (t * width) for t, m in enumerate(masks))


def test_flattening_maps_the_product_of_subset_lattices_onto_subsets():
    # the T-fold product of the subset lattice of {1..N} under the componentwise
    # order is subset_lattice(N*T): flattening is a bijection onto its masks that
    # carries the order, and with it the Moebius function, across
    for n, t in ((0, 3), (1, 1), (2, 2), (3, 2), (2, 3), (1, 5)):
        vecs = list(product(range(1 << n), repeat=t))
        prod = moebius_matrix(build_poset(vecs, lambda a, b: all(x & ~y == 0 for x, y in zip(a, b))))
        flat = subset_lattice(n * t)
        assert sorted(flatten(v, n) for v in vecs) == sorted(flat.poset.elements)
        for a in vecs:
            for b in vecs:
                fa, fb = flatten(a, n), flatten(b, n)
                assert prod.poset.leq(a, b) == flat.poset.leq(fa, fb)
                if prod.poset.leq(a, b):
                    assert prod.mu_value(a, b) == flat.mu_closed_form(fa, fb)


@pytest.mark.parametrize("parse, text", [
    (Partition.parse, "1,a"),
    (Partition.parse, "{1 x}{2}"),
    (Skeleton.parse, ""),
    (Skeleton.parse, "2+x"),
], ids=["rgs", "atoms", "empty-skeleton", "skeleton"])
def test_unparsable_partitions_and_skeletons_are_a_typed_error(parse, text):
    with pytest.raises(InvalidParameter, match=re.escape(f"cannot parse {text!r}")):
        parse(text)


def test_partition_encoding():
    p = Partition.from_atoms([{1, 2}, {3}])
    assert p.rgs == (0, 0, 1)
    assert str(p) == "{1 2}{3}"
    assert Partition.parse("{1 2}{3}") == p
    assert Partition.parse("0,0,1") == p
    assert Partition.singletons(3).num_atoms == 3
    assert Partition.one_block(3).num_atoms == 1
    with pytest.raises(ValueError):
        Partition((0, 2))  # skips label 1
    with pytest.raises(ValueError):
        Partition.from_atoms([{1, 2}, {2, 3}])


def test_refinement():
    fine = Partition.parse("{1}{2}{3 4}")
    coarse = Partition.parse("{1 2}{3 4}")
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.refines(fine)


def test_enumeration_counts_are_bell_numbers():
    for n in range(1, 7):
        assert len(enumerate_partitions(n)) == bell_number(n)
    assert [bell_number(k) for k in range(6)] == [1, 1, 2, 5, 15, 52]
    # the empty ground set has one partition, of the empty skeleton; a
    # negative one is the same typed error for all three counts
    assert len(enumerate_partitions(0)) == len(skeletons_of(0)) == 1
    for count, name in ((enumerate_partitions, "partitions"), (bell_number, "bell number"),
                        (skeletons_of, "skeletons")):
        for n in (-1, -5):
            with pytest.raises(InvalidParameter, match=f"^{name}: n must be >= 0, got {n}$"):
                count(n)


CLAW_POWERS = [(n, t) for t in (1, 2, 3) for n in range(13) if (t + 1) ** n <= 4096] + [(1, 70)]


@pytest.mark.parametrize("n, t", CLAW_POWERS, ids=[f"N{n}-T{t}" for n, t in CLAW_POWERS])
def test_claw_power_matches_the_product_reference(n, t):
    # the reference: one type assignment per itertools.product tuple, type c
    # of individual c+1 read as digit c of the code in base T+1, sorted by
    # the number present, then the masks; x <= y iff every individual
    # present in x has the same type in y
    ref = []
    for assign in product(range(t + 1), repeat=n):
        masks = [0] * t
        for c, a in enumerate(assign):
            if a:
                masks[a - 1] |= 1 << c
        code = sum(a * (t + 1) ** c for c, a in enumerate(assign))
        ref.append((sum(a > 0 for a in assign), tuple(masks), code, assign))
    ref.sort()
    masks, codes, pair = lattices._claw_power(n, t, lambda m: tuple(map(tuple, m.tolist())))
    assert masks.shape == (len(ref), t) and masks.dtype == np.int64
    assert pair.poset.elements == tuple(map(tuple, masks.tolist())) == tuple(r[1] for r in ref)
    assert codes.tolist() == [r[2] for r in ref]
    types = np.array([r[3] for r in ref], dtype=np.int64).reshape(len(ref), n)
    order = np.ones((len(ref), len(ref)), dtype=bool)
    for c in range(n):
        x, y = types[:, c, None], types[None, :, c]
        order &= (x == 0) | (x == y)
    assert np.array_equal(pair.poset.matrix, order)
    assert not np.tril(pair.poset.matrix, -1).any()
    assert pair.poset.index == {s: i for i, s in enumerate(pair.poset.elements)}


def test_partition_lattice_order_and_mu():
    pl = partition_lattice(3)
    els = pl.poset.elements
    assert els[0] == Partition.singletons(3)
    assert els[-1] == Partition.one_block(3)
    # mu(bottom, top) on three elements is 2
    assert pl.pair.mu_value(els[0], els[-1]) == 2
    for i, j in pl.poset.comparable_pairs():
        assert pl.pair.moebius[i, j] == partition_moebius_closed_form(els[i], els[j])


def test_partition_mu_closed_form_matches_recursion_up_to_5():
    for n in range(1, 6):
        pl = partition_lattice(n)
        els = pl.poset.elements
        for i, j in pl.poset.comparable_pairs():
            assert pl.pair.moebius[i, j] == partition_moebius_closed_form(els[i], els[j])
    with pytest.raises(NotComparable):
        partition_moebius_closed_form(
            Partition.parse("{1 2}{3}"), Partition.parse("{1}{2 3}")
        )


def test_skeletons():
    s = skeleton(Partition.parse("{1 3}{2}{4}"))
    assert s == Skeleton.of([2, 1, 1])
    assert str(s) == "2+1+1"
    assert Skeleton.parse("1+2+1") == s
    assert s.total == 4 and s.part_count == 3
    with pytest.raises(InvalidSkeleton):
        Skeleton((1, 2))  # not descending
    with pytest.raises(InvalidSkeleton):
        Skeleton.of([0, 2])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_random_partition_pairs_mu_consistency(n, data):
    parts = enumerate_partitions(n)
    a = data.draw(st.sampled_from(parts))
    b = data.draw(st.sampled_from(parts))
    if a.refines(b):
        mu = partition_moebius_closed_form(a, b)
        # sign alternates with the atom-count gap
        assert mu != 0
        assert (mu > 0) == ((a.num_atoms - b.num_atoms) % 2 == 0)


def test_order_matrices_match_the_python_leq_reference():
    # the lattices build their order matrices with bit operations; the
    # reference is the build_poset call with a Python leq that they replaced
    for n in range(7):
        masks = sorted(range(1 << n), key=lambda m: (bin(m).count("1"), m))
        ref = build_poset(masks, lambda a, b: a & ~b == 0)
        got = subset_lattice(n).poset
        assert got.elements == ref.elements and (got.matrix == ref.matrix).all()
    for n in range(1, 7):
        parts = enumerate_partitions(n)
        ref = build_poset(parts, lambda a, b: a.refines(b))
        got = partition_lattice(n).poset
        assert got.elements == ref.elements and (got.matrix == ref.matrix).all()
        assert all(skeleton(p) == Skeleton.of(len(a) for a in p.atoms()) for p in parts)


def test_lattice_builders_make_no_per_pair_python_call(monkeypatch):
    from moebius_dual import cannings, coarse_graining, lattices, poset
    from moebius_dual.cannings import multiallelic_kernels, wright_fisher_law

    def per_pair(*args, **kwargs):
        raise AssertionError("per-pair Python call")

    law = wright_fisher_law(3)
    monkeypatch.setattr(Partition, "refines", per_pair)
    for module in (poset, lattices, cannings):
        monkeypatch.setattr(module, "build_poset", per_pair, raising=False)
    subset_lattice(6)
    partition_lattice(5)
    coarse_graining.coarse_partition_matrices(6)
    multiallelic_kernels(law, 2)
