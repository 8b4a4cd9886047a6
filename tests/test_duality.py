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
    cone_membership,
    h_dual,
    h_transform,
    invariant_distribution,
    moebius_matrix,
    positivity_certificate,
    representing_measure,
    strong_condition_check,
    subset_lattice,
    support_implication_check,
)
from moebius_dual.errors import NonpositiveH, NotIrreducible, SingularH, VerificationFailure

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
    with pytest.raises(ValueError):
        support_implication_check(p, q, poset, direction="sideways")


def test_h_transform():
    q = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    # h = right 1-eigenvector (constant) keeps it stochastic
    assert h_transform(q, [1, 1]).is_stochastic
    # non-eigenvector h gives a non-stochastic kernel
    out = h_transform(q, [1, 2])
    assert not out.is_stochastic
    with pytest.raises(NonpositiveH):
        h_transform(q, [1, 0])


def test_invariant_distribution():
    p = Kernel.of(RationalMatrix([["1/2", "1/2"], ["1/4", "3/4"]]))
    assert invariant_distribution(p) == [F(1, 3), F(2, 3)]
    with pytest.raises(NotIrreducible):
        invariant_distribution(Kernel.of(RationalMatrix.identity(2)))
    with pytest.raises(ValueError):
        invariant_distribution(Kernel.of(RationalMatrix([[2]])))
