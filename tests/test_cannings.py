import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate, permutations, product
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from moebius_dual import (
    OffspringLaw,
    RationalMatrix,
    build_poset,
    coarse_backward_moment_formula,
    coarse_forward_direct,
    coarsen_multiallelic,
    exact_coarse_duality_value,
    hypergeometric_inverse,
    hypergeometric_matrix,
    monte_carlo_duality,
    moran_law,
    multiallelic_kernels,
    subset_lattice,
    wright_fisher_law,
)
from moebius_dual import cannings, coarse_graining, duality, lattices, poset, rational
from moebius_dual.cannings import _block_backward, _block_forward, _product_binomial
from moebius_dual.errors import (
    InvalidOffspringLaw,
    InvalidParameter,
    NonRationalEntry,
    NotExchangeable,
    SizeOverflow,
    VerificationFailure,
)

F = Fraction


def identity_law(n):
    """Degenerate law: every individual is its own single child."""
    nu = tuple(1 << i for i in range(n))
    return OffspringLaw.build(n, [(nu, F(1))])


def lopsided_law():
    """Individual 1 always fathers everyone: not exchangeable."""
    return OffspringLaw.build(2, [((0b11, 0), F(1))])


def test_law_construction_and_exchangeability():
    wf = wright_fisher_law(2)
    assert len(wf.support) == 4
    assert wf.exchangeable
    assert sum(p for _, p in wf.support) == 1
    # both children choosing parent 1 has mass 1/4
    assert dict(wf.support)[(0b11, 0)] == F(1, 4)
    mo = moran_law(2)
    assert dict(mo.support) == {(0b11, 0): F(1, 2), (0, 0b11): F(1, 2)}
    assert mo.exchangeable
    assert identity_law(3).exchangeable
    assert not lopsided_law().exchangeable
    with pytest.raises(NotExchangeable):
        lopsided_law().require_exchangeable()


def test_exchangeability_is_exact_past_float_precision():
    # moving one atom weight by 1/2^70 (and its opposite by the same amount,
    # so the total stays 1) breaks the symmetry between the two
    eps = F(1, 2**70)
    atoms = dict(wright_fisher_law(3).support)
    atoms[(0b111, 0, 0)] += eps
    atoms[(0, 0, 0b111)] -= eps
    assert not OffspringLaw.build(3, atoms.items()).exchangeable
    # moving a whole orbit by the same amount keeps it
    orbit = [nu for nu in atoms if sorted(map(bin, nu)) == sorted(map(bin, (0b111, 0, 0)))]
    atoms = dict(wright_fisher_law(3).support)
    for nu in orbit:
        atoms[nu] += eps
    atoms[(0b001, 0b010, 0b100)] -= len(orbit) * eps
    assert OffspringLaw.build(3, atoms.items()).exchangeable


def test_exchangeability_sums_the_weights_of_repeated_atoms():
    # B is A under the swap of individuals 1 and 2; listed as A, A, B the
    # law puts 3/4 on A and 1/4 on B
    a, b = (0b11, 0), (0, 0b11)
    law = OffspringLaw.build(2, [(a, F(1, 2)), (a, F(1, 4)), (b, F(1, 4))])
    assert not law.exchangeable
    for formula in (coarse_forward_direct, coarse_backward_moment_formula):
        with pytest.raises(NotExchangeable):
            formula(law)
    # the same atoms split as 1/4, 1/4 and 1/2 give A and B 1/2 each
    law = OffspringLaw.build(2, [(a, F(1, 4)), (a, F(1, 4)), (b, F(1, 2))])
    assert law.exchangeable
    assert coarse_forward_direct(law) == coarse_forward_direct(moran_law(2))
    ma = multiallelic_kernels(law, 1)
    assert (ma.p_ext.matrix, ma.q.matrix) == reference_p_q(law, ma.pair.poset)


def haploid(law):
    """The T = 1 kernels: states are 1-tuples (mask,) of carrier sets."""
    return multiallelic_kernels(law, 1)


def test_law_size_caps():
    with pytest.raises(SizeOverflow):
        wright_fisher_law(7)
    with pytest.raises(SizeOverflow):
        moran_law(9)
    # a lower bound is a bad parameter, not a size cap
    with pytest.raises(InvalidParameter):
        wright_fisher_law(0)
    with pytest.raises(InvalidParameter):
        moran_law(1)
    # the named bounds hold the values the messages have always shown
    bounds = (cannings.MAX_LAW_GROUND, cannings.MAX_WRIGHT_FISHER_GROUND, cannings.MAX_MORAN_GROUND)
    assert bounds == (64, 6, 8)
    with pytest.raises(SizeOverflow, match="^moran law: N must be in 2..8, got 9$"):
        moran_law(9)
    with pytest.raises(SizeOverflow, match="^offspring law: N must be in 1..64, got 65$"):
        OffspringLaw(65, [], 1, [])


@pytest.mark.parametrize("build", [hypergeometric_matrix, hypergeometric_inverse])
def test_hypergeometric_sizes_are_checked_at_both_ends(build):
    with pytest.raises(InvalidParameter, match=r"^hypergeometric matrix: N must be in 0..64, got -1$"):
        build(-1)
    with pytest.raises(SizeOverflow, match=r"^hypergeometric matrix: N must be in 0..64, got 65$"):
        build(65)
    assert build(0) == RationalMatrix([[1]])


@pytest.mark.parametrize("call, shown", [
    (lambda: wright_fisher_law(2.0), "wright-fisher law: N must be an integer, got 2.0"),
    (lambda: wright_fisher_law(True), "wright-fisher law: N must be an integer, got True"),
    (lambda: coarse_graining.coarse_set_matrices(1.5), "coarse set matrices: N must be an integer, got 1.5"),
    (lambda: multiallelic_kernels(wright_fisher_law(2), 1.5), "population model: T must be an integer, got 1.5"),
    (lambda: multiallelic_kernels(wright_fisher_law(2), "2"), "population model: T must be an integer, got '2'"),
])
def test_a_size_that_is_no_integer_is_a_bad_parameter(call, shown):
    with pytest.raises(InvalidParameter) as exc:
        call()
    assert str(exc.value) == shown


def test_sizes_may_be_numpy_integers():
    law = wright_fisher_law(2)
    assert multiallelic_kernels(law, np.int8(1)).p_ext.matrix == multiallelic_kernels(law, 1).p_ext.matrix
    assert hypergeometric_inverse(np.int64(3)) == hypergeometric_inverse(3)


def test_a_law_of_no_individuals_is_a_bad_parameter():
    # a law of 0 individuals has no coarse chain: it is refused when built,
    # with the typed lower-bound error of the named builders
    for build in (lambda: OffspringLaw.build(0, [((), 1)]), lambda: OffspringLaw(0, [()], 1, [1])):
        with pytest.raises(InvalidParameter, match="^offspring law: N must be in 1..64, got 0$"):
            build()


@pytest.mark.parametrize(
    "atoms, defect",
    [
        ([((0b11, 0b01), F(1, 2))], "overlap"),
        ([((0b01, 0), F(1))], "not the population"),
        ([((0b01,), F(1))], "children sets for N = 2"),
        ([((0b11, 0), F(0)), ((0, 0b11), F(1))], "not positive"),
        ([((0b11, 0), F(1, 2))], "total probability is 1/2"),
    ],
)
def test_law_build_rejects_bad_atoms(atoms, defect):
    with pytest.raises(InvalidOffspringLaw, match=defect):
        OffspringLaw.build(2, atoms)


def test_law_probabilities_pass_the_rational_input_gate():
    # floats and booleans are refused, naming the atom, as matrix entries are;
    # the float 0.1 is no tenth, so it is refused rather than summed
    swap = [(1, 2), (2, 1)]
    for probs, bad in (((0.5, 0.5), "atom 0: float entry 0.5 rejected"),
                       ((0.1, 0.9), "atom 0: float entry 0.1 rejected"),
                       ((F(1, 2), True), "atom 1: bool entry True rejected")):
        with pytest.raises(NonRationalEntry, match=bad):
            OffspringLaw.build(2, list(zip(swap, probs)))
    # exact strings and numpy integers pass, as in a matrix
    law = OffspringLaw.build(2, [(swap[0], "1/10"), (swap[1], F(9, 10))])
    assert law.support == ((swap[0], F(1, 10)), (swap[1], F(9, 10)))
    assert OffspringLaw.build(2, [((3, 0), np.int64(1))]).support == (((3, 0), 1),)


def test_direct_construction_takes_integer_weights_and_denominators_only():
    swap = [(1, 2), (2, 1)]
    for den, weights, bad in ((2, [1.0, 1.0], "atom 0: weight 1.0 is not an integer"),
                              (2, [1, True], "atom 1: weight True is not an integer"),
                              (2.0, [1, 1], "denominator 2.0 is not an integer"),
                              (True, [1, 0], "denominator True is not an integer"),
                              (2, np.array([1.0, 1.0]), "atom 0: weight 1.0 is not an integer"),
                              (2, np.array([True, True]), "atom 0: weight True is not an integer")):
        with pytest.raises(InvalidOffspringLaw, match=bad):
            OffspringLaw(2, swap, den, weights)
    # numpy integers pass, as the Wright-Fisher and Moran laws give them
    law = OffspringLaw(2, swap, np.int64(2), [np.int64(1), np.uint8(1)])
    assert type(law.den) is int and law.support == ((swap[0], F(1, 2)), (swap[1], F(1, 2)))
    assert OffspringLaw(2, swap, 2, np.ones(2, dtype=np.uint16)).support == law.support


def test_law_build_checks_survive_optimized_mode():
    code = (
        "from moebius_dual import OffspringLaw\n"
        "from moebius_dual.errors import InvalidOffspringLaw\n"
        "try:\n"
        "    OffspringLaw.build(2, [((0b11, 0b01), '1/2')])\n"
        "except InvalidOffspringLaw as exc:\n"
        "    print('rejected:', exc)\n"
        # a law constructed directly, past OffspringLaw.build, is checked the same way
        "try:\n"
        "    OffspringLaw(ground_size=2, children=[(0b01, 0)], den=1, weights=[1])\n"
        "except InvalidOffspringLaw as exc:\n"
        "    print('refused:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.startswith("rejected: atom 0: children sets overlap")
    assert out.stdout.splitlines()[1] == "refused: atom 0: children 1 are not the population"


def reference_build(n, atoms):
    """OffspringLaw.build as one Python loop per atom: the atoms, their common
    denominator, the integer weights and the Counter exchangeability test."""
    full = (1 << n) - 1
    support = []
    for k, (nu, p) in enumerate(atoms):
        nu = tuple(nu)
        p = F(p)
        if len(nu) != n:
            raise InvalidOffspringLaw(f"atom {k}: {len(nu)} children sets for N = {n}")
        union, overlap = 0, 0
        for m in nu:
            overlap |= union & m
            union |= m
        if overlap:
            raise InvalidOffspringLaw(f"atom {k}: children sets overlap in {overlap:b}")
        if union != full:
            raise InvalidOffspringLaw(f"atom {k}: children {union:b} are not the population")
        if p <= 0:
            raise InvalidOffspringLaw(f"atom {k}: probability {p} is not positive")
        support.append((nu, p))
    den = math.lcm(*(p.denominator for _, p in support))
    weights = [p.numerator * (den // p.denominator) for _, p in support]
    if sum(weights) != den:
        raise InvalidOffspringLaw(f"total probability is {F(sum(weights), den)}, not 1")
    law = SimpleNamespace(ground_size=n, support=tuple(support))
    return tuple(support), den, weights, reference_exchangeable(law)


def built(make):
    """What ``make`` returns, as (support, den, weights, exchangeable), or
    the type and message of what it raises."""
    try:
        law = make()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(law, tuple):
        return law
    assert law.weights.dtype == (np.int64 if law.den < 2**63 else object)
    return law.support, law.den, law.weights.tolist(), law.exchangeable


MALFORMATIONS = ["length", "overlap", "orphan", "outside", "negative", "wide", "nonpositive",
                 "total", "repeat"]


@st.composite
def atom_lists(draw):
    """(N, atoms): indexed partitions, random or from a reference law, with
    probabilities over small denominators or past 2**63, then up to two
    malformations."""
    if draw(st.booleans(), label="reference"):
        law = REFERENCE_LAWS[draw(st.sampled_from(["wf2", "wf3", "moran3", "mixed3", "huge3", "moran9"]))]
        n, atoms = law.ground_size, [[list(nu), p] for nu, p in law.support]
    else:
        n = draw(st.sampled_from([1, 2, 3, 4, 9, 16]), label="N")
        atoms = []
        for _ in range(draw(st.integers(1, 5), label="atoms")):
            nu = [0] * n
            for child, parent in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
                nu[parent] |= 1 << child
            atoms.append([nu, 1])
        total = 0
        for atom in atoms:
            atom[1] = draw(st.integers(1, 5))
            total += atom[1]
        for atom in atoms:
            atom[1] = F(atom[1], total)
        if len(atoms) > 1 and draw(st.booleans(), label="huge"):
            eps = F(1, draw(st.sampled_from([2**64 + 13, 3**41])))
            atoms[0][1] += eps
            atoms[1][1] -= eps
    for defect in draw(st.lists(st.sampled_from(MALFORMATIONS), max_size=2), label="defects"):
        atom = atoms[draw(st.integers(0, len(atoms) - 1))]
        nu = atom[0]
        r = draw(st.integers(0, max(len(nu) - 1, 0)))  # a mask of the atom, if it has one
        if defect == "length":
            nu.append(0) if not nu or draw(st.booleans()) else nu.pop()
        elif defect == "overlap" and nu:
            nu[r] |= 1 << draw(st.integers(0, n - 1))
        elif defect == "orphan":
            child = ~(1 << draw(st.integers(0, n - 1)))
            atom[0] = [m & child for m in nu]
        elif defect == "outside" and nu:
            nu[r] |= 1 << draw(st.integers(n, n + 3))
        elif defect == "negative" and nu:
            nu[r] = draw(st.sampled_from([-1, ~nu[r], -(1 << n)]))
        elif defect == "wide" and nu:
            nu[r] |= 1 << draw(st.sampled_from([64, 65, 70, 200]))
        elif defect == "nonpositive":
            atom[1] = draw(st.sampled_from([F(0), -atom[1]]))
        elif defect == "total":
            atom[1] *= draw(st.sampled_from([2, F(1, 2)]))
        elif defect == "repeat":
            atoms.append([list(nu), atom[1] / 3])
            atom[1] *= F(2, 3)
    return n, [(tuple(nu), p) for nu, p in atoms]


@settings(max_examples=300, deadline=None)
@given(case=atom_lists())
def test_build_matches_the_per_atom_reference(case):
    n, atoms = case
    want = built(lambda: reference_build(n, atoms))
    assert built(lambda: OffspringLaw.build(n, atoms)) == want
    # the same atoms as an int64 array, wherever they fit one
    if all(len(nu) == n and all(-2**63 <= m < 2**63 for m in nu) for nu, _ in atoms):
        den = math.lcm(*(F(p).denominator for _, p in atoms))
        weights = [F(p).numerator * (den // F(p).denominator) for _, p in atoms]
        children = np.array([nu for nu, _ in atoms], dtype=np.int64).reshape(len(atoms), n)
        assert built(lambda: OffspringLaw(n, children, den, weights)) == want


def test_direct_construction_checks_its_own_fields():
    # weights over a common multiple keep the least denominator, so the law
    # draws as the one built from its probabilities
    law = OffspringLaw(2, [(3, 0), (0, 3)], 6, [3, 3])
    assert (law.den, law.weights.tolist()) == (2, [1, 1])
    with pytest.raises(InvalidOffspringLaw, match="denominator 0 is not positive"):
        OffspringLaw(2, [(3, 0)], 0, [0])
    with pytest.raises(InvalidOffspringLaw, match="1 weights for 2 atoms"):
        OffspringLaw(2, [(3, 0), (0, 3)], 1, [1])
    with pytest.raises(SizeOverflow):
        OffspringLaw.build(65, [])


def wright_fisher_atoms(n):
    """The Wright-Fisher law's atoms as the loop over parent choices."""
    atoms = []
    for choice in product(range(n), repeat=n):
        nu = [0] * n
        for child, parent in enumerate(choice):
            nu[parent] |= 1 << child
        atoms.append((tuple(nu), F(1, n ** n)))
    return atoms


def test_model_laws_list_their_atoms_in_loop_order():
    # the Monte Carlo locates a draw by cumulative weight, so the atom order
    # is part of every simulate result
    for n in range(1, 7):
        assert wright_fisher_law(n).support == tuple(wright_fisher_atoms(n))
    for n in range(2, 9):
        assert moran_law(n).support == tuple(moran_atoms(n))


def test_moran_atom_shape():
    mo = moran_law(3)
    assert len(mo.support) == 6
    for nu, p in mo.support:
        sizes = sorted(bin(m).count("1") for m in nu)
        assert sizes == [0, 1, 2]
        assert p == F(1, 6)


def test_haploid_states_are_the_subset_lattice():
    for n in (1, 2, 4):
        hap = haploid(wright_fisher_law(n))
        lat = subset_lattice(n)
        assert [s for (s,) in hap.pair.poset.elements] == list(lat.poset.elements)
        assert hap.pair.zeta == lat.pair.zeta
        assert hap.covering == (len(lat.poset) - 1,)
        assert all(d == 0 for d in hap.defect)
    with pytest.raises(InvalidParameter):
        multiallelic_kernels(wright_fisher_law(2), 0)


def test_forward_kernel_hand_values():
    hap = haploid(wright_fisher_law(2))
    idx = hap.pair.poset.index
    row = hap.p_ext.matrix.row(idx[(0b01,)])
    assert row == [F(1, 4)] * 4
    # empty set and full population are absorbing
    assert hap.p_ext.matrix[idx[(0,)], idx[(0,)]] == 1
    assert hap.p_ext.matrix[idx[(0b11,)], idx[(0b11,)]] == 1


def test_backward_kernel_hand_values():
    hap = haploid(wright_fisher_law(2))
    idx = hap.pair.poset.index
    assert hap.q.matrix.row(idx[(0b01,)]) == [F(0), F(1, 2), F(1, 2), F(0)]
    assert hap.q.matrix.row(idx[(0b11,)]) == [F(0), F(1, 4), F(1, 4), F(1, 2)]
    assert hap.q.matrix[idx[(0,)], idx[(0,)]] == 1


def test_builder_checks_its_counted_q_against_h_dual(monkeypatch):
    # the builder forms one dual, h_dual's (M' P Z')', and matches its counted Q
    # to it
    calls = []
    h_dual = cannings.h_dual
    monkeypatch.setattr(cannings, "h_dual", lambda *args: calls.append(1) or h_dual(*args))
    for law in (wright_fisher_law(2), wright_fisher_law(3), moran_law(3), identity_law(3)):
        haploid(law)
    multiallelic_kernels(MIXED_LAW, 2)
    assert len(calls) == 5
    ident = haploid(identity_law(2))
    assert ident.p_ext.matrix == RationalMatrix.identity(4)
    assert ident.q.matrix == RationalMatrix.identity(4)


@pytest.mark.parametrize("t", [1, 2])
def test_builder_rejects_a_counted_q_off_in_one_entry(monkeypatch, t):
    # one entry of D Q lowered by 1 keeps Q substochastic, so only the duality
    # check can see it; its witness is the pair of states (J, K) of that entry
    counts = cannings._kernel_counts
    off = []

    def lowered(law, masks, codes):
        den, p_num, q_num = counts(law, masks, codes)
        q_num = q_num.copy()
        j, k = np.argwhere(q_num > 0)[3].tolist()
        q_num[j, k] -= 1
        off.append((tuple(masks[j].tolist()), tuple(masks[k].tolist())))
        return den, p_num, q_num

    monkeypatch.setattr(cannings, "_kernel_counts", lowered)
    with pytest.raises(VerificationFailure) as exc:
        multiallelic_kernels(MIXED_LAW, t)
    assert exc.value.identity == "Z' Q' = P Z'"
    assert exc.value.witness == off[0]


def test_builder_checks_h_h_inverse_past_256_states(monkeypatch):
    # a Moebius matrix off in one entry of a 343-state pair is caught as
    # Z' M' = I in h_dual: the replaced M keeps no Kronecker factors, so
    # the check multiplies Z', by its factors, with the wrong dense M'
    kron_pair = lattices._kron_pair

    def broken(*args):
        pair = kron_pair(*args)
        num = pair.moebius._num.copy()
        num[0, -1] += 1
        return dataclasses.replace(pair, moebius=RationalMatrix(num))

    monkeypatch.setattr(lattices, "_kron_pair", broken)
    with pytest.raises(VerificationFailure) as exc:
        multiallelic_kernels(moran_law(3), 6)
    assert exc.value.identity == "H H^-1 = I"


def test_large_builders_make_no_dense_state_products(monkeypatch):
    # 729 partial states: past the crossover, the builder's H H^-1 = I check
    # and its dual are mode products by the 3x3 claw, so no dense product has
    # an inner dimension past the crossover; a fallback to the dense path
    # (2.3 s) fails at its first product
    crossover = poset._MODE_STATES
    product = rational._product

    def recorded(a, b):
        if a.shape[1] > crossover:
            raise AssertionError(f"dense product {a.shape} @ {b.shape}")
        return product(a, b)

    monkeypatch.setattr(rational, "_product", recorded)
    ma = multiallelic_kernels(moran_law(6), 2)
    assert len(ma.pair.poset) == 729 > crossover
    assert isinstance(ma.pair.zeta, poset._KronMatrix) and isinstance(ma.pair.moebius, poset._KronMatrix)
    # positive control: with the mode products switched off, the same build
    # reaches the recorder with a dense product past the crossover
    monkeypatch.setattr(poset, "_MODE_STATES", 729)
    with pytest.raises(AssertionError, match=r"dense product \(729, 729\)"):
        multiallelic_kernels(moran_law(6), 2)


@pytest.mark.parametrize("t", [1, 2])
def test_coarsen_forms_no_second_dual(monkeypatch, t):
    # the coarsener coarse-grains the builder's verified Q and never calls h_dual
    ma = multiallelic_kernels(wright_fisher_law(2), t)

    def no_dual(*args):
        raise AssertionError("h_dual called by the coarsener")

    monkeypatch.setattr(coarse_graining, "h_dual", no_dual)
    monkeypatch.setattr(duality, "h_dual", no_dual)
    monkeypatch.setattr(cannings, "h_dual", no_dual)
    res = coarsen_multiallelic(ma)
    assert res.q == ma.q.matrix


def test_pipeline_on_a_product_pair_past_the_crossover(monkeypatch):
    # the haploid Moran(7) model has 128 states: the pipeline's h_dual and
    # compatibility checks multiply by the pair's Kronecker factors, and give
    # what the dense copy of the pair and the builder's coarsener give
    ma = haploid(moran_law(7))
    assert len(ma.pair.poset) == 128 > poset._MODE_STATES
    want = coarsen_multiallelic(ma)
    variant = duality.DualityVariant.ZETA_TRANSPOSE
    dense = dataclasses.replace(ma.pair, zeta=RationalMatrix(ma.pair.zeta),
                                moebius=RationalMatrix(ma.pair.moebius))
    slow = coarse_graining.coarse_duality_pipeline(ma.p_ext, dense, variant, want.rel)
    calls, mode_product = [], poset._mode_product
    monkeypatch.setattr(poset, "_mode_product", lambda *args: calls.append(1) or mode_product(*args))
    fast = coarse_graining.coarse_duality_pipeline(ma.p_ext, ma.pair, variant, want.rel)
    assert calls
    assert fast == slow == want


def test_coarsen_haploid_wf2():
    mc = coarsen_multiallelic(haploid(wright_fisher_law(2)))
    assert mc.p_coarse.matrix.row(1) == [F(1, 4), F(1, 2), F(1, 4)]
    assert mc.q_coarse_hh.matrix == RationalMatrix(
        [[1, 0, 0], [0, 1, 0], [0, "1/2", "1/2"]]
    )
    assert mc.h_hat == (F(1), F(2), F(1))
    assert mc.rel.class_labels == ((0,), (1,), (2,))


def test_hypergeometric_closed_forms():
    h3 = hypergeometric_matrix(3)
    assert h3[2, 1] == F(2, 3)
    hi3 = hypergeometric_inverse(3)
    assert hi3[2, 1] == -6
    for n in range(1, 7):
        assert hypergeometric_matrix(n).inverse() == hypergeometric_inverse(n)


def test_coarsen_rejects_nonexchangeable():
    law = lopsided_law()
    with pytest.raises(NotExchangeable):
        coarsen_multiallelic(haploid(law))


def test_moment_formula_matches_pipeline():
    for law in (wright_fisher_law(3), moran_law(4)):
        mc = coarsen_multiallelic(haploid(law))
        assert mc.q_coarse_hh.matrix == coarse_backward_moment_formula(law)


def test_multiallelic_wf2_t2():
    law = wright_fisher_law(2)
    ma = multiallelic_kernels(law, 2)
    assert len(ma.pair.poset) == 9
    assert ma.p_ext.is_stochastic and ma.p.is_stochastic
    assert ma.q.is_substochastic and not ma.q.is_stochastic
    # covering states of T=2 are in bijection with the T=1 states (second
    # block is the complement), and the restricted forward kernel matches
    # the haploid one
    hap = haploid(law)
    full = 0b11
    cov_states = [ma.pair.poset.elements[i] for i in ma.covering]
    for a, ja in enumerate(cov_states):
        for b, jb in enumerate(cov_states):
            i = hap.pair.poset.index[(ja[0],)]
            j = hap.pair.poset.index[(jb[0],)]
            assert ma.p.matrix[a, b] == hap.p_ext.matrix[i, j]
            assert ja[1] == full & ~ja[0]


def test_multiallelic_defect_values():
    # three singleton types under WF N=3: ancestors collide unless the three
    # parents are distinct, which happens with probability 3!/27 = 2/9
    ma = multiallelic_kernels(wright_fisher_law(3), 3)
    st = ma.pair.poset.index[(1, 2, 4)]
    assert ma.defect[st] == F(7, 9)
    assert sum(ma.q.matrix.row(st), F(0)) == F(2, 9)
    # covering rows of the identity law lose nothing
    ident = multiallelic_kernels(identity_law(2), 2)
    for i in ident.covering:
        assert ident.defect[i] == 0
    assert ident.p_ext.matrix == RationalMatrix.identity(9)


def test_multiallelic_cap(monkeypatch):
    law = wright_fisher_law(3)
    monkeypatch.setattr(cannings, "_claw_power", lambda n, t, label: pytest.fail("built past the cap"))
    with pytest.raises(SizeOverflow, match="^6561 states exceed the cap 4096$"):
        multiallelic_kernels(wright_fisher_law(4), 8)
    # a count too long for str() is written as a power of two: (10^1500 + 1)^3
    with pytest.raises(SizeOverflow, match=r"^>= 2\^14948 states exceed the cap 4096$"):
        multiallelic_kernels(law, 10**1500)
    monkeypatch.undo()
    # the library itself honours the environment's cap: (T+1)^3 = 8 builds, 27 does not
    monkeypatch.setenv("MOEBIUS_DUAL_MAX_STATES", "8")
    assert len(multiallelic_kernels(law, 1).pair.poset) == 8
    with pytest.raises(SizeOverflow, match="^27 states exceed the cap 8$"):
        multiallelic_kernels(law, 2)


def test_coarsen_multiallelic_wf2_t2():
    mc = coarsen_multiallelic(multiallelic_kernels(wright_fisher_law(2), 2))
    cls = list(mc.rel.class_labels)
    i11, i20 = cls.index((1, 1)), cls.index((2, 0))
    assert mc.h_hat[i11] == 2
    assert mc.p_coarse.matrix[i11, i20] == F(1, 4)
    assert mc.p_coarse.is_stochastic
    assert mc.q_coarse_hh.is_substochastic
    # H(dvec, dvec) = 1 / multinomial(dvec)
    for k, d in enumerate(cls):
        rest = 2 - sum(d)
        mult = math.factorial(2) // (
            math.factorial(rest) * math.prod(math.factorial(x) for x in d)
        )
        assert mc.h_coarse_hat[k, k] == F(1, mult)


def test_coarsen_multiallelic_moran3_t2():
    mc = coarsen_multiallelic(multiallelic_kernels(moran_law(3), 2))
    assert mc.p_coarse.is_stochastic
    assert mc.q_coarse_hh.is_substochastic


def test_monte_carlo_zero_steps_is_exact():
    law = wright_fisher_law(4)
    res = monte_carlo_duality(law, 0b0111, 0b0011, steps=0, reps=50, seed=1)
    h = hypergeometric_matrix(4)
    assert res.forward_mean == float(h[3, 2])
    assert res.backward_mean == float(h[3, 2])
    assert res.forward_stderr == 0.0 and res.backward_stderr == 0.0


def test_monte_carlo_rejects_bad_arguments():
    law = wright_fisher_law(3)
    for a, b, steps, reps in ((0b1, 0b1, 1, 0), (0b1, 0b1, -1, 5), (0b1111, 0b1, 1, 5)):
        with pytest.raises(InvalidParameter):
            monte_carlo_duality(law, a, b, steps=steps, reps=reps, seed=0)


def test_monte_carlo_deterministic_and_consistent():
    law = wright_fisher_law(3)
    r1 = monte_carlo_duality(law, 0b011, 0b001, steps=2, reps=3000, seed=17)
    r2 = monte_carlo_duality(law, 0b011, 0b001, steps=2, reps=3000, seed=17)
    assert r1 == r2
    exact = float(exact_coarse_duality_value(law, 2, 1, 2))
    assert abs(r1.forward_mean - exact) <= 4 * max(r1.forward_stderr, 1e-12)
    assert abs(r1.backward_mean - exact) <= 4 * max(r1.backward_stderr, 1e-12)


@pytest.mark.parametrize("i, j, steps, name", [
    (-1, 1, 2, "i"), (4, 1, 2, "i"), (1, -1, 2, "j"), (1, 4, 2, "j"), (1, 1, -1, "steps"),
])
def test_exact_duality_value_rejects_bad_arguments(i, j, steps, name):
    # i = -1 once wrapped round to i = N, i > N was a bare IndexError and
    # steps < 0 a bare ValueError from power
    with pytest.raises(InvalidParameter, match=rf"\b{name} must be"):
        exact_coarse_duality_value(wright_fisher_law(3), i, j, steps)


def test_exact_duality_value_consistency():
    # matrix-power identity: P~^n H = H (Q~'_hh)^n, checked through the pipeline
    law = moran_law(3)
    mc = coarsen_multiallelic(haploid(law))
    h = mc.h_coarse_hat
    p = mc.p_coarse.matrix
    qt = mc.q_coarse_hh.matrix.T
    for n in range(0, 6):
        assert p.power(n) @ h == h @ qt.power(n)
    assert exact_coarse_duality_value(law, 2, 1, 3) == (p.power(3) @ h)[2, 1]


def test_coarse_forward_direct_matches_binomial_for_wf():
    # WF coarse forward row: binomial(N, j) (i/N)^j (1 - i/N)^{N-j}
    for n in (2, 3, 4):
        pc = coarse_forward_direct(wright_fisher_law(n))
        for i in range(n + 1):
            for j in range(n + 1):
                expected = (
                    math.comb(n, j)
                    * F(i, n) ** j
                    * (1 - F(i, n)) ** (n - j)
                )
                assert pc[i, j] == expected


# ---------------------------------------------------------------------------
# Reference builders: one Fraction added per atom, as the kernel builders
# summed before they moved to integer weights over the law's denominator
# ---------------------------------------------------------------------------


def _forward_unions(nu, n):
    """union over i in J of nu_i, for every J, by peeling the lowest bit."""
    out = [0] * (1 << n)
    for j in range(1, 1 << n):
        low = j & -j
        out[j] = out[j ^ low] | nu[low.bit_length() - 1]
    return out


def _ancestors(nu, j_mask):
    """The unique minimal set of parents whose children cover j_mask."""
    k = 0
    cover = 0
    for i, m in enumerate(nu):
        if m & j_mask:
            k |= 1 << i
            cover |= m
    if cover & j_mask != j_mask:
        raise VerificationFailure("the children of the ancestors of J cover J", (nu, j_mask))
    return k


def reference_p_q(law, poset):
    """P and Q on the states of ``poset`` by one Fraction per atom and state."""
    n, idx, size = law.ground_size, poset.index, len(poset)
    p_rows = [[F(0)] * size for _ in range(size)]
    q_rows = [[F(0)] * size for _ in range(size)]
    for nu, prob in law.support:
        unions = _forward_unions(nu, n)
        for si, jvec in enumerate(poset.elements):
            p_rows[si][idx[tuple(unions[m] for m in jvec)]] += prob
            avec, seen = [], 0
            for m in jvec:
                a = _ancestors(nu, m)
                if a & seen:
                    break
                seen |= a
                avec.append(a)
            else:
                q_rows[si][idx[tuple(avec)]] += prob
    return RationalMatrix(p_rows), RationalMatrix(q_rows)


def reference_block_forward(law, classes):
    pos = {c: i for i, c in enumerate(classes)}
    ends = [tuple(accumulate(dvec)) for dvec in classes]
    rows = [[F(0)] * len(classes) for _ in classes]
    for nu, prob in law.support:
        cum = list(accumulate((bin(m).count("1") for m in nu), initial=0))
        for row, e in zip(rows, ends):
            row[pos[tuple(cum[hi] - cum[lo] for lo, hi in zip((0,) + e, e))]] += prob
    return RationalMatrix(rows)


def reference_moment_formula(law, classes):
    """Q(dvec, evec) = [#states(evec)/#states(dvec)] times the sum, over every
    per-type composition (l_{t,1}..l_{t,e_t}) of d_t into parts >= 1, of
    E[prod_r C(|nu_r|, l_r)], the first e_1 parents carrying type 1, the next
    e_2 type 2, and so on: one Fraction per atom and composition."""
    n = law.ground_size

    def compositions(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    @functools.cache
    def moment(ls):
        s = F(0)
        for nu, p in law.support:
            prod = 1
            for r, l in enumerate(ls):
                prod *= math.comb(bin(nu[r]).count("1"), l)
            s += p * prod
        return s

    def states(c):
        return math.factorial(n) // math.factorial(n - sum(c)) // math.prod(map(math.factorial, c))

    return RationalMatrix([[F(states(e), states(d)) * sum(
        (moment(sum(ls, ())) for ls in product(*map(compositions, d, e))), F(0))
        for e in classes] for d in classes])


def mixture(n, parts):
    """The law sum_k w_k * law_k on {1..n}, merging atoms shared by the parts."""
    atoms = defaultdict(F)
    for w, law in parts:
        for nu, p in law.support:
            atoms[nu] += w * p
    return OffspringLaw.build(n, atoms.items())


def common_denominator(law):
    return math.lcm(*(p.denominator for _, p in law.support))


# atoms over 81, 162 and 324, and a law whose common denominator, 27 (2**61 - 1),
# is past 2**63, so every kernel leaves int64
MIXED_LAW = mixture(3, [(F(1, 3), wright_fisher_law(3)), (F(1, 2), moran_law(3)),
                        (F(1, 6), identity_law(3))])
HUGE_LAW = mixture(3, [(F(1, 2**61 - 1), wright_fisher_law(3)),
                       (1 - F(1, 2**61 - 1), moran_law(3))])

# a Monte Carlo draw below its common denominator, of 7,293 bits, takes 228
# words, more than the first twist of the generator yields
GIANT_LAW = mixture(2, [(F(1, 3**4600), wright_fisher_law(2)), (1 - F(1, 3**4600), moran_law(2))])


def moran_atoms(n):
    """The Moran law's atoms for any n, past the cap of moran_law."""
    atoms = []
    for b in range(n):
        for d in range(n):
            if b != d:
                nu = [1 << i for i in range(n)]
                nu[b], nu[d] = (1 << b) | (1 << d), 0
                atoms.append((tuple(nu), F(1, n * (n - 1))))
    return atoms


# N = 9: masks take 9 bits, past one byte
MORAN9 = OffspringLaw.build(9, moran_atoms(9))
REFERENCE_LAWS = {
    **{f"wf{n}": wright_fisher_law(n) for n in range(1, 5)},
    **{f"moran{n}": moran_law(n) for n in range(2, 5)},
    "mixed3": MIXED_LAW,
    "huge3": HUGE_LAW,
    "moran9": MORAN9,
}
# every law at T = 1 and 2 but N = 9 (3^9 states pass the cap) at T = 1 only,
# and the N <= 3 laws at T = 3
KERNEL_CASES = (
    [(name, t) for name in sorted(REFERENCE_LAWS) if name != "moran9" for t in (1, 2)]
    + [(name, 3) for name, law in sorted(REFERENCE_LAWS.items()) if law.ground_size <= 3]
    + [("moran9", 1)]
)


def reference_exchangeable(law):
    """The exchangeability test as one Counter lookup per atom and adjacent
    transposition, on Fraction weights summed over repeated atoms."""
    weights = Counter()
    for nu, p in law.support:
        weights[nu] += p
    for k in range(law.ground_size - 1):
        lo, hi = 1 << k, 2 << k
        for nu, w in weights.items():
            relabeled = [m ^ (lo | hi) if bool(m & lo) != bool(m & hi) else m for m in nu]
            relabeled[k], relabeled[k + 1] = relabeled[k + 1], relabeled[k]
            if weights.get(tuple(relabeled), 0) != w:
                return False
    return True


EXCHANGEABILITY_BASES = ["wf2", "wf3", "moran3", "moran4", "mixed3", "huge3"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exchangeability_matches_the_counter_reference(data):
    # perturbed laws (weight moved between two atoms, mostly breaking the
    # symmetry) with atoms split into repeated listings, in any order
    atoms = list(REFERENCE_LAWS[data.draw(st.sampled_from(EXCHANGEABILITY_BASES), label="law")].support)
    n = len(atoms[0][0])
    if data.draw(st.booleans(), label="perturb"):
        i = data.draw(st.integers(0, len(atoms) - 1), label="from")
        j = data.draw(st.integers(0, len(atoms) - 1), label="to")
        eps = atoms[i][1] * F(1, data.draw(st.sampled_from([2, 3, 2**70]), label="share"))
        weights = [p for _, p in atoms]
        weights[i] -= eps
        weights[j] += eps
        atoms = [(nu, w) for (nu, _), w in zip(atoms, weights)]
    for _ in range(data.draw(st.integers(0, 3), label="splits")):
        i = data.draw(st.integers(0, len(atoms) - 1), label="split")
        nu, p = atoms[i]
        atoms[i] = (nu, p / 3)
        atoms.append((nu, 2 * p / 3))
    atoms = data.draw(st.permutations(atoms), label="order")
    law = OffspringLaw.build(n, atoms)
    assert law.exchangeable == reference_exchangeable(law)


def test_exchangeability_matches_the_counter_reference_on_large_laws():
    law = OffspringLaw.build(16, moran_atoms(16))
    assert law.exchangeable and reference_exchangeable(law)
    atoms = moran_atoms(16)
    atoms[0], atoms[1] = (atoms[0][0], atoms[0][1] / 2), (atoms[1][0], atoms[1][1] * F(3, 2))
    law = OffspringLaw.build(16, atoms)
    assert not law.exchangeable and not reference_exchangeable(law)
    assert HUGE_LAW.exchangeable and reference_exchangeable(HUGE_LAW)


def test_reference_laws_have_the_intended_denominators():
    assert {p.denominator for _, p in MIXED_LAW.support} == {81, 162, 324}
    assert MIXED_LAW.exchangeable and HUGE_LAW.exchangeable
    assert common_denominator(HUGE_LAW) > 2**63
    # a Monte Carlo draw below it takes getrandbits(k) with k > 64
    assert common_denominator(HUGE_LAW).bit_length() > 64
    assert common_denominator(GIANT_LAW).bit_length() > 32 * 227


@pytest.mark.parametrize("name, t", KERNEL_CASES)
def test_kernel_builders_match_fraction_reference(name, t):
    law = REFERENCE_LAWS[name]
    ma = multiallelic_kernels(law, t)
    p, q = reference_p_q(law, ma.pair.poset)
    assert ma.p_ext.matrix == p
    assert ma.q.matrix == q
    assert ma.defect == tuple(1 - s for s in q.row_sums())
    classes = sorted({tuple(bin(m).count("1") for m in s) for s in ma.pair.poset.elements})
    assert _block_forward(law, classes) == reference_block_forward(law, classes)
    if t == 1:
        assert coarse_forward_direct(law) == reference_block_forward(law, classes)
        assert coarse_backward_moment_formula(law) == reference_moment_formula(law, classes)
    if name == "huge3":
        assert ma.p_ext.matrix._num.dtype == object and ma.q.matrix._num.dtype == object


def test_kernel_builders_match_reference_on_a_nonexchangeable_law():
    law = lopsided_law()
    for t in (1, 2):
        ma = multiallelic_kernels(law, t)
        assert (ma.p_ext.matrix, ma.q.matrix) == reference_p_q(law, ma.pair.poset)


def partial_states(n, t):
    """All T-tuples of disjoint subsets of {1..N}, one type in 0..T per
    individual, sorted by the number present, then the masks."""
    states = []
    for assign in product(range(t + 1), repeat=n):
        masks = [0] * t
        for i, a in enumerate(assign):
            if a:
                masks[a - 1] |= 1 << i
        states.append(tuple(masks))
    return sorted(states, key=lambda s: (sum(m.bit_count() for m in s), s))


@pytest.mark.parametrize("t", [1, 2])
def test_partial_state_order_matches_the_python_leq_reference(t):
    # the builder orders the partial states by componentwise inclusion of
    # their masks; the reference is that inclusion through a Python leq
    for n in range(1, 5):
        got = multiallelic_kernels(wright_fisher_law(n), t).pair.poset
        ref = build_poset(partial_states(n, t),
                          lambda a, b: all(x & ~y == 0 for x, y in zip(a, b)))
        assert got.elements == ref.elements and (got.matrix == ref.matrix).all()


def test_partial_states_past_64_flattened_bits():
    # N = 1 and T = 70: 70 types, whose masks side by side would take 70 bits
    law = OffspringLaw.build(1, [((1,), 1)])
    ma = multiallelic_kernels(law, 70)
    assert len(ma.pair.poset) == 71
    bottom = ma.pair.poset.elements[0]
    assert all(ma.pair.poset.leq(bottom, s) for s in ma.pair.poset.elements)
    assert not any(ma.pair.poset.leq(a, b) for a in ma.pair.poset.elements[1:]
                   for b in ma.pair.poset.elements[1:] if a != b)


def test_atom_tables_use_the_narrowest_mask_dtype():
    # the ancestor sets are masks in the dtype of the children sets, the
    # children's images type codes in the narrowest dtype that holds the
    # (T+1)^N codes
    for name, t, mask_dtype, code_dtype in (
            ("wf4", 1, np.uint8, np.uint8), ("wf4", 2, np.uint8, np.uint8),
            ("wf4", 4, np.uint8, np.uint16), ("moran9", 1, np.uint16, np.uint16),
            ("moran9", 2, np.uint16, np.uint16)):
        law = REFERENCE_LAWS[name]
        n, nu = law.ground_size, law.children
        place = cannings._place(n, t)
        assert place.dtype == code_dtype
        assert place.tolist() == [sum((t + 1) ** c for c in range(n) if j >> c & 1) for j in range(1 << n)]
        fwd, anc = cannings._atom_tables(nu, place)
        assert nu.dtype == anc.dtype == mask_dtype and fwd.dtype == code_dtype
        assert fwd.shape == anc.shape == (1 << n, len(law.support))
        for a, (atom, _) in enumerate(law.support):
            assert fwd[:, a].tolist() == place[_forward_unions(atom, n)].tolist()
            assert anc[:, a].tolist() == [_ancestors(atom, j) for j in range(1 << n)]


def test_direct_construction_refuses_an_orphan():
    # child 2 has no parent, so the children of no set of parents cover it;
    # the law is refused before any table or estimator could see it
    with pytest.raises(InvalidOffspringLaw, match="atom 0: children 1 are not the population"):
        OffspringLaw(ground_size=2, children=[(0b01, 0)], den=1, weights=[1])
    # neither atoms nor exchangeability can be passed in unchecked
    for fields in ({"support": (((0b01, 0), F(1)),)}, {"exchangeable": True}):
        with pytest.raises(TypeError):
            OffspringLaw(ground_size=2, children=[(0b11, 0)], den=1, weights=[1], **fields)
    law = wright_fisher_law(2)
    with pytest.raises(InvalidOffspringLaw, match="atom 1: children 1 are not the population"):
        dataclasses.replace(law, children=np.array([[3, 0], [1, 0], [2, 1], [0, 3]]))


@pytest.mark.parametrize("name, t", [("wf3", 1), ("mixed3", 2), ("huge3", 1), ("wf4", 2)])
def test_kernel_counts_do_not_depend_on_the_atom_blocks(monkeypatch, name, t):
    # one state's worth of pairs per block: every weight group spans many blocks
    law = REFERENCE_LAWS[name]
    monkeypatch.setattr(cannings, "_BLOCK_PAIRS", 1)
    ma = multiallelic_kernels(law, t)
    assert (ma.p_ext.matrix, ma.q.matrix) == reference_p_q(law, ma.pair.poset)


# ---------------------------------------------------------------------------
# The array evaluators against the references on random exchangeable laws
# ---------------------------------------------------------------------------


def symmetrized_law(n, atoms, group=None):
    """The law giving every relabelling pi(nu) = (pi(nu_{pi^-1(i)}))_i, pi in
    ``group`` (all of S_N by default), of each (nu, weight) in ``atoms`` that
    weight, normalized: exchangeable by construction over S_N, and with one
    weight group per orbit size and weight."""
    total = defaultdict(int)
    for nu, w in atoms:
        for pi in group or permutations(range(n)):
            image = [0] * n
            for i, m in enumerate(nu):
                image[pi[i]] = sum(1 << pi[c] for c in range(n) if m >> c & 1)
            total[tuple(image)] += w
    den = sum(total.values())
    return OffspringLaw.build(n, [(nu, F(w, den)) for nu, w in total.items()])


@st.composite
def exchangeable_laws(draw, max_n=4):
    """A few random atoms, each a parent for every child, with random weights,
    summed over all relabellings."""
    n = draw(st.integers(1, max_n), label="N")
    atoms = []
    for _ in range(draw(st.integers(1, 3), label="atoms")):
        parent = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="parents")
        nu = [sum(1 << c for c in range(n) if parent[c] == i) for i in range(n)]
        atoms.append((nu, draw(st.integers(1, 5), label="weight")))
    return symmetrized_law(n, atoms)


def type_count_classes(n, t):
    return [c for c in product(range(n + 1), repeat=t) if sum(c) <= n]


def check_closed_forms(law, draw_order):
    """_block_forward and _block_backward at T = 1, 2, 3, on the classes in an
    order from ``draw_order``, against the references, with the inverse of the
    product-binomial H (H H^-1 = H^-1 H = I, and H^-1 = H's Bareiss inverse),
    and the haploid closed forms, their T = 1 case."""
    n = law.ground_size
    for t in (1, 2, 3):
        classes = draw_order(type_count_classes(n, t))
        assert _block_forward(law, classes) == reference_block_forward(law, classes)
        assert _block_backward(law, classes) == reference_moment_formula(law, classes)
        h, h_inv = _product_binomial(n, classes)
        assert h @ h_inv == h_inv @ h == RationalMatrix.identity(len(classes))
        if len(classes) <= 120:  # Bareiss on the 220 classes of N = 9 at T = 3 takes seconds
            assert h_inv == h.inverse()
    haploid = [(i,) for i in range(n + 1)]
    assert coarse_forward_direct(law) == reference_block_forward(law, haploid)
    assert coarse_backward_moment_formula(law) == reference_moment_formula(law, haploid)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exchangeability_needs_both_generators(n):
    # a law symmetrized over the transposition (1 2) only, or over the cycle
    # 1 -> 2 -> .. -> N -> 1 only, keeps that generator but is not exchangeable
    atom = [(0b11, (1 << n) - 4) + (0,) * (n - 2), 1]
    swap = [tuple(range(n)), (1, 0) + tuple(range(2, n))]
    cycle = [tuple((c + k) % n for c in range(n)) for k in range(n)]
    for group in (swap, cycle):
        law = symmetrized_law(n, [atom], group)
        assert not law.exchangeable and not reference_exchangeable(law)
    assert symmetrized_law(n, [atom]).exchangeable


@settings(max_examples=40, deadline=None)
@given(law=exchangeable_laws(), data=st.data())
def test_closed_forms_match_the_references_on_random_exchangeable_laws(law, data):
    assert law.exchangeable and law.exchangeable == reference_exchangeable(law)
    check_closed_forms(law, lambda classes: data.draw(st.permutations(classes), label="classes"))


@pytest.mark.parametrize("name", ["huge3", "mixed3", "moran9"])
def test_closed_forms_match_the_references_on_the_reference_laws(name):
    # huge3 has a 66-bit D, so Python-int weights; the classes run backwards
    check_closed_forms(REFERENCE_LAWS[name], lambda classes: classes[::-1])


def one_takes_all(n, eps=F(0)):
    """With probability 1 - eps one uniform parent has every child, else each
    individual is its own one child."""
    full, identity = (1 << n) - 1, tuple(1 << i for i in range(n))
    atoms = [(tuple(full if i == p else 0 for i in range(n)), (1 - eps) / n) for p in range(n)]
    return OffspringLaw.build(n, atoms + ([(identity, eps)] if eps else []))


def one_takes_all_forms(n, eps):
    """That law's coarse P and Q in closed form: the first i parents have all
    N children with probability (1 - eps) i/N and none with (1 - eps)(N-i)/N,
    or i with probability eps; Q(i, 1) = 1 - eps and Q(i, i) = eps for i >= 2,
    Q(1, 1) = Q(0, 0) = 1."""
    p = [[F(0)] * (n + 1) for _ in range(n + 1)]
    q = [[F(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        p[i][n] += (1 - eps) * F(i, n)
        p[i][0] += (1 - eps) * F(n - i, n)
        p[i][i] += eps
        q[i][min(i, 1)] += 1 if i < 2 else 1 - eps
        q[i][i] += eps if i >= 2 else 0
    return RationalMatrix(p), RationalMatrix(q)


@pytest.mark.parametrize("n, eps", [(63, F(0)), (60, F(0)), (20, F(1, 2**50))])
def test_moment_formula_at_the_int64_bound(n, eps):
    # D C(N, N // 2) picks the dtype of the weighted sums: past 2^63 at N 63
    # and under it at N 60; at N 20 the weights are int64 but the moments,
    # up to D (1 - eps)/N C(20, 10), pass 2^63, where an int64 sum would wrap
    law = one_takes_all(n, eps)
    bound = law.den * math.comb(n, n // 2)
    assert (bound > 2**63 - 1) == (n != 60)
    if eps:
        assert law.den <= 2**63 - 1 < law.den * (1 - eps) / n * math.comb(n, n // 2)
    p, q = one_takes_all_forms(n, eps)
    assert coarse_forward_direct(law) == p
    assert coarse_backward_moment_formula(law) == q


@settings(max_examples=25, deadline=None)
@given(law=exchangeable_laws(max_n=3), t=st.sampled_from([1, 2]))
def test_kernel_builders_match_the_reference_on_random_exchangeable_laws(law, t):
    ma = multiallelic_kernels(law, t)
    assert (ma.p_ext.matrix, ma.q.matrix) == reference_p_q(law, ma.pair.poset)


def split_wright_fisher(n):
    """Wright-Fisher on n with weight 2 on the atoms whose two largest
    families have two children and one, and 1 elsewhere: two weight groups."""
    atoms = [(nu, 2 if sorted((bin(m).count("1") for m in nu), reverse=True)[:2] == [2, 1] else 1)
             for nu, _ in wright_fisher_law(n).support]
    den = sum(w for _, w in atoms)
    return OffspringLaw.build(n, [(nu, F(w, den)) for nu, w in atoms])


@pytest.mark.parametrize("name, t, spans", [("split4", 1, 3), ("split4", 2, 2), ("mixed3", 1, 1),
                                            ("lopsided", 1, 1), ("lopsided", 2, 1)])
def test_kernel_counts_span_blocks_in_every_weight_group(monkeypatch, name, t, spans):
    # one state's worth of pairs per block: each weight group of Wright-Fisher
    # on 4 with two weights spans at least ``spans`` blocks (144 and 112 atoms
    # over 16 or 81 states); the lopsided law is not exchangeable
    law = {"split4": split_wright_fisher(4), "mixed3": MIXED_LAW, "lopsided": lopsided_law()}[name]
    monkeypatch.setattr(cannings, "_BLOCK_PAIRS", 1)
    ma = multiallelic_kernels(law, t)
    groups = np.unique(law.weights, return_counts=True)[1]
    assert min(-(-groups // len(ma.pair.poset))) >= spans
    if name == "split4":
        assert len(groups) == 2
    assert (ma.p_ext.matrix, ma.q.matrix) == reference_p_q(law, ma.pair.poset)


# ---------------------------------------------------------------------------
# Seeded faults: each identity whose inputs the array evaluators compute is
# seen to fail when one value it checks is off
# ---------------------------------------------------------------------------


def moved_size_weights(law, moves):
    """Put a copy of the law's size-vector weights, with weight ``d`` added
    at size vector ``vec`` for each (vec, d) of ``moves``, in its memo."""
    sizes, weights = law._size_weights
    at = {vec: k for k, vec in enumerate(map(tuple, sizes.tolist()))}
    weights = weights.copy()
    for vec, d in moves:
        weights[at[vec]] += d
    vars(law)["_size_weights"] = (sizes, weights)


# one unit of weight from (0, 0, 3) to (0, 1, 2) moves the children of the first two parents
BLOCK_FORWARD_FAULT = [((0, 0, 3), -1), ((0, 1, 2), 1)]
# these moves keep the law of the children of the first i parents, for every
# i, so the coarse P stays right, but move E[|nu_1| |nu_2|]
MOMENT_FAULT = [((1, 0, 2), 1), ((0, 1, 2), -1), ((1, 1, 1), -1), ((0, 2, 1), 1)]


def test_a_moved_size_weight_fails_the_block_forward_form():
    law = wright_fisher_law(3)
    ma = multiallelic_kernels(law, 1)
    moved_size_weights(law, BLOCK_FORWARD_FAULT)
    with pytest.raises(VerificationFailure) as exc:
        coarsen_multiallelic(ma)
    assert exc.value.identity == "coarse P = block forward form"


def test_a_moment_off_with_the_coarse_p_right_fails_the_moment_formula():
    law = wright_fisher_law(3)
    ma = multiallelic_kernels(law, 1)
    right = coarse_forward_direct(law)
    moved_size_weights(law, MOMENT_FAULT)
    assert coarse_forward_direct(law) == right
    with pytest.raises(VerificationFailure) as exc:
        coarsen_multiallelic(ma)
    assert exc.value.identity == "coarse Q = backward moment formula"


def test_the_moment_formula_check_survives_optimized_mode():
    code = (
        "from moebius_dual import cannings, coarsen_multiallelic, multiallelic_kernels\n"
        "from moebius_dual.errors import VerificationFailure\n"
        "law = cannings.wright_fisher_law(3)\n"
        "ma = multiallelic_kernels(law, 1)\n"
        "sizes, weights = law._size_weights\n"
        "at = {vec: k for k, vec in enumerate(map(tuple, sizes.tolist()))}\n"
        "weights = weights.copy()\n"
        f"for vec, d in {MOMENT_FAULT!r}:\n"
        "    weights[at[vec]] += d\n"
        "vars(law)['_size_weights'] = (sizes, weights)\n"
        "try:\n"
        "    coarsen_multiallelic(ma)\n"
        "except VerificationFailure as exc:\n"
        "    print(exc.identity)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout == "coarse Q = backward moment formula\n"


def one_over(values, at):
    """A copy of the array ``values`` with one added at ``at``."""
    values = values.copy()
    values[at] += 1
    return values


def entry_over(m):
    """``m`` with the numerator of its entry (1, 0) raised by one."""
    return RationalMatrix._wrap(one_over(m._num, (1, 0)), m._den)


# the closed-form side of each check of coarsen_multiallelic, one value off:
# the size of class 1, an entry of H, of H^-1 or of Q
CLOSED_FORM_FAULTS = {
    "class sizes are multinomial": ("_multinomial_class_sizes", lambda out: (one_over(out[0], 1), out[1])),
    "coarse H = product-binomial form": ("_product_binomial", lambda out: (entry_over(out[0]), out[1])),
    "coarse H hypergeometric inverse = I": ("_product_binomial", lambda out: (out[0], entry_over(out[1]))),
    "coarse Q = backward moment formula": ("_block_backward", entry_over),
}


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("identity", sorted(CLOSED_FORM_FAULTS))
def test_each_closed_form_check_fires_on_its_fault(monkeypatch, identity, t):
    ma = multiallelic_kernels(wright_fisher_law(3), t)
    name, fault = CLOSED_FORM_FAULTS[identity]
    form = getattr(cannings, name)
    monkeypatch.setattr(cannings, name, lambda *args: fault(form(*args)))
    with pytest.raises(VerificationFailure) as exc:
        coarsen_multiallelic(ma)
    assert exc.value.identity == identity


def test_the_closed_form_checks_at_t_2_and_3_survive_optimized_mode():
    # H^-1 one entry off at T = 2, Q one entry off at T = 3
    code = (
        "from moebius_dual import RationalMatrix, cannings, coarsen_multiallelic, multiallelic_kernels\n"
        "from moebius_dual.errors import VerificationFailure\n"
        "law = cannings.wright_fisher_law(3)\n"
        "def over(m):\n"
        "    num = m._num.copy()\n"
        "    num[1, 0] += 1\n"
        "    return RationalMatrix._wrap(num, m._den)\n"
        "forms = cannings._product_binomial, cannings._block_backward\n"
        "cannings._product_binomial = lambda *args: (forms[0](*args)[0], over(forms[0](*args)[1]))\n"
        "for t in (2, 3):\n"
        "    try:\n"
        "        coarsen_multiallelic(multiallelic_kernels(law, t))\n"
        "    except VerificationFailure as exc:\n"
        "        print(exc.identity)\n"
        "    cannings._product_binomial = forms[0]\n"
        "    cannings._block_backward = lambda *args: over(forms[1](*args))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    assert out.stdout.splitlines() == ["coarse H hypergeometric inverse = I",
                                       "coarse Q = backward moment formula"]


@pytest.mark.parametrize("matrix, identity", [(1, "P stochastic"), (2, "Q substochastic")])
def test_one_count_over_fails_the_row_sums(monkeypatch, matrix, identity):
    # one count of D P or D Q raised by 1 puts row 0 past D
    counts = cannings._kernel_counts

    def raised(law, masks, codes):
        out = list(counts(law, masks, codes))
        out[matrix] = out[matrix].copy()
        out[matrix][0, 0] += 1
        return tuple(out)

    monkeypatch.setattr(cannings, "_kernel_counts", raised)
    for t in (1, 2):
        with pytest.raises(VerificationFailure) as exc:
            multiallelic_kernels(wright_fisher_law(3), t)
        assert exc.value.identity == identity


def test_a_repeated_atom_fails_wright_fisher_exchangeability(monkeypatch):
    # atom 0 (parent 1 has every child) replaced by a second copy of atom 1:
    # a valid law, but not invariant under relabelling
    law_type = cannings.OffspringLaw
    monkeypatch.setattr(cannings, "OffspringLaw", lambda n, children, den, weights: law_type(
        n, np.vstack([children[1:2], children[1:]]), den, weights))
    with pytest.raises(VerificationFailure) as exc:
        wright_fisher_law(3)
    assert exc.value.identity == "Wright-Fisher law is exchangeable"


def test_monte_carlo_builds_no_table(monkeypatch):
    # a Moran law on N = 16 has 240 atoms x 2^16 subsets; the chains visit
    # a few of those pairs and compute only them
    def refuse(*args):
        raise AssertionError("per-atom table built")

    monkeypatch.setattr(cannings, "_atom_tables", refuse)
    law = OffspringLaw.build(16, moran_atoms(16))
    a, b = 0x00FF, 0x0F0F
    got = monte_carlo_duality(law, a, b, steps=2, reps=3, seed=7)
    assert got == reference_monte_carlo(law, a, b, steps=2, reps=3, seed=7)


def test_library_runs_without_the_reference_step_maps(monkeypatch):
    # the per-atom maps now come from one table; the loop versions live here
    # only, as references
    assert not any(hasattr(cannings, name) for name in ("_forward_unions", "_ancestors",
                                                          "_AtomSampler"))

    def refuse(*args):
        raise AssertionError("reference step map called")

    module = sys.modules[__name__]
    monkeypatch.setattr(module, "_forward_unions", refuse)
    monkeypatch.setattr(module, "_ancestors", refuse)
    law = wright_fisher_law(4)
    ma = multiallelic_kernels(law, 2)
    assert ma.p_ext.is_stochastic and ma.q.is_substochastic
    res = monte_carlo_duality(law, 0b0011, 0b0001, steps=3, reps=20, seed=5)
    assert res.reps == 20


# ---------------------------------------------------------------------------
# Reference Monte Carlo estimator: a fresh random.Random per replica and side,
# randrange over the integer weights and one step map call per step
# ---------------------------------------------------------------------------


def reference_monte_carlo(law, a, b, steps, reps, seed):
    n = law.ground_size
    den = common_denominator(law)
    atoms = [nu for nu, _ in law.support]
    cum = list(accumulate(p.numerator * (den // p.denominator) for _, p in law.support))
    fwd_counts, bwd_counts = {}, {}
    for rep in range(reps):
        rng = random.Random(seed * 1_000_003 + 2 * rep)
        x = a
        for _ in range(steps):
            nu = atoms[bisect_right(cum, rng.randrange(cum[-1]))]
            x = _forward_unions(nu, n)[x]
        i = bin(x).count("1")
        fwd_counts[i] = fwd_counts.get(i, 0) + 1
        rng = random.Random(seed * 1_000_003 + 2 * rep + 1)
        y = b
        for _ in range(steps):
            nu = atoms[bisect_right(cum, rng.randrange(cum[-1]))]
            y = _ancestors(nu, y)
        j = bin(y).count("1")
        bwd_counts[j] = bwd_counts.get(j, 0) + 1
    h = hypergeometric_matrix(n)
    i_a, j_b = bin(a).count("1"), bin(b).count("1")
    f_mean, f_se = cannings._summary(fwd_counts, {i: h[i, j_b] for i in fwd_counts}, reps)
    b_mean, b_se = cannings._summary(bwd_counts, {j: h[i_a, j] for j in bwd_counts}, reps)
    return cannings.MonteCarloResult(steps=steps, reps=reps, seed=seed,
                                     forward_mean=f_mean, forward_stderr=f_se,
                                     backward_mean=b_mean, backward_stderr=b_se)


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 3])
@pytest.mark.parametrize("name", sorted(REFERENCE_LAWS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_monte_carlo_matches_the_reference_estimator(name, seed, data):
    law = REFERENCE_LAWS[name]
    full = (1 << law.ground_size) - 1
    a = data.draw(st.integers(0, full), label="a")
    b = data.draw(st.integers(0, full), label="b")
    reps = data.draw(st.integers(1, 6), label="reps")
    for steps in range(7):
        got = monte_carlo_duality(law, a, b, steps=steps, reps=reps, seed=seed)
        assert got == reference_monte_carlo(law, a, b, steps, reps, seed)


@pytest.mark.parametrize("total", [1, 2, 3, 20, 255, 256, 257, 2**61 - 1,
                                   common_denominator(HUGE_LAW), 2**64 + 1, 3**50])
def test_rejection_loop_equals_randrange(total):
    # the estimator spells randrange(total) out as this getrandbits loop
    k = total.bit_length()
    for seed in (0, -1, 2**64 + 3, 12345):
        ref, rng = random.Random(seed), random.Random(seed)
        for _ in range(200):
            r = rng.getrandbits(k)
            while r >= total:
                r = rng.getrandbits(k)
            assert r == ref.randrange(total)


# ---------------------------------------------------------------------------
# The replica tries and draws against CPython's own generators
# ---------------------------------------------------------------------------


def cpython_words(s, count):
    rng = random.Random(s)
    return [rng.getrandbits(32) for _ in range(count)]


def cpython_draws(seeds, steps, den):
    """randrange(den) ``steps`` times from random.Random(s), per seed."""
    return [[rng.randrange(den) for _ in range(steps)] for rng in map(random.Random, seeds)]


def assert_words(seeds, depth):
    # the lanes of keys shorter than 624 words hold CPython's words; every
    # lane draws as CPython does, where nearly every word is a try below
    # 2^32 - 1, so the draws pick out the words
    tries, fits = cannings._tries(seeds, depth, 32)
    assert fits.tolist() == [abs(s) < 2**(32 * 623) for s in seeds]
    for lane in np.flatnonzero(fits).tolist():
        assert tries[:, 0, lane].tolist() == cpython_words(seeds[lane], depth)
    draws = cannings._draws(seeds, depth, 2**32 - 1, depth)
    assert draws.T.tolist() == cpython_draws(seeds, depth, 2**32 - 1)


# keys of one word (0, -1, 2^32 - 1), two (2^32), three past 64 bits, the
# longest key run in numpy (623 words) and one run in CPython (624 words)
WORD_SEEDS = {"0": 0, "-1": -1, "2^32-1": 2**32 - 1, "2^32": 2**32, "2^64+3": 2**64 + 3,
              "2^19904": 2**(32 * 622), "2^19936-1": 2**(32 * 623) - 1, "2^19936": 2**(32 * 623)}


@pytest.mark.parametrize("name", sorted(WORD_SEEDS))
@pytest.mark.parametrize("depth", [1, 2, 3, 227])
def test_word_source_equals_cpython(name, depth):
    s = WORD_SEEDS[name]
    assert_words(range(s, s + 3), depth)


@pytest.mark.parametrize("first, count", [(-3, 7), (2**32 - 2, 5), (2**63 - 3, 3), (-(2**63) + 1, 3),
                                          (2**63 - 2, 4), (2**64 - 2, 5), (-(2**64) - 2, 5)])
def test_word_source_lanes_cross_key_lengths(first, count):
    # one block whose seeds change key length part way, cross zero, or end
    # at either side of the int64 range
    assert_words(range(first, first + count), 5)


@settings(max_examples=25, deadline=None)
@given(first=st.integers(-2**80, 2**80), count=st.integers(1, 9), depth=st.integers(1, 227))
def test_word_source_equals_cpython_on_any_seeds(first, count, depth):
    assert_words(range(first, first + count), depth)


@pytest.mark.parametrize("k", [1, 9, 31, 32, 33, 63, 64, 66, 96, 100])
@pytest.mark.parametrize("depth", [4, 227])
def test_word_source_draws_equal_getrandbits(k, depth):
    # a try of k > 32 bits takes ceil(k/32) words; lanes 2 and 3 have keys
    # of 624 words and draw in CPython; 150 draws outrun a table of 4 words
    # on every lane, and one of 227 words on about half of them at k <= 32
    seeds = range(2**(32 * 623) - 2, 2**(32 * 623) + 2)
    w = -(-k // 32)
    tries, fits = cannings._tries(seeds, depth, k)
    assert fits.tolist() == [True, True, False, False]
    for lane in (0, 1):
        rng = random.Random(seeds[lane])
        got = [sum(x << 32 * j for j, x in enumerate(t)) for t in tries[:, :, lane].tolist()]
        assert got == [rng.getrandbits(k) for _ in range(depth // w)]
    den = 2**(k + 1) // 3  # of k bits, so that about two tries in three are accepted
    for steps in (1, depth // w, 150):
        assert cannings._draws(seeds, steps, den, depth).T.tolist() == cpython_draws(seeds, steps, den)


# runs of seeds that cross zero, 2^32, 2^64 or the longest key run in numpy
SEED_EDGES = [0, 2**32, 2**64, 2**(32 * 623), -(2**(32 * 623)) + 3]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_draws_equal_randrange(data):
    bits = data.draw(st.integers(1, 100), label="bits")
    den = data.draw(st.integers(1 << bits - 1, (1 << bits) - 1), label="den")
    w = -(-bits // 32)
    depth = data.draw(st.integers(w, 227), label="depth")
    steps = data.draw(st.integers(0, 300), label="steps")
    first = data.draw(st.sampled_from(SEED_EDGES) | st.integers(-2**70, 2**70), label="edge")
    first += data.draw(st.integers(-4, 0), label="offset")
    seeds = range(first, first + data.draw(st.integers(1, 6), label="count"))
    got = cannings._draws(seeds, steps, den, depth)
    assert got.shape == (steps, len(seeds))
    assert got.T.tolist() == cpython_draws(seeds, steps, den)


@pytest.mark.parametrize("law, steps", [(wright_fisher_law(2), 300), (GIANT_LAW, 3)],
                         ids=["wf2-300", "giant-3"])
def test_monte_carlo_past_the_first_twist(law, steps):
    # 300 draws need more than the 227 words of the first twist, and a draw
    # of 228 words fits no table: such lanes redraw all their steps in CPython
    got = monte_carlo_duality(law, 0b01, 0b10, steps=steps, reps=3, seed=5)
    assert got == reference_monte_carlo(law, 0b01, 0b10, steps, 3, 5)


@pytest.mark.parametrize("name", ["wf4", "huge3"])
def test_monte_carlo_continues_in_cpython_past_tiny_tables(monkeypatch, name):
    # one draw's words per lane and two lanes per block: a lane of more than
    # one step, or whose one try is refused, redraws all its steps in its own
    # random.Random
    monkeypatch.setattr(cannings, "_table_depth", lambda steps, den, k: -(-k // 32))
    monkeypatch.setattr(cannings, "_TABLE_WORDS", 1)
    law = REFERENCE_LAWS[name]
    for steps in range(13):
        for seed in (0, -7):
            got = monte_carlo_duality(law, 0b011, 0b101, steps=steps, reps=3, seed=seed)
            assert got == reference_monte_carlo(law, 0b011, 0b101, steps, 3, seed)



@pytest.mark.parametrize("name", ["mixed3", "moran9"])
def test_monte_carlo_lookup_and_search_agree(monkeypatch, name):
    # draws map to atoms through a D-entry lookup while D is within the bound
    # and through a binary search past it; the CLI laws all take the lookup
    n_wf, n_moran = cannings.MAX_WRIGHT_FISHER_GROUND, cannings.MAX_MORAN_GROUND
    assert max(n_wf ** n_wf, n_moran * (n_moran - 1)) <= cannings._LOOKUP_DEN
    law, search, searched = REFERENCE_LAWS[name], np.searchsorted, []
    monkeypatch.setattr(np, "searchsorted", lambda *args, **kw: searched.append(1) or search(*args, **kw))
    for bound, searches in ((law.den, False), (law.den - 1, True)):
        monkeypatch.setattr(cannings, "_LOOKUP_DEN", bound)
        searched.clear()
        for seed in (0, -3):
            got = monte_carlo_duality(law, 0b011, 0b101, steps=4, reps=40, seed=seed)
            assert got == reference_monte_carlo(law, 0b011, 0b101, 4, 40, seed)
        assert bool(searched) == searches

def test_monte_carlo_memory_and_cpython_generators_stay_small(monkeypatch):
    # the lanes run in blocks of a table of about 1 MiB, so the traced peak
    # stays under 2 MiB at 5,000 and at 100,000 replicas; fewer than 1% of
    # the lanes build a random.Random of their own
    built = []

    class CountingRandom(random.Random):
        def __init__(self, s):
            built.append(s)
            super().__init__(s)

    monkeypatch.setattr(random, "Random", CountingRandom)
    law = wright_fisher_law(4)
    for reps in (5000, 100_000):
        built.clear()
        tracemalloc.start()
        try:
            monte_carlo_duality(law, 0b111, 0b11, steps=5, reps=reps, seed=11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert len(built) < 2 * reps // 100
