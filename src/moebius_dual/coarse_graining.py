"""Coarse-graining of matrices over equivalence relations on the state space.

A matrix H is compatible with a relation when the sums of H(a, .) over any
target class do not depend on the representative a within its class; the
coarse matrix collects those class row sums.  The dual kernel is coarsened
with the other convention, column sums over the source class, and the
class-size transform turns the coarse dual back into a stochastic kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .duality import DualityVariant, Kernel, h_dual, h_transform
from .errors import IncompatibleMatrix, InvalidParameter, _check_range, _require
from .lattices import (
    Partition,
    Skeleton,
    SubsetLattice,
    _pair_masks,
    enumerate_partitions,
    skeleton,
    skeletons_of,
)
from .poset import _SELF_CHECK_STATES, ZetaPair
from .rational import RationalMatrix, _require_equal

__all__ = [
    "EquivalenceRelation",
    "CoarseResult",
    "CoarseDualityResult",
    "CoarseSetMatrices",
    "check_compatibility",
    "cardinality_relation",
    "skeleton_relation",
    "coarse_set_matrices",
    "coarse_set_matrices_enumerated",
    "coarse_partition_matrices",
    "coarse_duality_pipeline",
    "MAX_ENUMERATION_GROUND",
]

MAX_ENUMERATION_GROUND = 12


@dataclass(frozen=True)
class EquivalenceRelation:
    """A partition of an indexed element tuple into labelled classes.

    ``class_of[i]`` is the coarse index of fine element i; coarse indices
    follow ``class_labels``, which are ordered by first occurrence so a
    fine order sorted by class keeps its class order.
    """

    elements: tuple
    class_labels: tuple
    class_of: tuple

    @classmethod
    def from_function(cls, elements, fn) -> "EquivalenceRelation":
        elements = tuple(elements)
        labels = []
        pos = {}
        class_of = []
        for e in elements:
            lab = fn(e)
            if lab not in pos:
                pos[lab] = len(labels)
                labels.append(lab)
            class_of.append(pos[lab])
        return cls(elements=elements, class_labels=tuple(labels), class_of=tuple(class_of))

    @classmethod
    def trivial(cls, elements) -> "EquivalenceRelation":
        """Every element in its own class, labelled by itself."""
        return cls.from_function(elements, lambda e: e)

    @classmethod
    def single_class(cls, elements, label="all") -> "EquivalenceRelation":
        return cls.from_function(elements, lambda e: label)

    @property
    def num_classes(self) -> int:
        return len(self.class_labels)

    @property
    def classes(self) -> dict:
        return {e: self.class_labels[c] for e, c in zip(self.elements, self.class_of)}

    @property
    def class_members(self) -> dict:
        out = {lab: [] for lab in self.class_labels}
        for e, c in zip(self.elements, self.class_of):
            out[self.class_labels[c]].append(e)
        return {lab: tuple(v) for lab, v in out.items()}

    @property
    def class_sizes(self) -> dict:
        """Class label -> number of members, in coarse index order."""
        sizes = [0] * self.num_classes
        for c in self.class_of:
            sizes[c] += 1
        return dict(zip(self.class_labels, sizes))


@dataclass(frozen=True)
class CoarseResult:
    compatible: bool
    coarse: RationalMatrix | None
    witness: tuple | None  # (representative a1, representative a2, class label)


def check_compatibility(h: RationalMatrix, rel: EquivalenceRelation) -> CoarseResult:
    """Row-sum coarsening: H-tilde(a~, b~) = sum of H(a, c) over c in b~.

    Compatible iff that sum is the same for every representative a of a~,
    that is iff H V = V H-tilde for the 0/1 fine-to-class indicator V, with
    H-tilde the rows of H V at each class's first member; V H-tilde is the
    row of H-tilde of each element's class.  Every representative is
    checked, not just a sampled pair.
    """
    n = len(rel.elements)
    if h.shape != (n, n):
        raise InvalidParameter(f"check_compatibility: h is {h.rows}x{h.cols}, "
                               f"rel has {n} elements")
    v = RationalMatrix(np.eye(rel.num_classes, dtype=np.int64)[list(rel.class_of)])
    firsts = [rel.class_of.index(k) for k in range(rel.num_classes)]
    hv = h @ v
    coarse = hv[firsts, :]
    lumped = coarse[list(rel.class_of), :]
    if hv == lumped:
        return CoarseResult(compatible=True, coarse=coarse, witness=None)
    # the first differing (row, class) in row-major order: that row against
    # its class's first member, at the first target class where they differ
    i, k = hv._first_difference(lumped)
    witness = (rel.elements[firsts[rel.class_of[i]]], rel.elements[i], rel.class_labels[k])
    return CoarseResult(compatible=False, coarse=None, witness=witness)


def cardinality_relation(lat: SubsetLattice) -> EquivalenceRelation:
    return EquivalenceRelation.from_function(lat.poset.elements, int.bit_count)


def skeleton_relation(elements) -> EquivalenceRelation:
    """Partitions grouped by their multiset of atom sizes."""
    return EquivalenceRelation.from_function(elements, skeleton)


# ---------------------------------------------------------------------------
# Closed forms on the two concrete lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseSetMatrices:
    """Coarse zeta/Moebius data of the subset lattice under cardinality."""

    ground_size: int
    zeta: RationalMatrix
    moebius: RationalMatrix  # coarse-graining of Z^{-1}
    zeta_transpose: RationalMatrix  # coarse-graining of Z'
    moebius_transpose: RationalMatrix  # coarse-graining of (Z')^{-1}


def coarse_set_matrices(n: int) -> CoarseSetMatrices:
    """Binomial closed forms on {0..N}.

    zeta(j,k) = C(N-j, k-j); its coarse inverse carries the sign (-1)^{k-j};
    the transposed pair is C(j,k) with sign (-1)^{j-k}.  Note the coarse
    transpose is not the transpose of the coarse matrix.
    """
    _check_range("coarse set matrices", "N", n, 0, 20)
    size = n + 1

    def mk(fn):
        return RationalMatrix.from_function(size, size, fn)

    return CoarseSetMatrices(
        ground_size=n,
        zeta=mk(lambda j, k: math.comb(n - j, k - j) if j <= k else 0),
        moebius=mk(lambda j, k: (-1) ** (k - j) * math.comb(n - j, k - j) if j <= k else 0),
        zeta_transpose=mk(lambda j, k: math.comb(j, k) if k <= j else 0),
        moebius_transpose=mk(lambda j, k: (-1) ** (j - k) * math.comb(j, k) if k <= j else 0),
    )


def _class_counts(hits: np.ndarray, classes: np.ndarray, size: int) -> np.ndarray:
    """Per row of the bool matrix ``hits``, the number of its hits in each of
    ``size`` classes, for ``classes`` the class index of each column."""
    flat = (np.arange(len(hits))[:, None] * size + classes)[hits]
    return np.bincount(flat, minlength=len(hits) * size).reshape(len(hits), size)


def coarse_set_matrices_enumerated(n: int) -> CoarseSetMatrices:
    """The same four matrices by direct counting over all 2^N subsets.

    For each cardinality class the class sums of Z, Z^{-1}, Z', (Z')^{-1}
    rows at a representative J are counted over every subset, by the
    cardinality of its supersets and subsets of J.  Representative
    independence is verified over all representatives while 2^N is within
    the self-check size (up to N = 8), and over two extreme ones beyond.
    """
    _check_range("enumeration route", "N", n, 0, MAX_ENUMERATION_GROUND)
    size = n + 1
    masks = np.arange(1 << n)
    cards = np.bitwise_count(masks)
    ks = np.arange(size)

    rows = []
    for j in range(size):
        if 1 << n <= _SELF_CHECK_STATES:
            reps = masks[cards == j]
        else:
            lo = (1 << j) - 1  # first j ground elements
            hi = lo << (n - j)  # last j ground elements
            reps = np.array([lo] if lo == hi else [lo, hi])
        up = _class_counts(reps[:, None] & ~masks == 0, cards, size)
        down = _class_counts(masks & ~reps[:, None] == 0, cards, size)
        sign = 1 - 2 * ((ks + j) % 2)  # (-1)^(k-j)
        cand = np.hstack([up, sign * up, down, sign * down])
        _require(bool((cand == cand[0]).all()), "coarse set rows are representative-free", j)
        rows.append(cand[0])

    table = np.array(rows)
    out = CoarseSetMatrices(
        ground_size=n,
        zeta=RationalMatrix(table[:, :size]),
        moebius=RationalMatrix(table[:, size:2 * size]),
        zeta_transpose=RationalMatrix(table[:, 2 * size:3 * size]),
        moebius_transpose=RationalMatrix(table[:, 3 * size:]),
    )
    eye = RationalMatrix.identity(size)
    _require_equal(out.zeta @ out.moebius, eye, "coarse Z M = I")
    _require_equal(out.zeta_transpose @ out.moebius_transpose, eye, "coarse Z' M' = I")
    return out


def _skeleton_representative(eta: Skeleton) -> Partition:
    """Consecutive blocks {1..e1}{e1+1..}... with the given sizes."""
    atoms, start = [], 1
    for e in eta.parts:
        atoms.append(set(range(start, start + e)))
        start += e
    return Partition.from_atoms(atoms, eta.total)


def _permuted(alpha: Partition, perm) -> Partition:
    return Partition.from_atoms(
        [{perm[i] for i in a} for a in alpha.atoms()], alpha.n
    )


def coarse_partition_matrices(n: int):
    """(coarse zeta, coarse Moebius) on the skeletons of n.

    zeta(eta, kappa) counts partitions with skeleton kappa coarser than a
    fixed representative of eta; the Moebius row sums the closed-form mu
    over the same set.  Each row is recomputed from a second, relabelled
    representative to confirm it does not depend on the choice.
    """
    _check_range("coarse partition matrices", "n", n, 1, 8)
    parts = enumerate_partitions(n)
    # skeletons in first-occurrence order, so the rows line up with
    # skeleton_relation on the full lattice
    rel = skeleton_relation(parts)
    skels = list(rel.class_labels)
    _require(set(skels) == set(skeletons_of(n)), "skeletons of the partitions = skeletons of n", n)
    m = len(skels)
    skel_of = np.array(rel.class_of)
    rgs = np.array([g.rgs for g in parts])
    pairs = _pair_masks(rgs)
    blocks = rgs.max(axis=1) + 1
    # (c - 1)! for c alpha-atoms in a block of gamma, and 1 for a block with none
    weight = np.array([1] + [math.factorial(c - 1) for c in range(1, n + 1)])
    reversal = {i: n + 1 - i for i in range(1, n + 1)}

    def rows_for(alpha):
        coarser = np.flatnonzero((_pair_masks(np.array([alpha.rgs])) & ~pairs) == 0)
        g = rgs[coarser]
        # the block of gamma holding each alpha-atom, an atom named by its first element
        firsts = [alpha.rgs.index(a) for a in range(alpha.num_atoms)]
        counts = np.zeros((len(g), n), dtype=np.int64)
        np.add.at(counts, (np.arange(len(g))[:, None], g[:, firsts]), 1)
        sign = 1 - 2 * ((alpha.num_atoms + blocks[coarser]) % 2)
        mu = sign * weight[counts].prod(axis=1)
        mo = np.zeros(m, dtype=np.int64)
        np.add.at(mo, skel_of[coarser], mu)
        return np.concatenate([np.bincount(skel_of[coarser], minlength=m), mo])

    rows = []
    for eta in skels:
        rep = _skeleton_representative(eta)
        rows.append(rows_for(rep))
        _require(bool((rows[-1] == rows_for(_permuted(rep, reversal))).all()),
                 "coarse partition rows are representative-free", eta)
    table = np.array(rows)
    z, mo = RationalMatrix(table[:, :m]), RationalMatrix(table[:, m:])
    _require_equal(z @ mo, RationalMatrix.identity(m), "coarse Z M = I")
    return skels, z, mo


# ---------------------------------------------------------------------------
# The stochasticity-restoring pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoarseDualityResult:
    rel: EquivalenceRelation
    q: RationalMatrix  # fine dual of P
    p_coarse: Kernel
    h_coarse: RationalMatrix
    h_hat: tuple  # class sizes, the restoring eigen-like function
    h_coarse_hat: RationalMatrix  # h_coarse with columns divided by h_hat
    q_coarse: RationalMatrix  # source-column coarse dual, before the transform
    q_coarse_hh: Kernel  # the class-size transform of q_coarse


def coarse_duality_pipeline(
    p: Kernel, zp: ZetaPair, variant: DualityVariant, rel: EquivalenceRelation
) -> CoarseDualityResult:
    """Coarse-grain a dual pair and restore stochasticity with class sizes.

    Forms the fine dual Q of P with h_dual, which checks H H^{-1} = I, then
    coarse-grains the pair.  Requires H, H^{-1} and P compatible with the
    relation.  The coarse dual uses source-column sums; dividing by class
    sizes on the left and multiplying on the right yields a kernel verified
    to satisfy the coarse duality and to inherit (sub)stochasticity from the
    fine dual.
    """
    if tuple(rel.elements) != tuple(zp.poset.elements):
        raise InvalidParameter("coarse_duality_pipeline: rel elements must match the zp poset "
                               "index order")
    h, h_inv = variant.h_pair(zp)
    # h_dual checks H H^-1 = I first, so a wrong H^-1 fails as that identity
    return _coarsen_pair(p, Kernel.of(h_dual(p, h, h_inv)), h, h_inv, rel)


def _coarsen_pair(p: Kernel, q: Kernel, h: RationalMatrix, h_inv: RationalMatrix,
                  rel: EquivalenceRelation) -> CoarseDualityResult:
    """The pipeline after the dual: coarse-grain P and its verified fine dual Q
    (Q' = H^{-1} P H, with H H^{-1} = I already checked) over ``rel``."""
    named = [("H", h), ("H_inverse", h_inv), ("P", p.matrix)]
    coarse = {}
    for name, mat in named:
        res = check_compatibility(mat, rel)
        if not res.compatible:
            raise IncompatibleMatrix(name, res.witness)
        coarse[name] = res.coarse
    m = rel.num_classes
    # coarse H inverts to the coarse of the inverse
    _require_equal(coarse["H"] @ coarse["H_inverse"], RationalMatrix.identity(m),
                   "coarse H coarse H^-1 = I")

    # source-column sums: the row-sum coarsening of the transpose
    q_res = check_compatibility(q.matrix.T, rel)
    _require(q_res.compatible, "Q' compatible with the relation", q_res.witness)
    q_coarse = q_res.coarse.T

    h_hat = [Fraction(s) for s in rel.class_sizes.values()]
    d_inv = RationalMatrix.diagonal([1 / v for v in h_hat])
    h_coarse_hat = coarse["H"] @ d_inv
    q_coarse_hh = h_transform(Kernel.of(q_coarse), h_hat)

    p_coarse = Kernel.of(coarse["P"])
    # coarse duality for the transformed pair
    _require_equal(h_coarse_hat @ q_coarse_hh.matrix.T, p_coarse.matrix @ h_coarse_hat,
                   "coarse H Q' = P H")
    if p.is_stochastic:
        _require(p_coarse.is_stochastic, "P stochastic => coarse P stochastic")
    if q.is_stochastic:
        _require(q_coarse_hh.is_stochastic, "Q stochastic => coarse Q stochastic")
    elif q.is_substochastic:
        _require(q_coarse_hh.is_substochastic, "Q substochastic => coarse Q substochastic")

    return CoarseDualityResult(
        rel=rel,
        q=q.matrix,
        p_coarse=p_coarse,
        h_coarse=coarse["H"],
        h_hat=tuple(h_hat),
        h_coarse_hat=h_coarse_hat,
        q_coarse=q_coarse,
        q_coarse_hh=q_coarse_hh,
    )
