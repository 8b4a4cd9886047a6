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
from .lattices import Skeleton, SubsetLattice, _pair_masks, _rgs, skeleton, skeletons_of
from .poset import ZetaPair
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
    "MAX_COARSE_SET_GROUND",
    "MAX_COARSE_PARTITION_GROUND",
]

MAX_ENUMERATION_GROUND = 12
# the closed forms are only (N + 1)-square: the former subset-lattice ground bound, kept
MAX_COARSE_SET_GROUND = 20
# every Bell(n) partition is enumerated (Bell(8) = 4,140): the former partition-lattice bound
MAX_COARSE_PARTITION_GROUND = 8


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
        pos = {}  # each class label at its first occurrence
        class_of = []
        for e in elements:
            lab = fn(e)
            try:
                class_of.append(pos.setdefault(lab, len(pos)))
            except TypeError:
                raise InvalidParameter(f"equivalence relation: class labels must be hashable, "
                                       f"got {lab!r}") from None
        return cls(elements=elements, class_labels=tuple(pos), class_of=tuple(class_of))

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
    _check_range("coarse set matrices", "N", n, 0, MAX_COARSE_SET_GROUND)
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


def coarse_set_matrices_enumerated(n: int) -> CoarseSetMatrices:
    """The same four matrices by direct counting over all 2^N subsets.

    The class sums of the Z and Z' rows at a subset J count its supersets
    and its subsets of each cardinality k, and the Z^{-1} and (Z')^{-1} rows
    carry the sign (-1)^(k-j).  Both are counted for every J at once, by one
    Yates pass per ground element (Björklund, Husfeldt, Kaski & Koivisto,
    STOC 2007), and every row is compared with the row of {1..j} at every N.
    """
    _check_range("enumeration route", "N", n, 0, MAX_ENUMERATION_GROUND)
    size = n + 1
    masks = np.arange(1 << n)
    cards = np.bitwise_count(masks).astype(np.int64)
    # the supersets and the subsets of J by cardinality start as the indicator
    # of its own, in the narrowest signed dtype that holds 2^N
    counts = np.zeros((2, 1 << n, size), dtype=np.min_scalar_type(-(2 << n)))
    counts[:, masks, cards] = 1
    for b in range(n):
        t = counts.reshape(2, -1, 2, (1 << b) * size)  # axis 2 is bit b of J
        t[0, :, 0] += t[0, :, 1]  # J without b gains the supersets of J + b
        t[1, :, 1] += t[1, :, 0]  # J with b gains the subsets of J - b
    bad = (counts != counts.take((1 << cards) - 1, axis=1)).any(axis=(0, 2))
    _require(not bad.any(), "coarse set rows are representative-free", lambda: int(cards[bad].min()))

    ks = np.arange(size)
    up, down = counts[:, (1 << ks) - 1].astype(np.int64)  # the rows of {1..j}
    sign = 1 - 2 * ((ks[:, None] + ks) % 2)  # (-1)^(k-j)
    out = CoarseSetMatrices(
        ground_size=n,
        zeta=RationalMatrix(up),
        moebius=RationalMatrix(sign * up),
        zeta_transpose=RationalMatrix(down),
        moebius_transpose=RationalMatrix(sign * down),
    )
    eye = RationalMatrix.identity(size)
    _require_equal(out.zeta @ out.moebius, eye, "coarse Z M = I")
    _require_equal(out.zeta_transpose @ out.moebius_transpose, eye, "coarse Z' M' = I")
    return out


def _representatives(sizes: np.ndarray) -> np.ndarray:
    """Two RGS representatives per row of descending atom sizes, as one 2m x n
    array: the consecutive blocks {1..e1}{e1+1..}..., then their images under
    the reversal i -> n + 1 - i, relabelled to first-use order."""
    m, n = sizes.shape
    first = np.repeat(np.tile(np.arange(n), m), sizes.ravel()).reshape(m, n)
    # reversed consecutive blocks meet their labels in descending order
    return np.concatenate([first, first.max(axis=1, keepdims=True) - first[:, ::-1]])


def coarse_partition_matrices(n: int):
    """(coarse zeta, coarse Moebius) on the skeletons of n, from the RGS
    array alone.

    zeta(eta, kappa) counts partitions with skeleton kappa coarser than a
    fixed representative of eta; the Moebius row sums the closed-form mu
    over the same set.  The rows of both representatives of every skeleton
    (``_representatives``) come from one pass over the (representative,
    coarser partition) pairs, and each skeleton's two rows must agree.
    """
    _check_range("coarse partition matrices", "n", n, 1, MAX_COARSE_PARTITION_GROUND)
    rgs = _rgs(n)
    # the skeletons are the distinct rows of descending atom sizes (zero-padded
    # to n, each read as one base-(n + 1) number), numbered in first-occurrence
    # order so that the rows line up with skeleton_relation on the full lattice
    sizes = -np.sort(-(rgs[:, :, None] == np.arange(n)).sum(axis=1), axis=1)
    _, first, skel_of = np.unique(sizes @ (n + 1) ** np.arange(n), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    shapes, skel_of = sizes[first[order]], np.argsort(order)[skel_of]
    skels = [Skeleton(tuple(e for e in row if e)) for row in shapes.tolist()]
    _require(set(skels) == set(skeletons_of(n)), "skeletons of the partitions = skeletons of n", n)
    m = len(skels)
    reps = _representatives(shapes)
    # the (representative, coarser partition) pairs, and per pair the number
    # of representative atoms, each named by its first element, in each
    # block of the coarser partition; the other elements go to a spare bin
    r, g = np.nonzero((_pair_masks(reps)[:, None] & ~_pair_masks(rgs)) == 0)
    opens = np.diff(np.maximum.accumulate(reps, axis=1), prepend=-1) > 0
    bins = np.where(opens[r], np.arange(len(r))[:, None] * n + rgs[g], len(r) * n)
    counts = np.bincount(bins.ravel(), minlength=len(r) * n + 1)[:-1].reshape(len(r), n)
    # (c - 1)! for c atoms in a block of gamma, and 1 for a block with none
    weight = np.array([1] + [math.factorial(c - 1) for c in range(1, n + 1)])
    sign = 1 - 2 * ((reps.max(axis=1)[r] + rgs.max(axis=1)[g]) % 2)
    cell = r * m + skel_of[g]
    mo = np.zeros(2 * m * m, dtype=np.int64)
    np.add.at(mo, cell, sign * weight[counts].prod(axis=1))
    table = np.stack([np.bincount(cell, minlength=2 * m * m), mo]).reshape(2, 2 * m, m)
    bad = (table[:, :m] != table[:, m:]).any(axis=(0, 2))
    _require(not bad.any(), "coarse partition rows are representative-free",
             lambda: skels[int(bad.argmax())])
    z, mo = RationalMatrix(table[0, :m]), RationalMatrix(table[1, :m])
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
