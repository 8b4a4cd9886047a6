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

from .duality import DualityVariant, Kernel, h_dual, h_transform
from .errors import IncompatibleMatrix, _check_range, _require
from .lattices import (
    Partition,
    Skeleton,
    SubsetLattice,
    _popcount,
    enumerate_partitions,
    partition_moebius_closed_form,
    skeleton,
    skeletons_of,
)
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
    "product_relation",
    "coarse_set_matrices",
    "coarse_set_matrices_enumerated",
    "coarse_partition_matrices",
    "coarse_duality_pipeline",
]


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

    def members_idx(self, k: int):
        return [i for i, c in enumerate(self.class_of) if c == k]

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

    Compatible iff that sum is the same for every representative a of a~;
    the check runs over all representatives, not just a sampled pair.
    """
    n = len(rel.elements)
    if h.shape != (n, n):
        raise ValueError("matrix shape does not match the relation")
    m = rel.num_classes
    a = h.array()
    members = [rel.members_idx(k) for k in range(m)]
    # class-target row sums for every fine row
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


def cardinality_relation(lat: SubsetLattice) -> EquivalenceRelation:
    return EquivalenceRelation.from_function(lat.poset.elements, _popcount)


def skeleton_relation(elements) -> EquivalenceRelation:
    """Partitions grouped by their multiset of atom sizes."""
    return EquivalenceRelation.from_function(elements, skeleton)


def product_relation(
    rel1: EquivalenceRelation, rel2: EquivalenceRelation, elements
) -> EquivalenceRelation:
    """Componentwise relation on pairs, for product posets."""
    c1, c2 = rel1.classes, rel2.classes
    return EquivalenceRelation.from_function(elements, lambda e: (c1[e[0]], c2[e[1]]))


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


def coarse_set_matrices_enumerated(n: int) -> CoarseSetMatrices:
    """The same four matrices by direct counting over all 2^N subsets.

    For each cardinality class a representative J is fixed and the class
    sums of Z, Z^{-1}, Z', (Z')^{-1} rows at J are accumulated by iterating
    every subset.  Representative independence is verified over all
    representatives up to N=8 and over two extreme representatives beyond.
    """
    _check_range("enumeration route", "N", n, 0, 12)
    size = n + 1
    full = (1 << n) - 1

    def reps(j):
        if n <= 8:
            return [m for m in range(1 << n) if _popcount(m) == j]
        lo = (1 << j) - 1  # first j ground elements
        hi = lo << (n - j)  # last j ground elements
        return [lo] if lo == hi else [lo, hi]

    def rows_for(rep):
        z = [0] * size
        mo = [0] * size
        zt = [0] * size
        mot = [0] * size
        j = _popcount(rep)
        for mask in range(1 << n):
            k = _popcount(mask)
            if rep & ~mask == 0:  # rep subset of mask
                z[k] += 1
                mo[k] += (-1) ** (k - j)
            if mask & ~rep == 0:  # mask subset of rep
                zt[k] += 1
                mot[k] += (-1) ** (j - k)
        return z, mo, zt, mot

    rows = []
    for j in range(size):
        cand = [rows_for(r) for r in reps(j)]
        _require(all(c == cand[0] for c in cand[1:]), "coarse set rows are representative-free", j)
        rows.append(cand[0])

    def mk(idx):
        return RationalMatrix([r[idx] for r in rows])

    out = CoarseSetMatrices(
        ground_size=n,
        zeta=mk(0),
        moebius=mk(1),
        zeta_transpose=mk(2),
        moebius_transpose=mk(3),
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
    fixed representative of eta; the Moebius row sums mu over the same set.
    Each row is recomputed from a second, relabelled representative to
    confirm it does not depend on the choice.
    """
    _check_range("coarse partition matrices", "n", n, 1, 8)
    parts = enumerate_partitions(n)
    # index skeletons by first occurrence in the canonical partition order,
    # so the rows line up with skeleton_relation on the full lattice
    skels = []
    pos = {}
    for g in parts:
        s = skeleton(g)
        if s not in pos:
            pos[s] = len(skels)
            skels.append(s)
    _require(set(skels) == set(skeletons_of(n)), "skeletons of the partitions = skeletons of n", n)
    m = len(skels)
    by_skel = [[] for _ in range(m)]
    for g in parts:
        by_skel[pos[skeleton(g)]].append(g)
    reversal = {i: n + 1 - i for i in range(1, n + 1)}

    def rows_for(alpha):
        z = [0] * m
        mo = [0] * m
        for k in range(m):
            for gamma in by_skel[k]:
                if alpha.refines(gamma):
                    z[k] += 1
                    mo[k] += partition_moebius_closed_form(alpha, gamma)
        return z, mo

    rows = []
    for eta in skels:
        rep = _skeleton_representative(eta)
        rows.append(rows_for(rep))
        _require(rows[-1] == rows_for(_permuted(rep, reversal)),
                 "coarse partition rows are representative-free", eta)
    z, mo = (RationalMatrix([r[t] for r in rows]) for t in (0, 1))
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

    Requires H, H^{-1} and P compatible with the relation.  The coarse dual
    uses source-column sums; dividing by class sizes on the left and
    multiplying on the right yields a kernel verified to satisfy the coarse
    duality and to inherit (sub)stochasticity from the fine dual.
    """
    if tuple(rel.elements) != tuple(zp.poset.elements):
        raise ValueError("relation elements must match the poset index order")
    h = variant.h_matrix(zp)
    h_inv = h.inverse()
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

    q = h_dual(p, h)
    # source-column sums: the row-sum coarsening of the transpose
    q_res = check_compatibility(q.T, rel)
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
    if Kernel.of(q).is_stochastic:
        _require(q_coarse_hh.is_stochastic, "Q stochastic => coarse Q stochastic")
    elif Kernel.of(q).is_substochastic:
        _require(q_coarse_hh.is_substochastic, "Q substochastic => coarse Q substochastic")

    return CoarseDualityResult(
        rel=rel,
        q=q,
        p_coarse=p_coarse,
        h_coarse=coarse["H"],
        h_hat=tuple(h_hat),
        h_coarse_hat=h_coarse_hat,
        q_coarse=q_coarse,
        q_coarse_hh=q_coarse_hh,
    )
