"""Concrete lattices: subsets and set partitions.

Subsets of {1..N} are encoded as bitmasks (bit i-1 set iff element i is
in the subset), indexed by (popcount, mask value).  Partitions are
canonicalized as restricted-growth strings (RGS) and indexed by
(number of atoms descending, RGS lexicographic); skeletons are the
descending multisets of atom sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import InvalidParameter, InvalidSkeleton, NotComparable, _check_range
from .poset import FinitePoset, ZetaPair, _check_states, _checked_pair, _kron_pair, _poset_from_matrix

__all__ = [
    "SubsetLattice",
    "Partition",
    "PartitionLattice",
    "Skeleton",
    "subset_lattice",
    "partition_lattice",
    "partition_moebius_closed_form",
    "skeleton",
    "skeletons_of",
    "bell_number",
]


def _subset_order(masks: np.ndarray) -> np.ndarray:
    """Bool matrix with [i, j] True iff masks[i] is a subset of masks[j], for
    an integer array of masks, held in the narrowest unsigned dtype that fits."""
    a = masks.astype(np.min_scalar_type(masks.max(initial=0)))
    return (a[:, None] & ~a[None, :]) == 0


def _integers(words, what: str, text: str) -> tuple:
    """The integers spelled by ``words``, read from ``text``, or InvalidParameter naming it."""
    try:
        return tuple(int(w) for w in words)
    except ValueError:
        raise InvalidParameter(f"{what}: cannot parse {text!r}") from None


# ---------------------------------------------------------------------------
# Subset lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetLattice:
    """All subsets of {1..N} ordered by inclusion, as bitmasks."""

    ground_size: int
    pair: ZetaPair

    @property
    def poset(self) -> FinitePoset:
        return self.pair.poset

    def mu_closed_form(self, j_mask: int, k_mask: int) -> int:
        if j_mask & ~k_mask:
            raise NotComparable(f"{j_mask:b} is not a subset of {k_mask:b}")
        return (-1) ** (k_mask.bit_count() - j_mask.bit_count())

    def mask_of(self, items) -> int:
        m = 0
        for i in items:
            if not 1 <= i <= self.ground_size:
                raise InvalidParameter(f"subset mask: items must lie in 1..{self.ground_size}, got {i}")
            m |= 1 << (i - 1)
        return m

    def label(self, mask: int) -> str:
        items = [str(i + 1) for i in range(self.ground_size) if mask >> i & 1]
        return "{" + " ".join(items) + "}"


@lru_cache(maxsize=None)
def _claw(t: int) -> ZetaPair:
    """The zeta pair of 0 (absent) below t incomparable types 1..t (at t = 1
    the chain 0 < 1), validated and checked once, when it is cached."""
    m = np.eye(t + 1, dtype=bool)
    m[0] = True
    return _checked_pair(_poset_from_matrix(tuple(range(t + 1)), m))


def _claw_power(n: int, t: int, label) -> tuple:
    """The N-fold product of the claw of T types: its (T+1)^N states, one type
    in 0..T per individual (0 absent), as an S x T int64 array of disjoint
    bitmasks (bit c of column t-1 set iff individual c+1 has type t), sorted
    by the number of individuals present, then the masks.  Returns the masks,
    each state's type code (its assignment in base T+1, individual 1 the
    lowest digit), which is its Kronecker index, and the zeta pair that
    ``_kron_pair`` reads off ``_claw(t)`` over the labels ``label(masks)``.
    The order is componentwise inclusion, ``_subset_order`` per type; the
    labels are distinct and the sort is a linear extension, so the poset is
    built as it is.  At T = 1 the states are the subsets of {1..N} and each
    code is its mask."""
    digits = np.arange((t + 1) ** n)[:, None] // (t + 1) ** np.arange(n) % (t + 1)
    masks = ((digits[:, None, :] == np.arange(1, t + 1)[:, None]) << np.arange(n)).sum(axis=2)
    # the states are enumerated in code order, so the sort permutation is their codes
    codes = np.lexsort((*masks.T[::-1], np.count_nonzero(digits, axis=1)))
    masks = masks[codes]
    labels = label(masks)
    poset = FinitePoset(elements=labels, matrix=reduce(np.logical_and, map(_subset_order, masks.T)),
                        index={lab: i for i, lab in enumerate(labels)})
    return masks, codes, _kron_pair(poset, (_claw(t),) * n, codes)


def subset_lattice(n: int) -> SubsetLattice:
    """Subset lattice of {1..n}, the n-fold product of the two-element chain
    0 < 1: ``_claw_power(n, 1)`` with each subset labelled by its mask, in
    (popcount, mask) order, its Moebius matrix read off the chain's checked
    pair and its order checked against the Kronecker power at every size.
    The state cap is checked first."""
    _check_range("subset lattice", "N", n, 0, math.inf)  # the state cap bounds N
    _check_states(power=n)
    return SubsetLattice(ground_size=n, pair=_claw_power(n, 1, lambda m: tuple(m[:, 0].tolist()))[2])


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A set partition of {1..n}, canonically encoded as an RGS tuple.

    ``rgs[i]`` is the atom label of element i+1; labels appear in first-use
    order starting from 0, which makes the encoding unique.
    """

    rgs: tuple

    def __post_init__(self):
        seen = -1
        for v in self.rgs:
            if v > seen + 1 or v < 0:
                raise InvalidParameter(f"partition: rgs must be a restricted-growth string, got {self.rgs}")
            seen = max(seen, v)

    @classmethod
    def from_atoms(cls, atoms, n: int | None = None) -> "Partition":
        atoms = [frozenset(a) for a in atoms]
        ground = set().union(*atoms) if atoms else set()
        if n is None:
            n = len(ground)
        if ground != set(range(1, n + 1)) or sum(len(a) for a in atoms) != n:
            raise InvalidParameter(f"partition: atoms must be disjoint, nonempty and cover {{1..{n}}}")
        if any(not a for a in atoms):
            raise InvalidParameter("partition: atoms must be nonempty, got an empty atom")
        owner = {}
        for a in atoms:
            for i in a:
                owner[i] = a
        relabel, rgs, nxt = {}, [], 0
        for i in range(1, n + 1):
            a = owner[i]
            if a not in relabel:
                relabel[a] = nxt
                nxt += 1
            rgs.append(relabel[a])
        return cls(tuple(rgs))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple(range(n)))

    @classmethod
    def one_block(cls, n: int) -> "Partition":
        return cls((0,) * n)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Accepts RGS digits ("0,0,1") or atom notation ("{1 2}{3}")."""
        text = text.strip()
        if text.startswith("{"):
            atoms = []
            for chunk in text.replace("}", "}|").split("|"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                inner = chunk.strip("{}").replace(",", " ").split()
                atoms.append(set(_integers(inner, "partition", text)))
            return cls.from_atoms(atoms)
        return cls(_integers(text.replace(",", " ").split(), "partition", text))

    @property
    def n(self) -> int:
        return len(self.rgs)

    @property
    def num_atoms(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    def atoms(self):
        out = [set() for _ in range(self.num_atoms)]
        for i, v in enumerate(self.rgs):
            out[v].add(i + 1)
        return [frozenset(a) for a in out]

    def refines(self, other: "Partition") -> bool:
        """True iff every atom of self is contained in an atom of other."""
        if self.n != other.n:
            raise InvalidParameter(f"refines: other must be a partition of {self.n} elements, got {other.n}")
        block_of = {}
        for a, b in zip(self.rgs, other.rgs):
            if a in block_of:
                if block_of[a] != b:
                    return False
            else:
                block_of[a] = b
        return True

    def __str__(self):
        return "".join(
            "{" + " ".join(map(str, sorted(a))) + "}"
            for a in sorted(self.atoms(), key=min)
        )


@dataclass(frozen=True)
class PartitionLattice:
    """All partitions of {1..n} under refinement; bottom is all-singletons."""

    ground_size: int
    pair: ZetaPair

    @property
    def poset(self) -> FinitePoset:
        return self.pair.poset


def _rgs(n: int) -> np.ndarray:
    """All restricted-growth strings of length n as one int8 Bell(n) x n
    array, in canonical order: atoms descending, then RGS lex.  The strings
    grow one column at a time, each row taking every label up to one past
    its largest, and are sorted once."""
    rgs = np.zeros((1, n), dtype=np.int8)
    top = np.full(1, -1, dtype=np.int8)  # the largest label of each row
    for k in range(n):
        grow = top + 2
        rows = np.repeat(np.arange(len(rgs)), grow)
        rgs = rgs[rows]
        rgs[:, k] = np.arange(len(rows)) - (np.cumsum(grow) - grow)[rows]
        top = np.maximum(top[rows], rgs[:, k])
    return rgs[np.lexsort((*rgs.T[::-1], -top))]


def enumerate_partitions(n: int):
    """All partitions of {1..n} in canonical order, atoms descending, RGS
    lex: the ``Partition`` view of the rows of ``_rgs(n)``."""
    _check_range("partitions", "n", n, 0, math.inf)
    return [Partition(tuple(r)) for r in _rgs(n).tolist()]


@lru_cache(maxsize=None, typed=True)  # so that bell_number(True) is not the cached Bell(1)
def bell_number(n: int) -> int:
    _check_range("bell number", "n", n, 0, math.inf)
    if n == 0:
        return 1
    return sum(math.comb(n - 1, k) * bell_number(k) for k in range(n))


def _pair_masks(rgs: np.ndarray) -> np.ndarray:
    """Per row of restricted-growth strings, the bitmask of the element pairs
    (i < j) in one block.  A partition refines another iff its pairs are a
    subset of the other's.  The C(n, 2) bits fit int64 up to n = 11, past
    any partition lattice that fits in memory."""
    j, i = np.tril_indices(rgs.shape[1], -1)  # the pairs (i, j) ordered by j, then i
    return ((rgs[:, i] == rgs[:, j]) << np.arange(len(i), dtype=np.int64)).sum(axis=1)


def partition_lattice(n: int) -> PartitionLattice:
    """All partitions of {1..n}, capped on Bell(n) >= 2^(n-1) first, so that a
    huge n computes no huge Bell number, then on the exact Bell(n)."""
    _check_range("partition lattice", "n", n, 1, math.inf)  # the state cap bounds n
    _check_states(power=n - 1, shown=f"Bell({n}) >= 2^{n - 1}")
    _check_states(bell_number(n))
    rgs = _rgs(n)
    parts = tuple(Partition(tuple(r)) for r in rgs.tolist())
    poset = _poset_from_matrix(parts, _subset_order(_pair_masks(rgs)))
    return PartitionLattice(ground_size=n, pair=_checked_pair(poset))


def partition_moebius_closed_form(alpha: Partition, beta: Partition) -> int:
    """mu(alpha, beta) = (-1)^([alpha]+[beta]) * prod over atoms B of beta of
    (number of alpha-atoms inside B - 1)!."""
    if not alpha.refines(beta):
        raise NotComparable(f"{alpha} does not refine {beta}")
    counts = {}
    seen = set()
    for a, b in zip(alpha.rgs, beta.rgs):
        if a not in seen:
            seen.add(a)
            counts[b] = counts.get(b, 0) + 1
    sign = (-1) ** (alpha.num_atoms + beta.num_atoms)
    prod = 1
    for c in counts.values():
        prod *= math.factorial(c - 1)
    return sign * prod


# ---------------------------------------------------------------------------
# Skeletons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Skeleton:
    """Multiset of atom sizes, stored sorted descending."""

    parts: tuple

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise InvalidSkeleton(f"parts must be >= 1: {self.parts}")
        if tuple(sorted(self.parts, reverse=True)) != self.parts:
            raise InvalidSkeleton(f"parts must be sorted descending: {self.parts}")

    @classmethod
    def of(cls, parts) -> "Skeleton":
        return cls(tuple(sorted(parts, reverse=True)))

    @classmethod
    def parse(cls, text: str) -> "Skeleton":
        return cls.of(_integers(text.strip().split("+"), "skeleton", text))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "+".join(map(str, self.parts))


def skeleton(alpha: Partition) -> Skeleton:
    return Skeleton.of(map(alpha.rgs.count, range(alpha.num_atoms)))


def skeletons_of(n: int):
    """All skeletons in E_N, ordered by (part count descending, parts lex)."""
    _check_range("skeletons", "n", n, 0, math.inf)
    out = []

    def gen(remaining, mx, acc):
        if remaining == 0:
            out.append(Skeleton(tuple(acc)))
            return
        for p in range(min(mx, remaining), 0, -1):
            acc.append(p)
            gen(remaining - p, p, acc)
            acc.pop()

    gen(n, n, [])
    out.sort(key=lambda s: (-s.part_count, s.parts))
    return out
