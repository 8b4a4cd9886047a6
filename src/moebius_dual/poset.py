"""Finite partially ordered spaces and their zeta/Moebius matrices.

The index order of a :class:`FinitePoset` is always a linear extension
(stable topological sort), which makes the zeta matrix unitriangular and
its exact inversion a back-substitution.  The Moebius matrix is computed
by the classical recursion

    mu(a, a) = 1,
    mu(a, b) = - sum of mu(a, c) over a <= c < b   for a < b,

and cross-checked against exact Gaussian elimination in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import PartialOrderViolation, SizeOverflow
from .rational import RationalMatrix, _require_equal

__all__ = [
    "FinitePoset",
    "ZetaPair",
    "build_poset",
    "zeta_matrix",
    "moebius_matrix",
    "product_poset",
    "DEFAULT_VALIDATION_BOUND",
    "DEFAULT_PRODUCT_CAP",
]

DEFAULT_VALIDATION_BOUND = 512
DEFAULT_PRODUCT_CAP = 4096


@dataclass(frozen=True)
class FinitePoset:
    """Elements in canonical index order plus the order relation as a bool matrix.

    ``matrix[i, j]`` is True iff ``elements[i] <= elements[j]``; the index
    order is a linear extension, so the matrix is upper-triangular.
    """

    elements: tuple
    matrix: np.ndarray
    index: dict = field(compare=False, repr=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b) -> bool:
        return bool(self.matrix[self.index[a], self.index[b]])

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self.matrix[i, j])

    def up_idx(self, i: int):
        """Indices j with element i <= element j."""
        return [j for j in range(len(self)) if self.matrix[i, j]]

    def down_idx(self, i: int):
        return [j for j in range(len(self)) if self.matrix[j, i]]

    def comparable_pairs(self):
        """All index pairs (i, j) with element i <= element j."""
        ii, jj = np.nonzero(self.matrix)
        return list(zip(ii.tolist(), jj.tolist()))


@dataclass(frozen=True)
class ZetaPair:
    """A poset together with its zeta matrix, Moebius matrix and mu values."""

    poset: FinitePoset
    zeta: RationalMatrix
    moebius: RationalMatrix
    mu: dict  # (label a, label b) with a <= b  ->  int

    def mu_value(self, a, b) -> int:
        return self.mu[(a, b)]

    @property
    def zeta_transpose(self) -> RationalMatrix:
        return self.zeta.T

    @property
    def moebius_transpose(self) -> RationalMatrix:
        return self.moebius.T


def _validate_order(labels, m: np.ndarray) -> None:
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


def _stable_toposort(m: np.ndarray):
    """Kahn's algorithm with ties broken by input position.

    Input already in a linear extension comes out unchanged.
    """
    import heapq

    n = m.shape[0]
    strict = m.copy()
    np.fill_diagonal(strict, False)
    remaining = strict.sum(axis=0).astype(int)
    ready = [i for i in range(n) if remaining[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in np.nonzero(strict[i])[0].tolist():
            remaining[j] -= 1
            if remaining[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != n:
        raise PartialOrderViolation("acyclicity", ())
    return order


def build_poset(labels: Sequence, leq: Callable, *, validate: bool | None = None) -> FinitePoset:
    """Build a poset with a canonical linear extension as index order.

    The index order sorts by (number of predecessors, input position); the
    predecessor count increases strictly along the order, so this is a
    stable topological sort.  Validation of the partial-order axioms is on
    by default for up to ``DEFAULT_VALIDATION_BOUND`` elements.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    n = len(labels)
    m = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            m[i, j] = bool(leq(a, b))
    if validate is None:
        validate = n <= DEFAULT_VALIDATION_BOUND
    if validate:
        _validate_order(labels, m)
    order = _stable_toposort(m)
    perm = np.array(order) if n else np.zeros(0, dtype=int)
    sorted_labels = tuple(labels[i] for i in order)
    sorted_m = m[np.ix_(perm, perm)]
    if np.tril(sorted_m, -1).any():
        # cannot happen for a valid partial order; guards unvalidated input
        raise PartialOrderViolation("linear-extension", ())
    index = {lab: i for i, lab in enumerate(sorted_labels)}
    return FinitePoset(elements=sorted_labels, matrix=sorted_m, index=index)


def zeta_matrix(p: FinitePoset) -> RationalMatrix:
    """0/1 incidence matrix of the order, upper-triangular with unit diagonal."""
    return RationalMatrix(p.matrix)


def moebius_matrix(p: FinitePoset, *, verify: bool = True) -> ZetaPair:
    """Zeta matrix, its exact inverse and the integer mu, via the recursion."""
    n = len(p)
    z = zeta_matrix(p)
    below = [np.flatnonzero(p.matrix[:, b]).tolist() for b in range(n)]
    mu_rows = []
    mu: dict = {}
    for i in range(n):
        row = [0] * n
        row[i] = 1
        for b in np.flatnonzero(p.matrix[i]).tolist():
            if b != i:
                # over c <= b, row[c] is mu(i, c) when i <= c < b and 0 otherwise
                row[b] = -sum(map(row.__getitem__, below[b]))
            mu[(p.elements[i], p.elements[b])] = row[b]
        mu_rows.append(row)
    moeb = RationalMatrix(mu_rows)
    if verify:
        _require_equal(z @ moeb, RationalMatrix.identity(n), "Z M = I")
    return ZetaPair(poset=p, zeta=z, moebius=moeb, mu=mu)


def product_poset(
    p1: FinitePoset, p2: FinitePoset, *, cap: int = DEFAULT_PRODUCT_CAP
) -> FinitePoset:
    """Cartesian product with the componentwise order."""
    if len(p1) * len(p2) > cap:
        raise SizeOverflow(f"product has {len(p1) * len(p2)} elements, cap {cap}")
    labels = [(a, b) for a in p1.elements for b in p2.elements]

    def leq(x, y):
        return p1.leq(x[0], y[0]) and p2.leq(x[1], y[1])

    return build_poset(labels, leq, validate=False)

