"""Finite partially ordered spaces and their zeta/Moebius matrices.

The index order of a :class:`FinitePoset` is always a linear extension
(stable topological sort), which makes the zeta matrix unitriangular and
its exact inversion a back-substitution.  The Moebius matrix is computed
by the classical recursion (Rota 1964)

    mu(a, a) = 1,
    mu(a, b) = - sum of mu(a, c) over a <= c < b   for a < b,

one column at a time: column b of M is e_b minus the sum of the columns c
strictly below b, taken over the rows below b, where alone they can be
nonzero.  Column b is bounded by the sum of the column maxima below it;
the columns stay int64 while that bound fits and switch to Python ints
once it does not, so the values are exact at any size.  The recursion is
cross-checked against exact Gaussian elimination in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter, PartialOrderViolation, SizeOverflow
from .rational import _INT64_MAX, RationalMatrix, _require_equal

__all__ = [
    "FinitePoset",
    "ZetaPair",
    "build_poset",
    "zeta_matrix",
    "moebius_matrix",
    "product_poset",
    "MAX_STATES",
]

MAX_STATES = 4096  # default state cap; ``cap=`` and MOEBIUS_DUAL_MAX_STATES override it
_SELF_CHECK_STATES = 256  # the library self-checks what it builds up to this many states
_BLOCK_BYTES = 1 << 20  # packed row bytes per block of the order validation


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
        return np.flatnonzero(self.matrix[i]).tolist()

    def down_idx(self, i: int):
        """Indices j with element j <= element i."""
        return np.flatnonzero(self.matrix[:, i]).tolist()

    def comparable_pairs(self):
        """All index pairs (i, j) with element i <= element j."""
        ii, jj = np.nonzero(self.matrix)
        return list(zip(ii.tolist(), jj.tolist()))


@dataclass(frozen=True, init=False)
class ZetaPair:
    """A poset together with its zeta matrix, Moebius matrix and mu values.

    ``mu`` is read off ``moebius`` on first use, so it follows the matrix
    through ``dataclasses.replace``; a ``mu`` dict given to the constructor
    is taken as it is.
    """

    poset: FinitePoset
    zeta: RationalMatrix
    moebius: RationalMatrix

    def __init__(self, poset: FinitePoset, zeta: RationalMatrix, moebius: RationalMatrix,
                 mu: dict | None = None):
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "moebius", moebius)
        if mu is not None:
            self.__dict__["mu"] = mu

    @cached_property
    def mu(self) -> dict:
        """(label a, label b) with a <= b  ->  mu(a, b), in row-major index order."""
        ii, jj = np.nonzero(self.poset.matrix)
        num, den = self.moebius._num[ii, jj].tolist(), self.moebius._den
        labels = self.poset.elements
        return {(labels[i], labels[j]): v if den == 1 else Fraction(v, den)
                for i, j, v in zip(ii.tolist(), jj.tolist(), num)}

    def mu_value(self, a, b) -> int:
        return self.mu[(a, b)]

    @property
    def zeta_transpose(self) -> RationalMatrix:
        return self.zeta.T

    @property
    def moebius_transpose(self) -> RationalMatrix:
        return self.moebius.T


def _row_blocks(weights: np.ndarray, limit: int):
    """Consecutive row ranges (r0, r1) whose weights add up to at most
    ``limit``; a row that alone weighs more is a block of its own."""
    ends = np.cumsum(weights)
    r0, done = 0, 0
    while r0 < len(ends):
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + limit, side="right")))
        yield r0, r1
        r0, done = r1, int(ends[r1 - 1])


def _validate_order(labels, m: np.ndarray) -> None:
    """Raise PartialOrderViolation at the first failing axiom, in the order
    reflexivity, antisymmetry, transitivity, with its first row-major witness.
    The comparable pairs are taken over blocks of rows, in row order, so that
    their index arrays stay bounded."""
    n = len(labels)
    diag = np.diagonal(m)
    if not diag.all():
        raise PartialOrderViolation("reflexivity", (labels[int(np.argmin(diag))],))
    # transitive iff up(j) is a subset of up(i) for every pair i <= j: the rows
    # packed into bytes, compared over blocks of pairs of bounded bytes
    up = np.packbits(m, axis=1)
    limit = max(1, _BLOCK_BYTES // max(up.shape[1], 1))
    intransitive = None  # the first row i with a pair i <= j, up(j) not in up(i)
    for r0, r1 in _row_blocks(m.sum(axis=1), limit):
        ii, jj = np.divmod(np.flatnonzero(m[r0:r1]), n)  # the pairs i <= j, row-major
        ii += r0
        both = m[jj, ii] & (ii != jj)
        if both.any():
            k = int(np.argmax(both))
            raise PartialOrderViolation("antisymmetry", (labels[ii[k]], labels[jj[k]]))
        if intransitive is None:
            bad = np.take(up, jj, axis=0) & ~np.take(up, ii, axis=0)
            if bad.any():
                intransitive = int(ii[int(np.argmax(bad.any(axis=1)))])
    if intransitive is not None:
        # its first k out of reach, then the first j in between
        i = intransitive
        k = int(np.argmax(m[m[i]].any(axis=0) & ~m[i]))
        j = int(np.argmax(m[i] & m[:, k]))
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


def build_poset(labels: Sequence, leq: Callable) -> FinitePoset:
    """Build a poset with a canonical linear extension as index order.

    The index order is Kahn's topological sort that always takes, among the
    elements whose predecessors are all placed, the one earliest in the
    input; so input already in a linear extension keeps its order.  For
    a < b < c and an incomparable d, input [a, b, c, d] gives (a, b, c, d)
    and [d, c, b, a] gives (d, a, b, c).  The labels must be distinct and
    hashable, and the partial-order axioms are validated at every size.
    """
    labels = tuple(labels)
    n = len(labels)
    m = np.array([[bool(leq(a, b)) for b in labels] for a in labels], dtype=bool).reshape(n, n)
    return _poset_from_matrix(labels, m, validate=True)


def _poset_from_matrix(labels: tuple, m: np.ndarray, *, validate: bool) -> FinitePoset:
    """The poset of ``build_poset`` from its bool order matrix over ``labels``."""
    seen = set()
    for lab in labels:
        try:
            seen.add(lab)
        except TypeError:
            raise InvalidParameter(f"poset: labels must be hashable, got {lab!r}") from None
    if len(seen) != len(labels):
        raise InvalidParameter("poset: labels must be distinct")
    if validate:
        _validate_order(labels, m)
    # Kahn's sort returns input already in a linear extension unchanged
    if np.tril(m, -1).any():
        order = _stable_toposort(m)
        labels = tuple(labels[i] for i in order)
        m = m[np.ix_(order, order)]
    index = {lab: i for i, lab in enumerate(labels)}
    return FinitePoset(elements=labels, matrix=m, index=index)


def zeta_matrix(p: FinitePoset) -> RationalMatrix:
    """0/1 incidence matrix of the order, upper-triangular with unit diagonal."""
    return RationalMatrix(p.matrix)


def moebius_matrix(p: FinitePoset, *, verify: bool = True) -> ZetaPair:
    """Zeta matrix and its exact inverse, via the recursion; the pair reads
    the integer mu off the inverse when it is first asked for."""
    n = len(p)
    z = zeta_matrix(p)
    # (b, c) for every c < b, grouped by b with c ascending: the index order
    # is a linear extension, so everything below b precedes it
    bs, cs = np.nonzero(p.matrix.T)
    strict = cs < bs
    bs, cs = bs[strict], cs[strict]
    ends = np.cumsum(np.bincount(bs, minlength=n)).tolist()
    num = np.eye(n, dtype=np.int64)
    colmax = [1] * n  # max |entry| of each column
    start = 0
    for b, end in enumerate(ends):
        if end > start:
            below = cs[start:end]
            if num.dtype != object and sum(map(colmax.__getitem__, below.tolist())) > _INT64_MAX:
                num = num.astype(object)
            # row a of the sum is the sum of mu(a, c) over a <= c < b, nonzero only for a < b
            col = -num.take(below, axis=0).take(below, axis=1).sum(axis=1)
            num[below, b] = col
            colmax[b] = max(1, *map(abs, col.tolist()))
        start = end
    moeb = RationalMatrix._wrap(num, 1)
    if verify:
        _require_equal(z @ moeb, RationalMatrix.identity(n), "Z M = I")
    return ZetaPair(poset=p, zeta=z, moebius=moeb)


def _library_pair(labels: tuple, m: np.ndarray) -> ZetaPair:
    """The zeta pair of an order the library built, with its axioms and Z M = I
    checked up to ``_SELF_CHECK_STATES`` states."""
    checked = len(labels) <= _SELF_CHECK_STATES
    return moebius_matrix(_poset_from_matrix(labels, m, validate=checked), verify=checked)


def product_poset(p1: FinitePoset, p2: FinitePoset) -> FinitePoset:
    """Cartesian product with the componentwise order."""
    size = len(p1) * len(p2)
    if size > MAX_STATES:
        raise SizeOverflow(f"product has {size} elements, cap {MAX_STATES}")
    labels = [(a, b) for a in p1.elements for b in p2.elements]

    def leq(x, y):
        return p1.leq(x[0], y[0]) and p2.leq(x[1], y[1])

    return build_poset(labels, leq)

