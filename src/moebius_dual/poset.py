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

A product order (the subset lattices, the Cannings partial states and
``product_poset``) is instead read off its factors: its Moebius matrix is
the permuted Kronecker product of the factor inverses (Rota 1964), checked
through the factors at every size.  Its Z and M are ``_KronMatrix``, a
``RationalMatrix`` that keeps its factors: ``@`` by one of them past
``_MODE_STATES`` states is made one small factor at a time (Yates' fast
zeta/Moebius transform), so every caller multiplies the same way.  Any
other order has Z M = I checked at every size, summed over the comparable
pairs of Z only, so that it costs their number times n rather than n^3.

Every order the library builds (the subset and partition lattices, the
Cannings partial states and ``product_poset``) passes ``_check_states``,
the one state cap, before it is built.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameter, PartialOrderViolation, SizeOverflow, _require
from .rational import _INT64_MAX, RationalMatrix, _bound, _ints, _require_equal

__all__ = [
    "FinitePoset",
    "ZetaPair",
    "build_poset",
    "zeta_matrix",
    "moebius_matrix",
    "product_poset",
    "MAX_STATES",
]

MAX_STATES = 4096  # default state cap; MOEBIUS_DUAL_MAX_STATES overrides it
_MODE_STATES = 64  # past this many states a product pair multiplies by mode products
_BLOCK_BYTES = 1 << 20  # packed row bytes (or entries) per block of a blocked pair scan
_DECIMAL_EXPONENT = 14_284  # the largest n whose 2**n str() writes (4,300 digits by default)


def _check_states(states: int | None = None, *, power: int | None = None, shown: str | None = None):
    """The one state gate, called before a state space is built: raise
    SizeOverflow when ``states`` states, or at least 2**``power``, exceed the
    cap, MOEBIUS_DUAL_MAX_STATES or else MAX_STATES.  A power is decided on
    bit lengths, so that a huge one forms no huge integer; a count past
    2^``_DECIMAL_EXPONENT`` is written as a power of two, and ``shown``
    replaces the count."""
    raw = os.environ.get("MOEBIUS_DUAL_MAX_STATES")
    try:
        cap = MAX_STATES if raw is None else int(raw)
    except ValueError as exc:
        raise InvalidParameter(f"MOEBIUS_DUAL_MAX_STATES={raw!r} is not an integer") from exc
    if cap < 1:
        raise InvalidParameter(f"MOEBIUS_DUAL_MAX_STATES must be >= 1, got {cap}")
    if power is not None:
        if power < cap.bit_length():  # exactly when 2**power <= cap
            return
        states = 1 << power if power <= _DECIMAL_EXPONENT else f"2^{power}"
    elif states <= cap:
        return
    elif states.bit_length() > _DECIMAL_EXPONENT:  # a count str() may not write
        states = f">= 2^{states.bit_length() - 1}"
    raise SizeOverflow(f"{shown or states} states exceed the cap {cap}")


@dataclass(frozen=True)
class FinitePoset:
    """Elements in canonical index order plus the order relation as a bool matrix.

    ``matrix[i, j]`` is True iff ``elements[i] <= elements[j]``; the index
    order is a linear extension, so the matrix is upper-triangular.
    A ``product_poset`` records in the private ``_factors`` its leaf factor
    posets, the most significant first, and the Kronecker index of each
    element over them; it is no field, so ``dataclasses.replace`` drops it.
    """

    elements: tuple
    matrix: np.ndarray
    index: dict = field(compare=False, repr=False)
    _factors = None

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
    is taken as it is.  The Z and M of a product order (``_kron_pair``) each
    keep their own Kronecker factors, so a Z or M replaced through
    ``dataclasses.replace`` is never paired with stale factors.
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


def _pair_blocks(m: np.ndarray, width: int):
    """The nonzero entries of ``m`` in row-major order, as index arrays (ii, jj)
    over blocks of rows that gather at most about ``_BLOCK_BYTES`` at ``width``
    per entry (a row that gathers more is a block of its own)."""
    limit = max(1, _BLOCK_BYTES // max(width, 1))
    ends = np.count_nonzero(m, axis=1).cumsum()
    r0, done = 0, 0
    while r0 < len(ends):
        r1 = max(r0 + 1, int(np.searchsorted(ends, done + limit, side="right")))
        ii, jj = np.nonzero(m[r0:r1])
        yield ii + r0, jj
        r0, done = r1, int(ends[r1 - 1])


def _validate_order(labels, m: np.ndarray) -> None:
    """Raise PartialOrderViolation at the first failing axiom, in the order
    reflexivity, antisymmetry, transitivity, with its first row-major witness.
    The comparable pairs are taken over blocks of rows, in row order, so that
    their index arrays stay bounded."""
    diag = np.diagonal(m)
    if not diag.all():
        raise PartialOrderViolation("reflexivity", (labels[int(np.argmin(diag))],))
    # transitive iff up(j) is a subset of up(i) for every pair i <= j: the rows
    # packed into bytes, compared over blocks of pairs of bounded bytes
    up = np.packbits(m, axis=1)
    intransitive = None  # the first row i with a pair i <= j, up(j) not in up(i)
    for ii, jj in _pair_blocks(m, up.shape[1]):
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
    return _poset_from_matrix(labels, m)


def _poset_from_matrix(labels: tuple, m: np.ndarray) -> FinitePoset:
    """The poset of ``build_poset`` from its bool order matrix over ``labels``,
    validated at every size."""
    seen = set()
    for lab in labels:
        try:
            seen.add(lab)
        except TypeError:
            raise InvalidParameter(f"poset: labels must be hashable, got {lab!r}") from None
    if len(seen) != len(labels):
        raise InvalidParameter("poset: labels must be distinct")
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


def moebius_matrix(p: FinitePoset) -> ZetaPair:
    """Zeta matrix and its exact inverse; the pair reads the integer mu off
    the inverse when it is first asked for.  A ``product_poset`` is read off
    the checked pair of each distinct leaf of its ``_factors`` by ``_kron_pair``;
    any other order runs the column recursion, and Z M = I is checked."""
    if p._factors is None:
        return _checked_pair(p)
    leaves, perm = p._factors
    pairs = {id(f): _checked_pair(f) for f in {id(f): f for f in leaves}.values()}  # each leaf once
    return _kron_pair(p, tuple(pairs[id(f)] for f in leaves), perm)


def _checked_pair(p: FinitePoset) -> ZetaPair:
    """The zeta pair by the column recursion, with Z M = I checked."""
    pair = _moebius_pair(p)
    zm = RationalMatrix._wrap(_sparse_product(p.matrix, pair.moebius._num), pair.moebius._den)
    _require_equal(zm, RationalMatrix.identity(len(p)), "Z M = I")
    return pair


def _sparse_product(z: np.ndarray, y) -> np.ndarray:
    """z y for a bool array z and an integer array y: row i is the sum of the
    rows y[j] over the True z[i, j], gathered over blocks of about
    ``_BLOCK_BYTES`` entries; the bound of ``rational._product`` decides
    between int64 and Python ints."""
    y = _ints(y, _bound(y) * max(1, z.shape[1]))
    out = np.zeros((len(z), y.shape[1]), dtype=y.dtype)
    for ii, jj in _pair_blocks(z, y.shape[1]):
        rows, starts = np.unique(ii, return_index=True)  # where each row's pairs begin
        out[rows] = np.add.reduceat(y[jj], starts, axis=0)
    return out


def _moebius_pair(p: FinitePoset) -> ZetaPair:
    """The zeta pair by the column recursion, unchecked."""
    n = len(p)
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
    return ZetaPair(poset=p, zeta=zeta_matrix(p), moebius=RationalMatrix._wrap(num, 1))


def _kron_power(mats, perm) -> np.ndarray:
    """kron(mats[0], ..., mats[-1])[perm][:, perm] of square integer or bool
    arrays, in the narrowest of int8, int64 and Python ints that holds every
    product.  It is folded from the right, so that each step spreads a small
    factor over the large partial product, whose rows stay contiguous."""
    if mats and mats[0].dtype != bool:
        bound = math.prod(_bound(m) for m in mats)
        dtype = np.int8 if bound <= 127 else np.int64 if bound <= _INT64_MAX else object
        mats = [m.astype(dtype) for m in mats]
    out = reduce(lambda acc, m: (m[:, None, :, None] * acc[None, :, None, :]).reshape(
        (len(m) * len(acc),) * 2), reversed(mats), np.ones((1, 1), dtype=mats[0].dtype if mats else bool))
    return out.take(perm, axis=0).take(perm, axis=1)


def _kron_pair(poset: FinitePoset, factors: tuple, perm) -> ZetaPair:
    """The zeta pair of a product order, read off the checked zeta pairs
    ``factors`` of its factors, the most significant Kronecker digit first;
    element i of ``poset`` is element perm[i] of their product.

    With P the permutation matrix of ``perm``, Z = P kron(Z_1, ..., Z_k) P',
    and the Moebius function of a product is the product of the factors'
    (Rota 1964), so M = P kron(M_1, ..., M_k) P', with no recursion over the
    whole order.  One exact check runs at every size: the order matrix equals
    the permuted Kronecker power of the factor orders (``perm`` being a
    permutation).  With Z_t M_t = I on each factor, the mixed-product rule
    gives Z M = P kron(Z_t M_t) P' = I, which is not restated.  The factor
    orders need no validation here:

    - the claws (``lattices._claw``) are validated when they are cached;
    - ``product_poset`` validates its own order through ``build_poset``, and
      an order equal to a permuted Kronecker power is a partial order only
      if each factor of a non-empty product is one.

    Z and M are ``_KronMatrix`` over the order matrix and the Kronecker power
    of the factor Moebius matrices, and keep the factor matrices and ``perm``.
    """
    perm = np.asarray(perm, dtype=np.int64)
    size, labels = math.prod(len(f.poset) for f in factors), poset.elements
    _require(len(perm) == len(labels) == size and np.array_equal(np.sort(perm), np.arange(size)),
             "order = permuted Kronecker power", f"perm is no permutation of {size} indices")
    orders = [f.poset.matrix for f in factors]
    _require(np.array_equal(_kron_power(orders, perm), poset.matrix), "order = permuted Kronecker power",
             lambda: tuple(labels[i] for i in np.argwhere(_kron_power(orders, perm) != poset.matrix)[0]))
    # Z and M are integer matrices: the factors' mu are the column recursion's integers
    moebs = tuple(f.moebius._num for f in factors)
    return ZetaPair(poset, _KronMatrix(poset.matrix, tuple(f.zeta._num for f in factors), perm),
                    _KronMatrix(_kron_power(moebs, perm), moebs, perm))


class _KronMatrix(RationalMatrix):
    """The Z or M of a product order: the integer matrix A = P kron(A_1, ...,
    A_k) P', which also keeps its integer factors A_t and the index
    permutation ``_perm`` of P.  Past ``_MODE_STATES`` states ``A @ x`` and
    ``x @ A`` are made by ``_mode_product``, below it by the dense
    numerators.  ``.T`` is A' = P kron(A_1', ..., A_k') P', whose numerators
    and factors are read-only views of A's."""

    __slots__ = ("_factors", "_perm")

    def __init__(self, num, factors: tuple, perm):
        # num is the dense matrix, widened to int64 unless it holds Python ints
        self._num, self._den = num if num.dtype == object else num.astype(np.int64, copy=False), 1
        self._num.setflags(write=False)
        self._factors, self._perm = factors, perm

    @property
    def T(self) -> "_KronMatrix":
        return _KronMatrix(self._num.T, tuple(a.T for a in self._factors), self._perm)

    def __matmul__(self, other: RationalMatrix) -> RationalMatrix:
        if len(self._perm) <= _MODE_STATES or other.rows != self.cols:
            return super().__matmul__(other)
        return RationalMatrix._wrap(_mode_product(self._factors, self._perm, other._num), other._den)

    def __rmatmul__(self, other: RationalMatrix) -> RationalMatrix:
        if len(self._perm) <= _MODE_STATES or other.cols != self.rows:
            return RationalMatrix.__matmul__(other, self)
        # x A = (A' x')'
        num = _mode_product(tuple(a.T for a in self._factors), self._perm, other._num.T)
        return RationalMatrix._wrap(num.T.copy(), other._den)


def _mode_product(factors: tuple, perm, y):
    """A y for integer arrays y and A = P kron(A_1, ..., A_k) P' of the
    factors, one small product per Kronecker factor
    (Yates' fast zeta/Moebius transform): the rows of y are put in
    Kronecker order, and mode t adds a_ij times slice j into slice i of its
    axis for every nonzero a_ij of the factor.  Per mode the bound of
    ``rational._product`` (max|a| max|y| times the factor size) decides
    between int64 and Python ints."""
    y = y[np.argsort(perm)]
    size, cols = y.shape
    bound, pre = _bound(y), 1
    for a in factors:
        s = len(a)
        bound *= _bound(a) * s
        y = _ints(y, bound).reshape(pre, s, -1)
        out = np.zeros(y.shape, dtype=y.dtype)  # calloc'd: its pages are first touched below
        ii, jj = np.nonzero(a)
        for i, j, v in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
            if v == 1:
                out[:, i] += y[:, j]
            elif v == -1:
                out[:, i] -= y[:, j]
            else:
                out[:, i] += v * y[:, j]
        y, pre = out, pre * s
    return y.reshape(size, cols)[perm]


def product_poset(p1: FinitePoset, p2: FinitePoset) -> FinitePoset:
    """Cartesian product with the componentwise order; its ``_factors`` are
    the leaf factor posets of p1 and p2 and each element's Kronecker index."""
    _check_states(len(p1) * len(p2))
    labels = [(a, b) for a in p1.elements for b in p2.elements]

    def leq(x, y):
        return p1.leq(x[0], y[0]) and p2.leq(x[1], y[1])

    prod = build_poset(labels, leq)
    (f1, k1), (f2, k2) = (p._factors or ((p,), np.arange(len(p))) for p in (p1, p2))
    kron = (k1[[p1.index[x] for x, _ in prod.elements]] * len(p2)
            + k2[[p2.index[y] for _, y in prod.elements]])
    object.__setattr__(prod, "_factors", (f1 + f2, kron))
    return prod

