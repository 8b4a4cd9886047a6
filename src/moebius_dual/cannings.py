"""Set-valued exchangeable population models with T allele types.

An offspring law assigns to each parent i the set nu_i of its children;
the nu_i are disjoint and cover the population.  The forward chain tracks
the carrier sets of the T types, the backward chain tracks their ancestors,
and the two are dual through the transpose of the zeta matrix of the
componentwise subset order.  The states are the N-fold product of the claw
(absent below T incomparable types), enumerated by ``lattices._claw_power``;
the haploid model is the case T = 1, where that product is the subset
lattice of the population, built by the same path.  Coarse-graining by type
counts recovers the classical frequency chain and its dual, checked at every T
against one family of closed forms over type-count classes (hypergeometric at T = 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .coarse_graining import EquivalenceRelation, CoarseDualityResult, _coarsen_pair
from .duality import DualityVariant, Kernel, h_dual
from .errors import (
    InvalidOffspringLaw,
    InvalidParameter,
    NonRationalEntry,
    NotExchangeable,
    _check_range,
    _require,
)
from .lattices import _claw_power
from .poset import ZetaPair, _check_states
from .rational import _INT64_MAX, RationalMatrix, _ratio, _require_equal

__all__ = [
    "OffspringLaw",
    "MultiAllelicKernels",
    "MonteCarloResult",
    "wright_fisher_law",
    "moran_law",
    "hypergeometric_matrix",
    "hypergeometric_inverse",
    "coarse_forward_direct",
    "coarse_backward_moment_formula",
    "multiallelic_kernels",
    "coarsen_multiallelic",
    "monte_carlo_duality",
    "exact_coarse_duality_value",
    "MAX_LAW_GROUND",
    "MAX_WRIGHT_FISHER_GROUND",
    "MAX_MORAN_GROUND",
]

MAX_LAW_GROUND = 64  # the children sets are N-bit masks, held in at most uint64
MAX_WRIGHT_FISHER_GROUND = 6  # N^N atoms: 6^6 = 46,656, where 7^7 would be 823,543
MAX_MORAN_GROUND = 8  # 2^8 = 256 haploid states, the largest subset lattice the first release checked


@dataclass(frozen=True, eq=False)
class OffspringLaw:
    """Finite exact distribution over indexed partitions of {1..N}.

    Atom a is row a of ``children``: N disjoint bitmasks whose union is the
    full population, children[a, i] the set of children of parent i+1, in
    the narrowest unsigned dtype that holds an N-bit mask.  Its probability
    is weights[a] / den, for den the law's common denominator; the weights
    are int64 while den fits, Python integers past it.  Every construction
    is checked here, so every child has exactly one parent in every atom.
    """

    ground_size: int
    children: np.ndarray
    den: int
    weights: np.ndarray
    exchangeable: bool = field(init=False)

    def __post_init__(self):
        n = self.ground_size
        _check_range("offspring law", "N", n, 1, MAX_LAW_GROUND)
        den = _integer(self.den, "denominator")
        if den < 1:
            raise InvalidOffspringLaw(f"denominator {den} is not positive")
        nu, lengths = _mask_rows(n, self.children)
        weights = self.weights  # an integer array as it is, else entry by entry as Python ints
        if not (isinstance(weights, np.ndarray) and weights.dtype.kind in "iu" and weights.ndim == 1):
            weights = np.array([w if type(w) is int else _integer(w, f"atom {k}: weight")
                                for k, w in enumerate(np.array(weights, dtype=object).tolist())], dtype=object)
        if len(weights) != len(nu):
            raise InvalidOffspringLaw(f"{len(weights)} weights for {len(nu)} atoms")
        # every atom at once, with Python's bit semantics: the overlap is the
        # union over i of the bits that nu_i shares with nu_1..nu_{i-1}
        overlap, union = np.zeros((2, len(nu)), dtype=nu.dtype)
        for col in nu.T:
            overlap |= union & col
            union |= col
        full = (1 << n) - 1
        bad = (lengths != n) | (overlap != 0) | (union != full) | (weights <= 0)
        if bad.any():
            k = int(bad.argmax())
            if lengths[k] != n:
                why = f"{lengths[k]} children sets for N = {n}"
            elif overlap[k]:
                why = f"children sets overlap in {int(overlap[k]):b}"
            elif union[k] != full:
                why = f"children {int(union[k]):b} are not the population"
            else:
                why = f"probability {Fraction(int(weights[k]), den)} is not positive"
            raise InvalidOffspringLaw(f"atom {k}: {why}")
        values = weights.tolist()
        if sum(values) != den:
            raise InvalidOffspringLaw(f"total probability is {Fraction(sum(values), den)}, not 1")
        common = math.gcd(den, *values)  # so that den is the least common denominator
        object.__setattr__(self, "children", nu.astype(_uint(n)))
        object.__setattr__(self, "den", den // common)
        # every weight is at most den, so an integer array stays exact here
        object.__setattr__(self, "weights", (weights // common).astype(
            np.int64 if self.den <= _INT64_MAX else object))
        self.children.flags.writeable = self.weights.flags.writeable = False
        object.__setattr__(self, "exchangeable", self._check_exchangeable())

    @classmethod
    def build(cls, n: int, atoms) -> "OffspringLaw":
        """The law with the (nu, probability) pairs ``atoms``, nu a sequence of
        N masks and each probability an exact rational, as the matrix input
        gate takes it (no float or bool); repeated atoms add up."""
        nus, probs = [], []
        for k, (nu, p) in enumerate(atoms):
            nus.append(tuple(nu))
            try:
                probs.append(_ratio(p))
            except NonRationalEntry as exc:
                raise NonRationalEntry(f"atom {k}: {exc}") from None
        den = math.lcm(*(q for _, q in probs))
        return cls(n, nus, den, [p * (den // q) for p, q in probs])

    @property
    def support(self) -> tuple:
        """The atoms as (nu, probability) pairs, nu a tuple of N masks."""
        return tuple((tuple(nu), Fraction(w, self.den))
                     for nu, w in zip(self.children.tolist(), self.weights.tolist()))

    @cached_property
    def _size_weights(self):
        """The distinct offspring-size vectors (|nu_1|..|nu_N|) as the rows of one
        integer array, each with the summed weight of its atoms; formed once per law."""
        return _merged_atoms(np.bitwise_count(self.children), self.weights)

    def _check_exchangeable(self) -> bool:
        """Invariance of the law under relabelling the population.

        A permutation pi acts on an indexed partition by permuting both the
        parent index and the children sets: nu -> (pi(nu_{pi^{-1}(i)}))_i.
        The transposition of individuals 1 and 2 and the cycle
        1 -> 2 -> .. -> N -> 1 generate the full symmetric group, and
        invariance is closed under composition, so checking these two
        generators is an exact test.  This implies the exchangeability of
        the offspring-size vector used by every coarse-graining here.
        Integer weights over one denominator, summed over repeated atoms, are
        compared: a generator keeps the law when it maps the sorted distinct
        atoms, with their weights, onto themselves.
        """
        if (n := self.ground_size) < 2:  # the symmetric group of one individual is trivial
            return True
        nu, weights = _merged_atoms(self.children, self.weights)
        # swap individuals 1 and 2 inside every children set and as parents;
        # move every individual c to c + 1 (mod N) inside every set and as a parent
        swap = nu ^ ((nu ^ nu >> 1) & 1) * 3
        swap[:, :2] = swap[:, 1::-1]
        cycle = np.roll((nu << 1 | nu >> n - 1) & (1 << n) - 1, 1, axis=1)
        for image in (swap, cycle):
            order = np.lexsort(image.T[::-1])
            if not (np.array_equal(image[order], nu) and np.array_equal(weights[order], weights)):
                return False
        return True

    def require_exchangeable(self):
        if not self.exchangeable:
            raise NotExchangeable("offspring law is not permutation invariant")


def _integer(value, what: str) -> int:
    """``value`` as a Python int if it is an int or numpy integer and no bool;
    else InvalidOffspringLaw names ``what``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise InvalidOffspringLaw(f"{what} {value!r} is not an integer")


def _uint(bits: int):
    """The narrowest unsigned numpy dtype that holds ``bits`` bits."""
    return next(d for d in (np.uint8, np.uint16, np.uint32, np.uint64) if bits <= 8 * np.dtype(d).itemsize)


def _mask_rows(n: int, children):
    """``children`` as an atoms x N integer array on which numpy's bit
    operations agree with Python's, and the length of each atom.  An integer
    array is kept; a sequence of atoms becomes an array of Python integers,
    an atom of the wrong length a row of zeros."""
    if isinstance(children, np.ndarray) and children.ndim == 2 and children.dtype.kind in "iu":
        return children, np.full(len(children), children.shape[1])
    rows = [tuple(nu) for nu in children]
    lengths = np.array([len(nu) for nu in rows], dtype=np.intp)
    rows = [nu if len(nu) == n else (0,) * n for nu in rows]
    return np.array(rows, dtype=object).reshape(len(rows), n), lengths


def wright_fisher_law(n: int) -> OffspringLaw:
    """Each child picks a uniform parent independently; N^N atoms, atom a
    giving child c the parent of base-N digit c of a, most significant first."""
    _check_range("wright-fisher law", "N", n, 1, MAX_WRIGHT_FISHER_GROUND)
    # the atoms of the first c children, each followed by the N parents of child c
    children, eye = np.zeros((1, n), dtype=_uint(n)), np.eye(n, dtype=_uint(n))
    for c in range(n):
        children = (children[:, None] | eye << c).reshape(-1, n)
    law = OffspringLaw(n, children, n ** n, np.ones(n ** n, dtype=np.int64))
    _require(law.exchangeable, "Wright-Fisher law is exchangeable", n)
    return law


def moran_law(n: int) -> OffspringLaw:
    """A uniform pair (b, d), b != d: d dies, b keeps its slot and takes d's;
    the atoms are the pairs in lexicographic order."""
    _check_range("moran law", "N", n, 2, MAX_MORAN_GROUND)
    b, d = np.nonzero(~np.eye(n, dtype=bool))
    children = np.tile(1 << np.arange(n), (len(b), 1))
    atom = np.arange(len(b))
    children[atom, b] |= 1 << d
    children[atom, d] = 0
    law = OffspringLaw(n, children, n * (n - 1), np.ones(len(b), dtype=np.int64))
    _require(law.exchangeable, "Moran law is exchangeable", n)
    return law


# ---------------------------------------------------------------------------
# Closed forms of the coarse chains; the haploid ones are their T = 1 case
# ---------------------------------------------------------------------------


def _multinomial_class_sizes(n: int, classes):
    """#states(evec) = N! / ((N - sum e)! prod_t e_t!) of each class, as Python ints, and their lcm."""
    f = [math.factorial(k) for k in range(n + 1)]
    sizes = np.array([f[n] // f[n - sum(e)] // math.prod(f[k] for k in e) for e in classes], dtype=object)
    return sizes, math.lcm(*sizes.tolist())


def _product_binomial(n: int, classes):
    """H(dvec, evec) = prod_t C(d_t, e_t) / #states(evec), and its inverse
    #states(dvec) prod_t (-1)^(d_t - e_t) C(d_t, e_t), which holds as the classes
    form a down-set of N^T.  By Vandermonde each product is at most C(N, N // 2)
    < 2^63, so one int64 Pascal table gives them; the signs go by parity."""
    counts = np.array(classes, dtype=np.intp).reshape(len(classes), -1)
    pascal = np.array([[math.comb(i, j) for j in range(n + 1)] for i in range(n + 1)], dtype=np.int64)
    binom, total = pascal[counts[:, None], counts].prod(axis=2), counts.sum(axis=1)
    sizes, common = _multinomial_class_sizes(n, classes)
    return (RationalMatrix._wrap(binom * (common // sizes), common), RationalMatrix._wrap(
        np.where((total[:, None] - total) & 1, -binom, binom) * sizes[:, None], 1))


def _block_forward(law: OffspringLaw, classes) -> RationalMatrix:
    """P(dvec, evec) = probability that the first d_1 parents have e_1
    children, the next d_2 parents e_2 children, and so on.

    The children of the first f parents at a class's block ends
    f_1 <= .. <= f_T are the prefix sums of a size vector's type counts e.
    These code e in the combinatorial number system, sum over t of
    C(f_t + t - 1, t), below the number of vectors with sum <= N, so one
    lookup finds e's class; one exact np.add.at sums the weights.
    """
    sizes, weights = law._size_weights
    n, size = law.ground_size, len(classes)
    ends = np.cumsum(np.array(classes, dtype=np.intp).reshape(size, -1), axis=1)
    t = ends.shape[1]
    rank = np.array([[math.comb(f + r, r + 1) for r in range(t)] for f in range(n + 1)], dtype=np.intp)
    column = np.zeros(math.comb(n + t, t), dtype=np.intp)
    column[rank[ends, np.arange(t)].sum(axis=1)] = np.arange(size)
    cum = np.zeros((len(sizes), n + 1), dtype=np.intp)  # children of the first f parents
    np.cumsum(sizes, axis=1, out=cum[:, 1:])
    cell = np.arange(size) * size + column[rank[cum[:, ends], np.arange(t)].sum(axis=2)]
    counts = np.zeros(size * size, dtype=weights.dtype)  # every entry is at most its row sum, D
    np.add.at(counts, cell, weights[:, None])
    return RationalMatrix._wrap(counts.reshape(size, size), law.den)


def _block_backward(law: OffspringLaw, classes) -> RationalMatrix:
    """Q(dvec, evec) = [#states(evec)/#states(dvec)] E[prod over t of the sum over
    (l_r >= 1) with sum d_t of prod_r C(|nu_r|, l_r)], r in block t of evec: the
    e_t parents after the first e_1 + .. + e_{t-1}.  That sum is the coefficient
    of x^{d_t} in prod_r ((1+x)^{|nu_r|} - 1), so one recurrence from each block
    start gives its blocks, a row per size vector, all int64 (Vandermonde: at most
    C(N, N // 2)); D C(N, N // 2) bounds the weighted sums, as in ``rational._product``."""
    (sizes, weights), n = law._size_weights, law.ground_size
    weights = weights.astype(np.int64 if law.den * math.comb(n, n // 2) <= _INT64_MAX else object)
    counts = np.array(classes, dtype=np.intp).reshape(len(classes), -1)
    starts = np.cumsum(counts, axis=1) - counts
    # shift[s] multiplies a row of coefficients by (1+x)^s - 1, dropping the terms past x^N
    factor = np.array([[math.comb(s, l) if l else 0 for l in range(n + 1)] for s in range(n + 1)])
    d = np.arange(n + 1)
    shift, blocks = factor[:, (d - d[:, None]).clip(0)], {}  # blocks[start, length]
    for s in set(starts.ravel().tolist()):
        blocks[s, 0] = np.eye(1, n + 1, dtype=np.int64).repeat(len(sizes), axis=0)  # the empty product, 1
        for r in range(s, s + int(counts[starts == s].max())):
            blocks[s, r - s + 1] = (blocks[s, r - s][:, None] @ shift[sizes[:, r]])[:, 0]
    moments = np.zeros((len(classes), len(classes)), dtype=object)  # D E[...] at (dvec, evec)
    for e, spans in enumerate(zip(starts.tolist(), counts.tolist())):
        moments[:, e] = weights @ math.prod(blocks[b][:, d_t] for b, d_t in zip(zip(*spans), counts.T))
    states, common = _multinomial_class_sizes(n, classes)
    return RationalMatrix._wrap(moments * states * (common // states)[:, None], common * law.den)


def hypergeometric_matrix(n: int) -> RationalMatrix:
    """H(i, j) = C(i,j)/C(N,j) for j <= i, on {0..N}."""
    _check_range("hypergeometric matrix", "N", n, 0, MAX_LAW_GROUND)
    return _product_binomial(n, [(i,) for i in range(n + 1)])[0]


def hypergeometric_inverse(n: int) -> RationalMatrix:
    """Closed-form inverse: (-1)^{i-j} C(i,j) C(N,i) for j <= i."""
    _check_range("hypergeometric matrix", "N", n, 0, MAX_LAW_GROUND)
    return _product_binomial(n, [(i,) for i in range(n + 1)])[1]


def coarse_forward_direct(law: OffspringLaw) -> RationalMatrix:
    """P(i, j) = probability that the first i parents have j children in all."""
    law.require_exchangeable()
    return _block_forward(law, [(i,) for i in range(law.ground_size + 1)])


def coarse_backward_moment_formula(law: OffspringLaw) -> RationalMatrix:
    """Q(i, j) = [C(N,j)/C(N,i)] * sum over (l_1..l_j) >= 1 with sum i of
    E[prod_r C(|nu_r|, l_r)]."""
    law.require_exchangeable()
    return _block_backward(law, [(i,) for i in range(law.ground_size + 1)])


# ---------------------------------------------------------------------------
# Forward and backward kernels on type assignments
# ---------------------------------------------------------------------------


# (atom, state) pairs counted at once, which bounds the per-atom tables and the
# transient arrays of a small kernel (2^15 beat 2^13 on Wright-Fisher at N 5
# and 6); a block of a large kernel covers at least as many pairs as its
# bincount has bins (states^2), so zeroing the bins never dominates
_BLOCK_PAIRS = 1 << 15


def _merged_atoms(nu, weights):
    """The distinct rows of ``nu`` in lexicographic order, each with the sum
    of the weights of the atoms that list it."""
    order = np.lexsort(nu.T[::-1])
    nu, weights = nu[order], weights[order]
    starts = np.flatnonzero(np.concatenate([[True], (nu[1:] != nu[:-1]).any(axis=1)]))
    return nu[starts], np.add.reduceat(weights, starts)


def _atom_tables(nu, place):
    """The two per-atom step maps of the set-valued chains, for every atom a
    (a row of ``nu``, from ``OffspringLaw.children``) and every subset J of
    the population, one row per J, so that every numpy pass runs along the
    atoms:

    fwd[J, a] = place[union of nu_i over i in J], the code of the children
    of J, in the dtype of ``place``, and anc[J, a] = the parents of the
    members of J (the ancestors of J), in the dtype of ``nu``.

    The law's construction checks that the nu_i are disjoint and cover the
    population, so each child has exactly one parent: the code of a union
    of nu_i is the sum of their codes, any set of parents whose children
    cover J contains anc[J, a], and the children of anc[J, a] cover J.
    """
    cols, n = np.ascontiguousarray(nu.T), nu.shape[1]  # one row per parent
    # parent[c, a] = the one-bit mask of the parent of child c
    parent, bits = np.zeros_like(cols), np.arange(n, dtype=nu.dtype)[:, None]
    for i, col in enumerate(cols):
        parent |= ((col >> bits) & 1) << i
    # adding element i to every J below 2^i, by doubling the rows
    step = place[cols]
    fwd = np.zeros((1 << n, len(nu)), dtype=place.dtype)
    anc = np.zeros((1 << n, len(nu)), dtype=nu.dtype)
    for i in range(n):
        lo = 1 << i
        np.add(fwd[:lo], step[i], out=fwd[lo:2 * lo])
        np.bitwise_or(anc[:lo], parent[i], out=anc[lo:2 * lo])
    return fwd, anc


def _place(n: int, t: int) -> np.ndarray:
    """place[J] = sum over c in J of (T+1)^c, in the narrowest dtype of every
    type code (a type assignment read in base T+1): sum over t of t place[mask_t]."""
    place = np.zeros(1 << n, dtype=_uint(((t + 1) ** n - 1).bit_length()))
    for c in range(n):
        place[1 << c:2 << c] = place[:1 << c] + (t + 1) ** c
    return place


def _kernel_counts(law: OffspringLaw, masks, codes):
    """D P(J, K) and D Q(J, K) on the states of ``_claw_power``: rows of T
    disjoint masks ``masks``, with the type codes ``codes``, for D the law's
    common denominator, as exact integer arrays.

    A state's type code is its type assignment read in base T+1, so the code
    of each (atom, state) image is a sum of table entries, one per type; the
    tables are built per block of atoms.  Q drops the pairs whose per-type
    ancestor sets overlap, which one type never has.  The pairs of the atoms
    sharing one integer weight are counted with np.bincount and the counts
    are multiplied by that weight in exact integers.  With fewer atoms than
    states each image code is put in state order; else the cells are counted
    by code, rows and columns, and put in state order once (at T = 1 the
    codes are the masks, so the tables' rows are the count rows).
    """
    n, nu, weights = law.ground_size, law.children, law.weights
    size, t = masks.shape
    place, index, few = _place(n, t), np.zeros(size, dtype=np.intp), len(nu) < size
    index[codes] = np.arange(size)
    by_row = masks if few else masks[index]  # the states in the order of the count rows
    direct = t == 1 and not few
    rows, block, num = np.arange(size)[:, None] * size, max(_BLOCK_PAIRS // size, size), [0, 0]
    for w in np.unique(weights):
        chosen, cnt = np.flatnonzero(weights == w), [0, 0]
        for lo in range(0, len(chosen), block):
            f, g = _atom_tables(nu[chosen[lo:lo + block]], place)
            p_code, q_code, seen, disjoint = (f, g, 0, True) if direct else (0, 0, 0, True)
            for typ, mask in enumerate(() if direct else by_row.T, start=1):
                par = g[mask]
                p_code = f[mask] * typ + p_code
                q_code = place[par] * typ + q_code
                if t > 1:
                    disjoint = disjoint & (par & seen == 0)
                    seen = seen | par
            if few:  # an overlapping pair's code may lie past the states; its cell is dropped
                p_code, q_code = index[p_code], index.take(q_code, mode="clip")
            q_cells = rows + q_code
            cells = (rows + p_code).ravel(), q_cells[disjoint] if t > 1 else q_cells.ravel()
            cnt = [c + np.bincount(x, minlength=size * size) for c, x in zip(cnt, cells)]
        # every entry is at most its row sum, which is D
        num = [x + c.astype(weights.dtype, copy=False) * w for x, c in zip(num, cnt)]
    p_num, q_num = (x.reshape(size, size)[() if few else np.ix_(codes, codes)] for x in num)
    return law.den, p_num, q_num


@dataclass(frozen=True)
class MultiAllelicKernels:
    """Forward chain on covering type assignments, backward on partial ones.

    States are T-tuples of disjoint bitmasks.  The forward state space
    requires the masks to cover the population; the backward (ancestral)
    space does not, and the backward kernel may lose mass when one parent's
    children straddle two type classes.  At T = 1 the states are the
    subsets of the population, the only covering state is the full set and
    the backward kernel loses no mass.
    """

    law: OffspringLaw
    types: int
    pair: ZetaPair  # zeta/Moebius of the partial-assignment poset
    covering: tuple  # indices (into pair.poset.elements) of covering states
    p: Kernel  # forward kernel restricted to covering states, stochastic
    p_ext: Kernel  # forward kernel on the whole partial space, stochastic
    q: Kernel  # backward kernel on the partial space, substochastic
    defect: tuple  # per-state mass loss of q


def multiallelic_kernels(law: OffspringLaw, t: int) -> MultiAllelicKernels:
    """Exact forward and backward kernels for T >= 1 allele types, with the
    transpose-zeta duality Z' Q' = P Z' verified: the counted Q must equal
    h_dual's (M' P Z')', which checks Z' M' = I first, at every size.
    T = 1 is the haploid model.  The states, their masks and type codes and
    the zeta pair come from ``lattices._claw_power``, each state labelled by
    its T-tuple of masks; past the mode-product crossover the pair's
    products are made factor by factor by ``@``.  The (T+1)^N partial
    states are checked against the state cap first."""
    _check_range("population model", "T", t, 1, math.inf)  # the state cap below bounds T
    n = law.ground_size
    _check_states((t + 1) ** n)
    masks, codes, pair = _claw_power(n, t, lambda masks: tuple(map(tuple, masks.tolist())))
    # sorted by the number of individuals present, the T^N covering states come last
    covering = tuple(range(len(codes) - t ** n, len(codes)))

    den, p_num, q_num = _kernel_counts(law, masks, codes)
    p_ext = RationalMatrix._wrap(p_num, den)
    q = RationalMatrix._wrap(q_num, den)
    p_ext_k = Kernel.of(p_ext)
    q_k = Kernel.of(q)
    _require(p_ext_k.is_stochastic, "P stochastic")
    _require(q_k.is_substochastic, "Q substochastic")
    defect = tuple(Fraction(1) - s for s in q.row_sums())

    # forward kernel restricted to covering states is stochastic on them
    p_k = Kernel.of(p_ext[covering, :][:, covering])
    _require(p_k.is_stochastic, "P on covering states stochastic")
    dual = h_dual(p_ext_k, *DualityVariant.ZETA_TRANSPOSE.h_pair(pair))
    # the witness is the first pair of states (J, K) where Q(J, K) is off
    _require(q == dual, "Z' Q' = P Z'",
             lambda: tuple(pair.poset.elements[i] for i in q._first_difference(dual)))

    return MultiAllelicKernels(
        law=law,
        types=t,
        pair=pair,
        covering=covering,
        p=p_k,
        p_ext=p_ext_k,
        q=q_k,
        defect=defect,
    )


def coarsen_multiallelic(ma: MultiAllelicKernels) -> CoarseDualityResult:
    """Type-count coarse-graining of the multi-allelic dual pair; the classes
    of the result's ``rel`` are the type-count vectors, in coarse index order.

    The fine dual is the builder's Q, which the builder has checked against
    h_dual, so no second dual is formed.  Verifies the multinomial class
    sizes, the product-binomial closed form of the transformed coarse H and
    of its inverse, the direct forward formula
    P(dvec, evec) = prob(type-t parents have e_t children for every t)
    and the backward moment formula of the coarse Q, at every T.  At T = 1
    these are the binomial class sizes, the hypergeometric matrix and its
    inverse, the classical frequency chain and its dual; the haploid model
    further checks the stochasticity of Q and of the coarse ancestral chain.
    """
    law = ma.law
    law.require_exchangeable()
    n = law.ground_size
    poset = ma.pair.poset
    rel = EquivalenceRelation.from_function(
        poset.elements, lambda s: tuple(m.bit_count() for m in s)
    )
    res = _coarsen_pair(ma.p_ext, ma.q, *DualityVariant.ZETA_TRANSPOSE.h_pair(ma.pair), rel)

    classes = rel.class_labels
    sizes = tuple(_multinomial_class_sizes(n, classes)[0].tolist())
    _require(res.h_hat == sizes, "class sizes are multinomial",
             lambda: next(c for c, h, s in zip(classes, res.h_hat, sizes) if h != s))
    h, h_inv = _product_binomial(n, classes)
    _require_equal(res.h_coarse_hat, h, "coarse H = product-binomial form")
    _require_equal(res.p_coarse.matrix, _block_forward(law, classes), "coarse P = block forward form")
    # the pipeline has checked that the coarse P and Q inherit (sub)stochasticity
    if ma.types == 1:
        _require(ma.q.is_stochastic and res.q_coarse_hh.is_stochastic, "haploid Q and coarse Q stochastic")
    _require_equal(res.h_coarse_hat @ h_inv, RationalMatrix.identity(len(classes)),
                   "coarse H hypergeometric inverse = I")
    _require_equal(res.q_coarse_hh.matrix, _block_backward(law, classes), "coarse Q = backward moment formula")
    return res


# ---------------------------------------------------------------------------
# Monte Carlo duality estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloResult:
    steps: int
    reps: int
    seed: int
    forward_mean: float
    forward_stderr: float
    backward_mean: float
    backward_stderr: float


def _summary(counts, values, reps):
    """Exact mean and sample standard error from terminal-state tallies."""
    mean = sum((c * values[s] for s, c in counts.items()), Fraction(0)) / reps
    if reps > 1:
        var = sum(
            (c * (values[s] - mean) ** 2 for s, c in counts.items()), Fraction(0)
        ) / (reps - 1)
    else:
        var = Fraction(0)
    return float(mean), math.sqrt(float(var) / reps)


# CPython's random.Random is the Mersenne Twister MT19937 (Matsumoto and
# Nishimura, ACM TOMACS 1998): N words of state, seeded by init_by_array from
# the 32-bit words of abs(seed) and renewed N words at a time by a twist.
# The first N - M words of a fresh generator depend only on its seeded
# state, so the estimator computes them for a block of seeds at once.
_MT_N, _MT_M = 624, 397
# the words of one lane block's table, about 1 MiB
_TABLE_WORDS = 1 << 18
# the largest D whose draw-to-atom lookup, D intp entries, is no larger than that table
_LOOKUP_DEN = _TABLE_WORDS * 4 // np.dtype(np.intp).itemsize


def _init_genrand(s: int):
    """The state of init_genrand(s)."""
    mt = [s]
    for i in range(1, _MT_N):
        mt.append((1812433253 * (mt[-1] ^ mt[-1] >> 30) + i) & 0xFFFFFFFF)
    return np.array(mt, dtype=np.uint32)


_MT_START = _init_genrand(19650218)  # the state init_by_array starts from


def _seed_keys(seeds: range):
    """The init_by_array key of each seed s: the number of 32-bit words of
    abs(s), at least one, and those words, least significant first, as the
    columns of a uint32 array.  Words past N - 1 are left out: a key that
    long is not run here."""
    if max(abs(seeds[0]), abs(seeds[-1])) <= _INT64_MAX:
        v = np.abs(np.arange(seeds.start, seeds.stop, seeds.step, dtype=np.int64)).astype(np.uint64)
        return np.where(v >> 32 != 0, 2, 1), np.stack([v & 0xFFFFFFFF, v >> 32]).astype(np.uint32)
    v = [abs(s) for s in seeds]
    lengths = np.array([max(1, -(-x.bit_length() // 32)) for x in v])
    width = min(int(lengths.max()), _MT_N - 1)
    return lengths, np.array([[x >> 32 * w & 0xFFFFFFFF for x in v] for w in range(width)],
                             dtype=np.uint32)


def _mt_words(key, out) -> None:
    """The first B words of random.Random(s) for the seeds whose keys are the
    columns of ``key`` (an L x lanes uint32 array, 1 <= L < N): word r of
    lane c goes to out[r, c], for ``out`` a (B+1) x lanes uint32 array and
    B <= N - M.

    init_by_array runs across the lanes: its first loop once to reach its
    end, then again alongside its second loop, which reads its values in
    order, so only the state words that the B words read are stored.  Word
    r is mt[M + r] ^ twist(mt[r], mt[r + 1]), tempered.  mt[0] is
    0x80000000, but mt[1] is set last, so words 0 and 1 are twisted with
    mt[1] = 0 and take its bits at the end.  Row B holds mt[B], then serves
    as scratch.
    """
    b, size = out.shape[0] - 1, len(key)
    upper, lower, mag = np.uint32(0x80000000), np.uint32(0x7FFFFFFF), np.uint32(0x9908B0DF)
    mult1, mult2 = np.uint32(1664525), np.uint32(1566083941)
    key = key + np.arange(size, dtype=np.uint32)[:, None]  # init_key[j] + j

    def scramble(prev, mult, new):
        np.right_shift(prev, 30, out=new)
        new ^= prev
        new *= mult

    # first loop: mt[i] = (mt[i] ^ scramble(mt[i - 1])) + key[j] + j, for
    # i = 1..N-1 and j = i - 1 mod L, then once more at i = 1 after mt[0] = mt[N - 1]
    prev, new = np.full_like(key[0], _MT_START[0]), np.empty_like(key[0])
    for i in range(1, _MT_N):
        scramble(prev, mult1, new)
        new ^= _MT_START[i]
        new += key[(i - 1) % size]
        prev, new = new, prev
        if i == 1:
            first = prev.copy()
    last = np.empty_like(new)
    scramble(prev, mult1, last)
    last ^= first
    last += key[(_MT_N - 1) % size]
    # second loop: mt[i] = (mt[i] ^ scramble(mt[i - 1])) - i, for i = 2..N-1,
    # then once more at i = 1 after mt[0] = mt[N - 1]; row 0 of ``p`` reruns
    # the first loop from its mt[1], row 1 is the second loop, one scramble for both
    out[0], out[1] = upper, 0
    p, t = np.stack([first, last]), np.empty((2, len(first)), dtype=np.uint32)
    mult = np.repeat(np.array([[mult1], [mult2]]), len(first), axis=1)
    (p1, p2), (t1, t2) = p, t
    for i in range(2, _MT_N):
        scramble(p, mult, t)
        t1 ^= _MT_START[i]
        t1 += key[(i - 1) % size]
        t2 ^= t1
        t2 -= np.uint32(i)
        p, p1, p2, t, t1, t2 = t, t1, t2, p, p1, p2
        if i <= b:
            out[i] = p2
        if 0 <= i - _MT_M < b:
            row = out[i - _MT_M]  # mt[r], and mt[r + 1] below it; t2 is free
            np.bitwise_and(out[i - _MT_M + 1], lower, out=t2)
            row &= upper
            row |= t2
            np.bitwise_and(row, 1, out=t2)
            t2 *= mag
            row >>= 1
            row ^= t2
            row ^= p2
    scramble(p2, mult2, t2)
    t2 ^= last
    t2 -= np.uint32(1)  # mt[1]
    np.bitwise_and(t2, lower, out=p2)
    p2 >>= 1
    out[0] ^= p2
    np.bitwise_and(t2, 1, out=p2)
    p2 *= mag
    out[0] ^= p2
    if b > 1:
        np.bitwise_and(t2, upper, out=p2)
        p2 >>= 1
        out[1] ^= p2
    scratch = out[b]
    for y in out[:b]:
        np.right_shift(y, 11, out=scratch)
        y ^= scratch
        np.left_shift(y, 7, out=scratch)
        scratch &= np.uint32(0x9D2C5680)
        y ^= scratch
        np.left_shift(y, 15, out=scratch)
        scratch &= np.uint32(0xEFC60000)
        y ^= scratch
        np.right_shift(y, 18, out=scratch)
        y ^= scratch


def _tries(seeds: range, depth: int, k: int):
    """The getrandbits(k) tries that the first ``depth`` words of
    random.Random(s) make, for a block of seeds s, as a tries x w x lanes
    uint32 view of the word table; and the mask of the lanes that hold them,
    which leaves out keys too long for ``_mt_words`` and depths past N - M.
    getrandbits(k) reads w = ceil(k/32) words, least significant first, and
    shifts the last right by 32w - k, which is done here in place."""
    table = np.empty((depth + 1, len(seeds)), dtype=np.uint32)
    lengths, key = _seed_keys(seeds)
    fits = (lengths < _MT_N) & (depth <= _MT_N - _MT_M)
    # the lanes of one key length form runs, which are views of the table
    cuts = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(seeds)]
    for lo, hi in zip(cuts, cuts[1:]):
        if fits[lo]:
            _mt_words(key[:lengths[lo], lo:hi], table[:, lo:hi])
    w = -(-k // 32)
    tries = table[:depth // w * w].reshape(-1, w, len(seeds))
    tries[:, -1] >>= 32 * w - k
    return tries, fits


def _table_depth(steps: int, den: int, k: int) -> int:
    """Words per lane for ``steps`` draws of getrandbits(k) below ``den``:
    the words of the mean number of tries plus three standard deviations
    plus two, within one draw's words and N - M.  A lane that needs more
    draws in CPython, which stays a rare case."""
    w, span = -(-k // 32), 1 << k
    tries = -(-steps * span // den) + 3 * (math.isqrt(steps * (span - den) * span) // den + 1) + 2
    return max(w, min(_MT_N - _MT_M, w * tries))


def _draw_dtype(k: int):
    """The narrowest unsigned dtype that holds getrandbits(k), Python
    integers past 64 bits."""
    return np.uint32 if k <= 32 else np.uint64 if k <= 64 else object


def _draws(seeds: range, steps: int, den: int, depth: int):
    """``steps`` draws of randrange(den) from random.Random(s) for each seed
    s of a lane block, one column per seed, in the dtype of ``_draw_dtype``.
    randrange(den) takes getrandbits(k), for k = den.bit_length(), until a
    value falls below den, so a lane's draws are its first ``steps`` tries
    below den; only those are joined from their words.  A lane whose first
    ``depth`` words hold fewer, or none, draws in its own random.Random(s)."""
    k = den.bit_length()
    tries, full = _tries(seeds, depth, k)
    dtype, w = _draw_dtype(k), tries.shape[1]
    words = [den >> 32 * j & 0xFFFFFFFF for j in range(w)]
    out = np.empty((steps, len(seeds)), dtype=dtype)
    # the lanes in slices, so that the counts stay small beside the table
    width = max(1, _TABLE_WORDS // 4 // len(tries))
    for lo in range(0, len(seeds), width):
        part = tries[:, :, lo:lo + width]
        below, equal = False, True
        for j in reversed(range(w)):  # compared from the most significant word
            below = below | equal & (part[:, j] < words[j])
            equal = equal & (part[:, j] == words[j])
        accepted = np.cumsum(below, axis=0, dtype=np.uint8)  # a lane that fits has < 256 tries
        full[lo:lo + width] &= accepted[-1] >= steps
        lanes = np.arange(part.shape[2])
        for step in range(steps):
            # draw ``step`` is try ``at``; a lane short of tries reads a clipped one, redrawn below
            at = np.minimum((accepted <= step).sum(axis=0, dtype=np.uint8), len(part) - 1)
            draw = part[at, -1, lanes].astype(dtype)
            for j in reversed(range(w - 1)):
                draw = draw << 32 | part[at, j, lanes].astype(dtype)
            out[step, lo:lo + width] = draw
    for lane in np.flatnonzero(~full).tolist():
        rng = random.Random(seeds[lane])
        out[:, lane] = [rng.randrange(den) for _ in range(steps)]
    return out


def monte_carlo_duality(
    law: OffspringLaw,
    a: int,
    b: int,
    steps: int,
    reps: int,
    seed: int,
) -> MonteCarloResult:
    """Simulate both sides of E[H(X_n, |b|)] = E[H(|a|, Y_n)] with H the
    hypergeometric matrix on cardinalities.

    The chains run at the set level (the backward side draws offspring
    atoms and takes ancestor sets, independent of the precomputed kernel);
    only the cardinality of the terminal state enters the estimate.  Each
    replica and side draws from random.Random(seed * 1_000_003 + m), with m
    = 2 replica for the forward side and m = 2 replica + 1 for the backward
    side, so results do not depend on execution order.  A draw is
    randrange(D) over the integer atom weights.  The lanes run in blocks
    that bound the memory.  A block draws all its steps in one pass
    (``_draws``) from the streams' first words, which come from one numpy
    pass over the seeds (``_mt_words``), and reads their atoms from a D-entry
    lookup (a binary search past ``_LOOKUP_DEN``); then every replica steps
    at once, by a few bit operations per parent over its children sets.
    """
    law.require_exchangeable()
    n = law.ground_size
    if reps < 1 or steps < 0:
        raise InvalidParameter(f"monte carlo: reps must be >= 1 and steps >= 0, got {reps} and {steps}")
    if (a | b) >> n:
        raise InvalidParameter(f"monte carlo: start sets {a:b}, {b:b} must lie in a population of {n}")
    h = hypergeometric_matrix(n)
    nu, den = law.children, law.den
    cols, bits = np.ascontiguousarray(nu.T), nu.dtype.type(1) << np.arange(n, dtype=nu.dtype)
    k = den.bit_length()
    if den <= _LOOKUP_DEN:  # draw d in [cum[a - 1], cum[a]) is atom a, entry d of this lookup
        pick = np.repeat(np.arange(len(nu)), law.weights).take
    else:  # a binary search, the only path for draws past 64 bits
        cum = np.cumsum(law.weights).astype(_draw_dtype(k))
        pick = lambda draws: np.searchsorted(cum, draws, side="right")
    sizes = np.zeros((2, n + 1), dtype=np.int64)
    seeds = range(seed * 1_000_003, seed * 1_000_003 + 2 * reps)
    depth = _table_depth(steps, den, k)
    block = max(2, _TABLE_WORDS // (depth + 1) & ~1)  # even, so even lanes are forward
    for lo in range(0, len(seeds), block):
        chunk = seeds[lo:lo + block]
        atoms = pick(_draws(chunk, steps, den, depth)) if steps else None
        for side, start in enumerate((a, b)):
            x = np.full(len(chunk) // 2, start, dtype=nu.dtype)
            for step in range(steps):
                atom, y = atoms[step, side::2], np.zeros_like(x)
                if side == 0:  # the union of the children sets of the members of x
                    for i, col in enumerate(cols):
                        y |= col[atom] * (x >> i & 1)
                else:  # the parents of the members of x: each child has one parent
                    for col, bit in zip(cols, bits):
                        y |= (col[atom] & x != 0) * bit
                x = y
            sizes[side] += np.bincount(np.bitwise_count(x), minlength=n + 1)
        atoms = atom = None  # so that the next block's table replaces these draws, not joins them
    fwd_counts, bwd_counts = ({i: c for i, c in enumerate(row) if c} for row in sizes.tolist())
    j_b, i_a = b.bit_count(), a.bit_count()
    fwd_vals = {i: h[i, j_b] for i in fwd_counts}
    bwd_vals = {j: h[i_a, j] for j in bwd_counts}
    f_mean, f_se = _summary(fwd_counts, fwd_vals, reps)
    b_mean, b_se = _summary(bwd_counts, bwd_vals, reps)
    return MonteCarloResult(
        steps=steps,
        reps=reps,
        seed=seed,
        forward_mean=f_mean,
        forward_stderr=f_se,
        backward_mean=b_mean,
        backward_stderr=b_se,
    )


def exact_coarse_duality_value(law: OffspringLaw, i: int, j: int, steps: int) -> Fraction:
    """The exact common value E[H(X_n, j)] = E[H(i, Y_n)] by matrix powers
    of the direct coarse forward chain."""
    n = law.ground_size
    for name, value in (("i", i), ("j", j)):
        if not 0 <= value <= n:
            raise InvalidParameter(f"exact duality value: {name} must be in 0..{n}, got {value}")
    if steps < 0:
        raise InvalidParameter(f"exact duality value: steps must be >= 0, got {steps}")
    p_coarse = coarse_forward_direct(law)
    h = hypergeometric_matrix(n)
    return (p_coarse.power(steps) @ h)[i, j]
