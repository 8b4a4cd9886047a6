"""Set-valued exchangeable population models with T allele types.

An offspring law assigns to each parent i the set nu_i of its children;
the nu_i are disjoint and cover the population.  The forward chain tracks
the carrier sets of the T types, the backward chain tracks their ancestors,
and the two are dual through the transpose of the zeta matrix of the
componentwise subset order.  The haploid model is the case T = 1, where the
states are the subsets of the population.  Coarse-graining by type counts
recovers the classical frequency chain and, at T = 1, its hypergeometric
dual.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product

from .coarse_graining import (
    EquivalenceRelation,
    CoarseDualityResult,
    coarse_duality_pipeline,
)
from .duality import DualityVariant, Kernel
from .errors import (
    InvalidOffspringLaw,
    InvalidParameter,
    NotExchangeable,
    SizeOverflow,
    VerificationFailure,
    _check_range,
    _require,
)
from .lattices import _popcount
from .poset import ZetaPair, build_poset, moebius_matrix
from .rational import RationalMatrix, _require_equal

__all__ = [
    "OffspringLaw",
    "MultiAllelicKernels",
    "MultiAllelicCoarse",
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
]


@dataclass(frozen=True)
class OffspringLaw:
    """Finite exact distribution over indexed partitions of {1..N}.

    Each support atom is a tuple of N disjoint bitmasks whose union is the
    full population; nu[i] is the set of children of parent i+1.
    """

    ground_size: int
    support: tuple  # of (nu: tuple of bitmasks, probability: Fraction)
    exchangeable: bool

    @classmethod
    def build(cls, n: int, atoms) -> "OffspringLaw":
        full = (1 << n) - 1
        support = []
        total = Fraction(0)
        for k, (nu, p) in enumerate(atoms):
            nu = tuple(nu)
            p = Fraction(p)
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
            total += p
        if total != 1:
            raise InvalidOffspringLaw(f"total probability is {total}, not 1")
        law = cls(ground_size=n, support=tuple(support), exchangeable=False)
        object.__setattr__(law, "exchangeable", law._check_exchangeable())
        return law

    def _check_exchangeable(self) -> bool:
        """Invariance of the law under relabelling the population.

        A permutation pi acts on an indexed partition by permuting both the
        parent index and the children sets: nu -> (pi(nu_{pi^{-1}(i)}))_i.
        Adjacent transpositions generate the full symmetric group and
        invariance is closed under composition, so checking the N-1
        generators is an exact test.  This implies the exchangeability of
        the offspring-size vector used by every coarse-graining here.
        """
        table = {nu: p for nu, p in self.support}

        def swap_bits(mask, k):
            lo, hi = (mask >> k) & 1, (mask >> (k + 1)) & 1
            if lo != hi:
                mask ^= (1 << k) | (1 << (k + 1))
            return mask

        for k in range(self.ground_size - 1):
            for nu, p in self.support:
                relabeled = tuple(swap_bits(m, k) for m in nu)
                swapped = (
                    relabeled[:k]
                    + (relabeled[k + 1], relabeled[k])
                    + relabeled[k + 2:]
                )
                if table.get(swapped, Fraction(0)) != p:
                    return False
        return True

    def require_exchangeable(self):
        if not self.exchangeable:
            raise NotExchangeable("offspring law is not permutation invariant")


def wright_fisher_law(n: int) -> OffspringLaw:
    """Each child picks a uniform parent independently; N^N atoms."""
    _check_range("wright-fisher law", "N", n, 1, 6)
    p = Fraction(1, n ** n)
    atoms = []
    for choice in product(range(n), repeat=n):
        nu = [0] * n
        for child, parent in enumerate(choice):
            nu[parent] |= 1 << child
        atoms.append((tuple(nu), p))
    law = OffspringLaw.build(n, atoms)
    _require(law.exchangeable, "Wright-Fisher law is exchangeable", n)
    return law


def moran_law(n: int) -> OffspringLaw:
    """A uniform pair (b, d), b != d: d dies, b keeps its slot and takes d's."""
    _check_range("moran law", "N", n, 2, 8)
    p = Fraction(1, n * (n - 1))
    atoms = []
    for b in range(n):
        for d in range(n):
            if b == d:
                continue
            nu = [1 << i for i in range(n)]
            nu[b] = (1 << b) | (1 << d)
            nu[d] = 0
            atoms.append((tuple(nu), p))
    law = OffspringLaw.build(n, atoms)
    _require(law.exchangeable, "Moran law is exchangeable", n)
    return law


# ---------------------------------------------------------------------------
# Closed forms of the coarse chains; the haploid ones are their T = 1 case
# ---------------------------------------------------------------------------


def _multinomial_class_size(n: int, evec) -> int:
    rest = n - sum(evec)
    count = math.factorial(n) // math.factorial(rest)
    for e in evec:
        count //= math.factorial(e)
    return count


def _product_binomial(n: int, classes) -> RationalMatrix:
    """H(dvec, evec) = prod_t C(d_t, e_t) / (number of states with counts evec)."""
    sizes = [_multinomial_class_size(n, evec) for evec in classes]
    return RationalMatrix.from_function(
        len(classes),
        len(classes),
        lambda a, b: Fraction(
            math.prod(math.comb(d, e) for d, e in zip(classes[a], classes[b])), sizes[b]
        ),
    )


def _block_forward(law: OffspringLaw, classes) -> RationalMatrix:
    """P(dvec, evec) = probability that the first d_1 parents have e_1
    children, the next d_2 parents e_2 children, and so on."""
    pos = {c: i for i, c in enumerate(classes)}
    ends = [tuple(accumulate(dvec)) for dvec in classes]  # last parent of each type
    rows = [[Fraction(0)] * len(classes) for _ in classes]
    for nu, prob in law.support:
        cum = list(accumulate(map(_popcount, nu), initial=0))  # children of the first i parents
        for row, e in zip(rows, ends):
            row[pos[tuple(cum[hi] - cum[lo] for lo, hi in zip((0,) + e, e))]] += prob
    return RationalMatrix(rows)


def hypergeometric_matrix(n: int) -> RationalMatrix:
    """H(i, j) = C(i,j)/C(N,j) for j <= i, on {0..N}."""
    return _product_binomial(n, [(i,) for i in range(n + 1)])


def hypergeometric_inverse(n: int) -> RationalMatrix:
    """Closed-form inverse: (-1)^{i-j} C(i,j) C(N,i) for j <= i."""
    return RationalMatrix.from_function(n + 1, n + 1, lambda i, j: (-1) ** (i - j) * math.comb(i, j)
                                        * math.comb(n, i) if j <= i else 0)


def coarse_forward_direct(law: OffspringLaw) -> RationalMatrix:
    """P(i, j) = probability that the first i parents have j children in all."""
    law.require_exchangeable()
    return _block_forward(law, [(i,) for i in range(law.ground_size + 1)])


def coarse_backward_moment_formula(law: OffspringLaw) -> RationalMatrix:
    """Q(i, j) = [C(N,j)/C(N,i)] * sum over (l_1..l_j) >= 1 with sum i of
    E[prod_r C(|nu_r|, l_r)]."""
    law.require_exchangeable()
    n = law.ground_size

    def compositions(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    size_moments = {}  # (l_1..l_j) -> E[prod C(|nu_r|, l_r)]

    def moment(ls):
        if ls not in size_moments:
            s = Fraction(0)
            for nu, p in law.support:
                prod = 1
                for r, l in enumerate(ls):
                    prod *= math.comb(_popcount(nu[r]), l)
                    if prod == 0:
                        break
                s += p * prod
            size_moments[ls] = s
        return size_moments[ls]

    def entry(i, j):
        total = sum((moment(ls) for ls in compositions(i, j)), Fraction(0))
        return Fraction(math.comb(n, j), math.comb(n, i)) * total

    return RationalMatrix.from_function(n + 1, n + 1, entry)


# ---------------------------------------------------------------------------
# Forward and backward kernels on type assignments
# ---------------------------------------------------------------------------


def _forward_unions(nu, n):
    """union over i in J of nu_i, for every J, by peeling the lowest bit."""
    out = [0] * (1 << n)
    for j in range(1, 1 << n):
        low = j & -j
        out[j] = out[j ^ low] | nu[low.bit_length() - 1]
    return out


def _ancestors(nu, j_mask):
    """The unique minimal set of parents whose children cover j_mask.

    Because the nu_i are disjoint, each child has exactly one parent, so
    any covering set contains this one; minimality is therefore uniqueness.
    """
    k = 0
    cover = 0
    for i, m in enumerate(nu):
        if m & j_mask:
            k |= 1 << i
            cover |= m
    if cover & j_mask != j_mask:
        raise VerificationFailure("the children of the ancestors of J cover J", (nu, j_mask))
    return k


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


def _partial_states(n: int, t: int):
    """All T-tuples of disjoint subsets of {1..N}: one type in 0..T per
    individual, type 0 meaning absent."""
    states = []
    for assign in product(range(t + 1), repeat=n):
        masks = [0] * t
        for i, a in enumerate(assign):
            if a:
                masks[a - 1] |= 1 << i
        states.append(tuple(masks))
    states = sorted(set(states), key=lambda s: (sum(_popcount(m) for m in s), s))
    return states


def multiallelic_kernels(law: OffspringLaw, t: int, *, cap: int = 4096) -> MultiAllelicKernels:
    """Exact forward and backward kernels for T >= 1 allele types, with the
    transpose-zeta duality verified by matrix identity and, independently,
    by componentwise inclusion-exclusion.  T = 1 is the haploid model."""
    if t < 1:
        raise InvalidParameter(f"population model: T must be >= 1, got {t}")
    n = law.ground_size
    if (t + 1) ** n > cap:
        raise SizeOverflow(f"(T+1)^N = {(t + 1) ** n} partial states, cap {cap}")
    states = _partial_states(n, t)
    poset = build_poset(states, lambda a, b: all(x & ~y == 0 for x, y in zip(a, b)))
    pair = moebius_matrix(poset, verify=len(states) <= 256)
    idx = poset.index
    size = len(states)
    covering = tuple(
        i for i, s in enumerate(poset.elements)
        if sum(_popcount(m) for m in s) == n
    )

    p_rows = [dict() for _ in range(size)]
    q_rows = [dict() for _ in range(size)]
    for nu, prob in law.support:
        unions = _forward_unions(nu, n)
        for si, jvec in enumerate(poset.elements):
            kvec = tuple(unions[m] for m in jvec)
            r = p_rows[si]
            ki = idx[kvec]
            r[ki] = r.get(ki, Fraction(0)) + prob
            # ancestors per type; mass is lost when they are not disjoint
            avec = []
            seen = 0
            for m in jvec:
                a = _ancestors(nu, m)
                if a & seen:
                    break
                seen |= a
                avec.append(a)
            else:
                qi = idx[tuple(avec)]
                qr = q_rows[si]
                qr[qi] = qr.get(qi, Fraction(0)) + prob

    p_ext = RationalMatrix([[r.get(j, 0) for j in range(size)] for r in p_rows])
    q = RationalMatrix([[r.get(j, 0) for j in range(size)] for r in q_rows])
    p_ext_k = Kernel.of(p_ext)
    q_k = Kernel.of(q)
    _require(p_ext_k.is_stochastic, "P stochastic")
    _require(q_k.is_substochastic, "Q substochastic")
    defect = tuple(Fraction(1) - s for s in q.row_sums())

    # forward kernel restricted to covering states is stochastic on them
    p_k = Kernel.of(p_ext[covering, :][:, covering])
    _require(p_k.is_stochastic, "P on covering states stochastic")
    _verify_multiallelic_duality(pair, p_ext, q)

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


def _verify_multiallelic_duality(pair: ZetaPair, p_ext, q) -> None:
    """Matrix route Z' Q' = P Z' plus the componentwise inclusion-exclusion
    route, sharing no linear algebra."""
    _require_equal(pair.zeta.T @ q.T, p_ext @ pair.zeta.T, "Z' Q' = P Z'")
    poset = pair.poset
    size = len(poset)
    pa, qa = p_ext.array(), q.array()
    ups = [poset.up_idx(j) for j in range(size)]
    downs = [poset.down_idx(k) for k in range(size)]
    counts = [sum(_popcount(m) for m in s) for s in poset.elements]
    # super_sums[l][j] = sum of P(L, M) over states M componentwise above J
    super_sums = [
        [sum((pa[l, m] for m in ups[j]), Fraction(0)) for j in range(size)]
        for l in range(size)
    ]
    for j in range(size):
        for k in range(size):
            total = Fraction(0)
            for l in downs[k]:
                total += (-1) ** (counts[k] - counts[l]) * super_sums[l][j]
            if total != qa[j, k]:
                jk = (poset.elements[j], poset.elements[k])
                raise VerificationFailure("Q(J, K) = inclusion-exclusion of P", jk)


@dataclass(frozen=True)
class MultiAllelicCoarse:
    types: int
    classes: tuple  # type-count vectors, in coarse index order
    pipeline: CoarseDualityResult
    p_coarse: Kernel
    h_coarse_hat: RationalMatrix
    q_coarse_hh: Kernel  # substochastic; stochastic at T = 1


def coarsen_multiallelic(ma: MultiAllelicKernels) -> MultiAllelicCoarse:
    """Type-count coarse-graining of the multi-allelic dual pair.

    Verifies the multinomial class sizes, the product-binomial closed form
    of the transformed coarse H, and the direct forward formula
    P(dvec, evec) = prob(type-t parents have e_t children for every t).
    At T = 1 these are the binomial class sizes, the hypergeometric matrix
    and the classical frequency chain; the haploid model further checks the
    closed-form hypergeometric inverse, the backward moment formula and the
    stochasticity of the coarse ancestral chain.
    """
    law = ma.law
    law.require_exchangeable()
    n = law.ground_size
    poset = ma.pair.poset
    rel = EquivalenceRelation.from_function(
        poset.elements, lambda s: tuple(_popcount(m) for m in s)
    )
    res = coarse_duality_pipeline(ma.p_ext, ma.pair, DualityVariant.ZETA_TRANSPOSE, rel)
    _require_equal(res.q, ma.q.matrix, "pipeline Q = builder Q")

    classes = rel.class_labels
    sizes = tuple(_multinomial_class_size(n, evec) for evec in classes)
    _require(res.h_hat == sizes, "class sizes are multinomial",
             lambda: next(c for c, h, s in zip(classes, res.h_hat, sizes) if h != s))
    _require_equal(res.h_coarse_hat, _product_binomial(n, classes), "coarse H = product-binomial form")
    _require_equal(res.p_coarse.matrix, _block_forward(law, classes), "coarse P = block forward form")
    _require(res.p_coarse.is_stochastic, "coarse P stochastic")
    _require(res.q_coarse_hh.is_substochastic, "coarse Q substochastic")
    if ma.types == 1:
        _require(ma.q.is_stochastic and res.q_coarse_hh.is_stochastic, "haploid Q and coarse Q stochastic")
        _require_equal(res.h_coarse_hat.inverse(), hypergeometric_inverse(n),
                       "coarse H^-1 = hypergeometric inverse")
        _require_equal(res.q_coarse_hh.matrix, coarse_backward_moment_formula(law),
                       "coarse Q = backward moment formula")

    return MultiAllelicCoarse(
        types=ma.types,
        classes=classes,
        pipeline=res,
        p_coarse=res.p_coarse,
        h_coarse_hat=res.h_coarse_hat,
        q_coarse_hh=res.q_coarse_hh,
    )


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


class _AtomSampler:
    """Inverse-CDF sampling from the exact law by integer weights.

    All probabilities are scaled by their common denominator, so the draw
    is an exact integer comparison with no floating point involved.
    """

    def __init__(self, law: OffspringLaw):
        denom = math.lcm(*(p.denominator for _, p in law.support))
        self.atoms = [nu for nu, _ in law.support]
        cum = []
        acc = 0
        for _, p in law.support:
            acc += p.numerator * (denom // p.denominator)
            cum.append(acc)
        self.cum = cum
        self.total = acc

    def draw(self, rng: random.Random):
        return self.atoms[bisect_right(self.cum, rng.randrange(self.total))]


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
    replica seeds its own generator from (seed, replica), so results do not
    depend on execution order.
    """
    law.require_exchangeable()
    n = law.ground_size
    if reps < 1 or steps < 0:
        raise InvalidParameter(f"monte carlo: reps must be >= 1 and steps >= 0, got {reps} and {steps}")
    if (a | b) >> n:
        raise InvalidParameter(f"monte carlo: start sets {a:b}, {b:b} must lie in a population of {n}")
    h = hypergeometric_matrix(n)
    sampler = _AtomSampler(law)
    j_b = _popcount(b)
    i_a = _popcount(a)

    fwd_counts: dict = {}
    bwd_counts: dict = {}
    for rep in range(reps):
        rng = random.Random(seed * 1_000_003 + 2 * rep)
        x = a
        for _ in range(steps):
            nu = sampler.draw(rng)
            nxt = 0
            m = x
            while m:
                low = m & -m
                nxt |= nu[low.bit_length() - 1]
                m ^= low
            x = nxt
        i = _popcount(x)
        fwd_counts[i] = fwd_counts.get(i, 0) + 1

        rng = random.Random(seed * 1_000_003 + 2 * rep + 1)
        y = b
        for _ in range(steps):
            nu = sampler.draw(rng)
            y = _ancestors(nu, y)
        j = _popcount(y)
        bwd_counts[j] = bwd_counts.get(j, 0) + 1

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
    p_coarse = coarse_forward_direct(law)
    h = hypergeometric_matrix(law.ground_size)
    return (p_coarse.power(steps) @ h)[i, j]
