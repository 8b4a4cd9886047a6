"""H-duality of kernels and the Moebius-positive cone machinery.

A kernel Q is the H-dual of P when H Q' = P H.  The four variants
(H = Z, Z', Z^{-1}, (Z^{-1})') share one code path: each variant is a
declarative descriptor saying which margin of P is accumulated over
which cumulative set and which cone certifies nonnegativity of Q.
Each certificate finds the cone images of all its margins with one
product by M or M'; for the cumulative margins (P or P')(Z or Z') these
images are, by Moebius inversion, the entries of Q' or Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (InvalidParameter, NonpositiveH, NotIrreducible, SingularH, VerificationFailure,
                     _require)
from .poset import FinitePoset, ZetaPair, _pair_blocks
from .rational import RationalMatrix, _bound, _from_values, _ints, _product, _require_equal

__all__ = [
    "Kernel",
    "DualityVariant",
    "ConeReport",
    "RepresentingMeasure",
    "CertificateReport",
    "h_dual",
    "cone_membership",
    "positivity_certificate",
    "strong_condition_check",
    "support_implication_check",
    "h_transform",
    "representing_measure",
    "invariant_distribution",
]


@dataclass(frozen=True)
class Kernel:
    """A nonnegative matrix tagged by exactly verified (sub)stochasticity."""

    matrix: RationalMatrix
    kind: str  # "general" | "substochastic" | "stochastic"

    @classmethod
    def of(cls, matrix: RationalMatrix) -> "Kernel":
        if matrix.is_stochastic():
            kind = "stochastic"
        elif matrix.is_substochastic():
            kind = "substochastic"
        else:
            kind = "general"
        return cls(matrix=matrix, kind=kind)

    @property
    def is_stochastic(self) -> bool:
        return self.kind == "stochastic"

    @property
    def is_substochastic(self) -> bool:
        return self.kind in ("stochastic", "substochastic")


class DualityVariant(Enum):
    ZETA = "zeta"
    ZETA_TRANSPOSE = "zeta-transpose"
    MOEBIUS = "moebius"
    MOEBIUS_TRANSPOSE = "moebius-transpose"

    def h_pair(self, zp: ZetaPair):
        """(H, H^{-1}), both read off the zeta pair, whose Z and M invert each
        other: (Z, M), (Z', M'), (M, Z) or (M', Z')."""
        z, m = zp.zeta, zp.moebius
        if self in (DualityVariant.ZETA_TRANSPOSE, DualityVariant.MOEBIUS_TRANSPOSE):
            z, m = z.T, m.T
        return (z, m) if self in (DualityVariant.ZETA, DualityVariant.ZETA_TRANSPOSE) else (m, z)

    # Which margin of P is accumulated (column vectors P(.,d) vs rows P(c,.)),
    # whether the cumulative set is the down-set or the up-set, and whether
    # the certifying cone is the transposed one.
    @property
    def uses_columns(self) -> bool:
        return self in (DualityVariant.ZETA, DualityVariant.ZETA_TRANSPOSE)

    @property
    def cumulative_downward(self) -> bool:
        return self in (DualityVariant.ZETA, DualityVariant.MOEBIUS_TRANSPOSE)

    @property
    def transposed_cone(self) -> bool:
        return self in (DualityVariant.ZETA_TRANSPOSE, DualityVariant.MOEBIUS)

    @property
    def monotonicity(self) -> str:
        """Direction of the part-(ii) monotonicity of Q under the strong condition."""
        return {
            DualityVariant.ZETA: "increasing-in-a",
            DualityVariant.ZETA_TRANSPOSE: "decreasing-in-a",
            DualityVariant.MOEBIUS: "decreasing-in-b",
            DualityVariant.MOEBIUS_TRANSPOSE: "increasing-in-b",
        }[self]


@dataclass(frozen=True)
class ConeReport:
    member: bool
    image: tuple  # Fractions, the Moebius image of g
    first_negative: object  # element label of the first negative image entry, or None


@dataclass(frozen=True)
class RepresentingMeasure:
    """Weights of the atomic (possibly signed) measure representing g."""

    weights: dict  # element label -> Fraction


@dataclass(frozen=True)
class CertificateReport:
    variant: DualityVariant
    condition_holds: bool
    per_index: tuple  # ConeReport per element, in index order
    q: RationalMatrix
    q_nonnegative: bool

    def to_dict(self):
        return {
            "variant": self.variant.value,
            "condition_i": self.condition_holds,
            "Q_nonnegative": self.q_nonnegative,
            "witnesses": [
                r.first_negative for r in self.per_index if not r.member
            ],
        }


def h_dual(p: Kernel, h: RationalMatrix, h_inv: RationalMatrix) -> RationalMatrix:
    """Q with Q' = H^{-1} P H for the given H and its inverse.  Only H H^{-1} = I
    is verified: given it, the defining identity H Q' = P H follows by exact
    associativity, H (H^{-1} P H) = (H H^{-1}) P H, so it is not restated.
    An H read off a large product pair makes its products factor by factor."""
    if h.rows != h.cols or h.rows != p.matrix.rows or h_inv.shape != h.shape:
        raise SingularH("H and H^-1 must be square and match P")
    _require_equal(h @ h_inv, RationalMatrix.identity(h.rows), "H H^-1 = I")
    return (h_inv @ p.matrix @ h).T


def _cone_reports(g: RationalMatrix, zp: ZetaPair, transposed: bool):
    """Membership of every column of g in F_+ (images M g) or F'_+ (images M' g),
    decided by one product: the image matrix and one ConeReport per column."""
    images = (zp.moebius_transpose if transposed else zp.moebius) @ g
    negative = images.signs() < 0
    members = ~negative.any(axis=0)
    labels = zp.poset.elements
    # a nonnegative Moebius image forces g >= 0 itself; the witness is the
    # first negative entry of the first such column
    g_negative = (g.signs() < 0) & members
    _require(not g_negative.any(), "cone member g >= 0",
             lambda: labels[np.argwhere(g_negative.T)[0][1]])
    # iterating the image matrix makes one Fraction per distinct entry, shared
    # by every column
    reports = tuple(
        ConeReport(member=member, image=tuple(image),
                   first_negative=None if member else labels[first])
        for member, first, image in zip(members.tolist(), negative.argmax(axis=0).tolist(),
                                        images.T)
    )
    return images, reports


def cone_membership(g, zp: ZetaPair, transposed: bool = False) -> ConeReport:
    """Membership of g in F_+ (image = Z^{-1} g) or F'_+ (image = (Z^{-1})' g)."""
    return _cone_reports(RationalMatrix([[x] for x in g]), zp, transposed)[1][0]


def _require_nonnegative(p: Kernel) -> None:
    """A kernel is caller input: a negative entry is a bad parameter."""
    if not p.matrix.is_nonnegative():
        i, j = np.argwhere(p.matrix.signs() < 0)[0].tolist()
        raise InvalidParameter(f"kernel entry ({i}, {j}) is negative: {p.matrix[i, j]}")


def _certify(p: Kernel, zp: ZetaPair, variant: DualityVariant, cumulative: bool):
    """Cone images, reports, verdict and dual for the margins of P: its columns
    (or rows) as they are, or accumulated over down-sets (or up-sets)."""
    _require_nonnegative(p)
    margins = p.matrix if variant.uses_columns else p.matrix.T
    if cumulative:
        margins = margins @ (zp.zeta if variant.cumulative_downward else zp.zeta_transpose)
    images, reports = _cone_reports(margins, zp, variant.transposed_cone)
    q = h_dual(p, *variant.h_pair(zp))
    return images, reports, all(r.member for r in reports), q


def positivity_certificate(
    p: Kernel, zp: ZetaPair, variant: DualityVariant
) -> CertificateReport:
    """Exact equivalence test: Q >= 0 iff every cumulative margin lies in the cone.
    The cone images (Q' or Q) and the verdict are checked against the computed dual."""
    images, reports, holds, q = _certify(p, zp, variant, cumulative=True)
    _require_equal(images, q.T if variant.uses_columns else q, "condition (i) images = Q")
    q_nonneg = q.is_nonnegative()
    _require(holds == q_nonneg, "condition (i) <=> Q >= 0", (holds, q_nonneg))
    return CertificateReport(
        variant=variant,
        condition_holds=holds,
        per_index=reports,
        q=q,
        q_nonnegative=q_nonneg,
    )


@dataclass(frozen=True)
class StrongConditionReport:
    variant: DualityVariant
    condition_holds: bool
    per_index: tuple
    q: RationalMatrix
    monotone: bool  # the claimed monotonicity of Q, checked only when condition holds

    def to_dict(self):
        return {
            "variant": self.variant.value,
            "condition_ii": self.condition_holds,
            "monotonicity": self.variant.monotonicity if self.condition_holds else None,
            "monotone": self.monotone,
        }


def strong_condition_check(
    p: Kernel, zp: ZetaPair, variant: DualityVariant
) -> StrongConditionReport:
    """Part (ii): every single column (or row) of P in the cone forces the
    stated monotonicity of Q over all comparable pairs."""
    _, reports, holds, q = _certify(p, zp, variant, cumulative=False)
    if holds:
        _require(q.is_nonnegative(), "condition (ii) => Q >= 0")
        # for i < j, row j of Q ("-a") or Q' ("-b") is >= row i ("increasing-") or <=;
        # Q has one positive denominator, so its numerators are compared with <
        # (no overflow), over bounded blocks of pairs in row-major order
        num = q._num if variant.monotonicity.endswith("-a") else q._num.T
        strict = np.triu(zp.poset.matrix, 1)  # the order is upper-triangular
        for ii, jj in _pair_blocks(strict, len(strict)):
            lo, hi = (jj, ii) if variant.monotonicity.startswith("increasing") else (ii, jj)
            bad = (num[lo] < num[hi]).any(axis=1)
            if bad.any():
                k = int(np.argmax(bad))
                pair = (zp.poset.elements[ii[k]], zp.poset.elements[jj[k]])
                raise VerificationFailure("condition (ii) => Q monotone", pair)
    return StrongConditionReport(
        variant=variant, condition_holds=holds, per_index=reports, q=q, monotone=True
    )


def support_implication_check(
    p: Kernel, q: RationalMatrix, poset: FinitePoset, direction: str = "forward"
) -> bool:
    """Support transfer between P and its dual.

    direction="forward": if P charges only pairs with c <= d then Q charges
    only pairs with d <= c.  direction="reverse" swaps the roles.  Returns
    True vacuously when the hypothesis on P fails.  P and Q must be square
    over the poset's elements.
    """
    if direction not in ("forward", "reverse"):
        raise InvalidParameter(f"support implication: direction must be 'forward' or 'reverse', "
                               f"got {direction!r}")
    for name, m in (("p", p.matrix), ("q", q)):
        if m.shape != (len(poset), len(poset)):
            raise InvalidParameter(f"support implication: {name} is {m.rows}x{m.cols}, "
                                   f"the poset has {len(poset)} elements")

    def supported_within(m, upper):
        # every nonzero entry (c, d) has c <= d (upper) or d <= c
        return not ((m.signs() != 0) & ~(poset.matrix if upper else poset.matrix.T)).any()

    hyp_upper = direction == "forward"
    if not supported_within(p.matrix, upper=hyp_upper):
        return True
    _require(supported_within(q, upper=not hyp_upper), "support of P => support of Q")
    return True


def h_transform(q: Kernel, h) -> Kernel:
    """D_h^{-1} Q D_h for strictly positive h.

    Row i of the result sums to (Q h)_i / h_i and its entries have the signs
    of Q's, for every Q; both are checked.  So for Q >= 0 the result is
    stochastic exactly when h is a right 1-eigenvector of Q.  h passes the
    rational input gate, so a float or bool entry raises NonRationalEntry.
    """
    d = RationalMatrix.diagonal(h)
    hv = [d[i, i] for i in range(d.rows)]
    if any(x <= 0 for x in hv):
        raise NonpositiveH("h must be strictly positive")
    d_inv = RationalMatrix.diagonal([1 / x for x in hv])
    out = d_inv @ q.matrix @ d
    kernel = Kernel.of(out)
    qh = q.matrix.apply(hv)
    _require(out.row_sums() == [a / x for a, x in zip(qh, hv)], "row sums of Q_h = (Q h) / h")
    _require(np.array_equal(out.signs(), q.matrix.signs()), "Q_h has the signs of Q")
    return kernel


def representing_measure(g, zp: ZetaPair) -> RepresentingMeasure:
    """Atomic weights nu* = Z^{-1} g; the reconstruction g = Z nu* is re-verified."""
    weights = zp.moebius.apply(g)
    _require(zp.zeta.apply(weights) == [Fraction(x) for x in g], "Z nu* = g")
    return RepresentingMeasure(
        weights=dict(zip(zp.poset.elements, weights))
    )


def invariant_distribution(p: Kernel):
    """Exact invariant distribution of a stochastic irreducible kernel."""
    if p.matrix.rows != p.matrix.cols:
        raise InvalidParameter(f"invariant distribution: p must be square, got shape {p.matrix.shape}")
    if not p.is_stochastic:
        raise InvalidParameter("invariant distribution: p must be a stochastic kernel")
    n = p.matrix.rows
    if not _is_irreducible(p.matrix):
        raise NotIrreducible("support digraph is not strongly connected")
    # left eigenvector: (P' - I) rho = 0, eliminated as the integer system
    # num' - den I (entries in -den..den); its checks run on the integers v = total rho
    num, den = p.matrix._num, p.matrix._den
    system = RationalMatrix._wrap(_ints(num.T, den) - _ints(np.eye(n, dtype=np.int64), den) * den, 1)
    rho = system.nullspace_vector()
    _require(rho is not None, "(P' - I) rho = 0 has a solution")
    v, _ = _from_values(rho, (1, n))
    total = sum(v[0].tolist())
    _require(total != 0, "sum of rho != 0")
    v, total = (v, total) if total > 0 else (-v, -total)
    _require(bool((v > 0).all()), "rho > 0", lambda: int(np.flatnonzero(v <= 0)[0]))
    vp, vd = _product(v, num), _ints(v, _bound(v) * den) * den  # v P = v as v num = v den
    _require(np.array_equal(vp, vd), "rho P = rho", lambda: tuple(np.argwhere(vp != vd)[0].tolist()))
    return [Fraction(x, total) for x in v[0].tolist()]


def _is_irreducible(m: RationalMatrix) -> bool:
    reach = (m.signs() != 0) | np.eye(m.rows, dtype=bool)
    for _ in range((m.rows - 1).bit_length()):  # paths of length <= 2**k after k squarings
        reach = reach @ reach
    return bool(reach.all())
