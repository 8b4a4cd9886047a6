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
from .poset import FinitePoset, ZetaPair
from .rational import RationalMatrix, _require_equal

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
    labels = zp.poset.elements
    # a nonnegative Moebius image forces g >= 0 itself; the witness is the
    # first negative entry of the first such column
    g_negative = (g.signs() < 0) & ~negative.any(axis=0)
    _require(not g_negative.any(), "cone member g >= 0",
             lambda: labels[np.argwhere(g_negative.T)[0][1]])
    reports = tuple(
        ConeReport(member=not neg.any(), image=tuple(image),
                   first_negative=labels[np.argmax(neg)] if neg.any() else None)
        for neg, image in zip(negative.T, images.T)
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
        # for i <= j, row j of Q ("in-a") or of Q' ("in-b") minus row i has the stated sign
        qa = q if variant.monotonicity.endswith("-a") else q.T
        sign = 1 if variant.monotonicity.startswith("increasing") else -1
        # the order is upper-triangular: pairs (i, j > i) come in comparable_pairs order
        for i, row in enumerate(zp.poset.matrix):
            above = np.flatnonzero(row[i + 1:]) + i + 1
            bad = ((qa[above] - qa[np.full(len(above), i)]).signs() * sign < 0).any(axis=1)
            if bad.any():
                pair = (zp.poset.elements[i], zp.poset.elements[above[np.argmax(bad)]])
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
    True vacuously when the hypothesis on P fails.
    """
    if direction not in ("forward", "reverse"):
        raise InvalidParameter(f"support implication: direction must be 'forward' or 'reverse', "
                               f"got {direction!r}")

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

    The result is stochastic exactly when h is a right 1-eigenvector of Q;
    both sides of that equivalence are checked.
    """
    hv = [Fraction(x) for x in h]
    if any(x <= 0 for x in hv):
        raise NonpositiveH("h must be strictly positive")
    d = RationalMatrix.diagonal(hv)
    d_inv = RationalMatrix.diagonal([1 / x for x in hv])
    out = d_inv @ q.matrix @ d
    kernel = Kernel.of(out)
    qh = q.matrix.apply(hv)
    _require(kernel.matrix.is_stochastic() == (qh == hv), "Q_h stochastic <=> Q h = h")
    _require(kernel.matrix.is_substochastic() == all(a <= b for a, b in zip(qh, hv)),
             "Q_h substochastic <=> Q h <= h")
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
    if not p.is_stochastic:
        raise InvalidParameter("invariant distribution: p must be a stochastic kernel")
    n = p.matrix.rows
    if not _is_irreducible(p.matrix):
        raise NotIrreducible("support digraph is not strongly connected")
    # left eigenvector: (P' - I) rho = 0
    system = p.matrix.T - RationalMatrix.identity(n)
    rho = system.nullspace_vector()
    _require(rho is not None, "(P' - I) rho = 0 has a solution")
    total = sum(rho, Fraction(0))
    _require(total != 0, "sum of rho != 0")
    rho = [x / total for x in rho]
    _require(all(x > 0 for x in rho), "rho > 0")
    _require_equal(RationalMatrix([rho]) @ p.matrix, RationalMatrix([rho]), "rho P = rho")
    return rho


def _is_irreducible(m: RationalMatrix) -> bool:
    adj, reach = m.signs() != 0, np.eye(m.rows, dtype=bool)
    for _ in range(m.rows):
        reach |= (reach.astype(np.int64) @ adj) > 0
    return bool(reach.all())
