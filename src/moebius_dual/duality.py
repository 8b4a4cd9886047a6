"""H-duality of kernels and the Moebius-positive cone machinery.

A kernel Q is the H-dual of P when H Q' = P H.  The four variants
(H = Z, Z', Z^{-1}, (Z^{-1})') share one code path: each variant is a
declarative descriptor saying which margin of P is accumulated over
which cumulative set and which cone certifies nonnegativity of Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (InvalidParameter, NonpositiveH, NotIrreducible, SingularH, SingularMatrix,
                     VerificationFailure, _require)
from .poset import FinitePoset, ZetaPair
from .rational import RationalMatrix, _require_equal, format_fraction

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

    def h_matrix(self, zp: ZetaPair) -> RationalMatrix:
        return {
            DualityVariant.ZETA: zp.zeta,
            DualityVariant.ZETA_TRANSPOSE: zp.zeta.T,
            DualityVariant.MOEBIUS: zp.moebius,
            DualityVariant.MOEBIUS_TRANSPOSE: zp.moebius.T,
        }[self]

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


def h_dual(p: Kernel, h: RationalMatrix) -> RationalMatrix:
    """Q with Q' = H^{-1} P H; the defining identity H Q' = P H is re-verified."""
    if h.rows != h.cols or h.rows != p.matrix.rows:
        raise SingularH("H must be square and match P")
    try:
        h_inv = h.inverse()
    except SingularMatrix as exc:
        raise SingularH(str(exc)) from exc
    q_t = h_inv @ p.matrix @ h
    _require_equal(h @ q_t, p.matrix @ h, "H Q' = P H")
    return q_t.T


def cone_membership(g, zp: ZetaPair, transposed: bool = False) -> ConeReport:
    """Membership of g in F_+ (image = Z^{-1} g) or F'_+ (image = (Z^{-1})' g)."""
    moeb = zp.moebius.T if transposed else zp.moebius
    image = moeb.apply(g)
    first_negative = None
    for lab, v in zip(zp.poset.elements, image):
        if v < 0:
            first_negative = lab
            break
    member = first_negative is None
    if member:
        # a nonnegative Moebius image forces g >= 0 itself
        _require(all(Fraction(x) >= 0 for x in g), "cone member g >= 0",
                 lambda: next(lab for lab, x in zip(zp.poset.elements, g) if Fraction(x) < 0))
    return ConeReport(member=member, image=tuple(image), first_negative=first_negative)


def _cumulative_vectors(p: RationalMatrix, poset: FinitePoset, variant: DualityVariant):
    """The per-index vectors whose cone membership decides Q >= 0.

    Columns accumulated over {d <= a} / {a <= d}, or rows over {b <= c} / {c <= b},
    per the variant's descriptor.
    """
    a = p.array() if variant.uses_columns else p.array().T
    # column i of the order holds the down-set of i, row i its up-set
    members = poset.matrix if variant.cumulative_downward else poset.matrix.T
    return [list(a[:, members[:, i]].sum(axis=1)) for i in range(len(poset))]


def _require_nonnegative(p: Kernel) -> None:
    """A kernel is caller input: a negative entry is a bad parameter."""
    if not p.matrix.is_nonnegative():
        (i, j), v = next((ij, v) for ij, v in np.ndenumerate(p.matrix.array()) if v < 0)
        raise InvalidParameter(f"kernel entry ({i}, {j}) is negative: {format_fraction(v)}")


def positivity_certificate(
    p: Kernel, zp: ZetaPair, variant: DualityVariant
) -> CertificateReport:
    """Exact equivalence test: Q >= 0 iff every cumulative margin lies in the cone.

    The verdict is cross-checked against the directly computed dual.
    """
    _require_nonnegative(p)
    reports = tuple(
        cone_membership(vec, zp, transposed=variant.transposed_cone)
        for vec in _cumulative_vectors(p.matrix, zp.poset, variant)
    )
    holds = all(r.member for r in reports)
    q = h_dual(p, variant.h_matrix(zp))
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
    _require_nonnegative(p)
    a = p.matrix.array()
    vecs = [list(v) for v in (a.T if variant.uses_columns else a)]
    reports = tuple(
        cone_membership(v, zp, transposed=variant.transposed_cone) for v in vecs
    )
    holds = all(r.member for r in reports)
    q = h_dual(p, variant.h_matrix(zp))
    if holds:
        _require(q.is_nonnegative(), "condition (ii) => Q >= 0")
        # for i <= j, row j of Q ("in-a") or of Q' ("in-b") minus row i has the stated sign
        qa = q.array() if variant.monotonicity.endswith("-a") else q.array().T
        sign = 1 if variant.monotonicity.startswith("increasing") else -1
        for i, j in zp.poset.comparable_pairs():
            if i != j and not all(sign * (qa[j] - qa[i]) >= 0):
                pair = (zp.poset.elements[i], zp.poset.elements[j])
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
        raise ValueError(direction)

    def supported_within(m, upper):
        # every nonzero entry (c, d) has c <= d (upper) or d <= c
        return not ((m.array() != 0) & ~(poset.matrix if upper else poset.matrix.T)).any()

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
        raise ValueError("invariant distribution needs a stochastic kernel")
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
    n = m.rows
    adj = np.array([[1 if m[i, j] != 0 else 0 for j in range(n)] for i in range(n)])
    reach = np.eye(n, dtype=np.int64)
    for _ in range(n):
        reach = ((reach + reach @ adj) > 0).astype(np.int64)
    return bool(reach.all())
