"""Exception types shared across the package."""

import math
from numbers import Integral


class MoebiusDualError(Exception):
    """Base class for all package errors."""


class PartialOrderViolation(MoebiusDualError):
    """The supplied relation is not a partial order.

    Carries the failed axiom and a witness tuple of element labels.
    """

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} violated at {witness!r}")


class SizeOverflow(MoebiusDualError):
    """A requested construction exceeds the configured state cap."""


class InvalidParameter(MoebiusDualError, ValueError):
    """A size or count lies below its lower bound or outside its domain."""


def _check_range(what: str, name: str, value: int, low: int, high: int) -> None:
    """InvalidParameter for a non-integer, a bool or a value below ``low``; SizeOverflow above ``high``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise InvalidParameter(f"{what}: {name} must be an integer, got {value!r}")
    if not low <= value <= high:
        error = InvalidParameter if value < low else SizeOverflow
        bound = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise error(f"{what}: {name} must be {bound}, got {value}")


class VerificationFailure(MoebiusDualError):
    """An exact identity the package checks does not hold: ``identity`` is its
    short stable name, such as ``"Z M = I"``, ``witness`` a counterexample or None."""

    def __init__(self, identity, witness=None):
        self.identity = identity
        self.witness = witness
        super().__init__(f"{identity} fails" + ("" if witness is None else f" at {witness!r}"))


def _require(cond, identity: str, witness=None) -> None:
    """Raise VerificationFailure unless ``cond``; unlike ``assert`` this also
    runs under ``python -O``.  A callable witness is called only on failure."""
    if not cond:
        raise VerificationFailure(identity, witness() if callable(witness) else witness)


class NotComparable(MoebiusDualError):
    """A pair of elements is not comparable in the relevant order."""


class InvalidSkeleton(MoebiusDualError):
    """Multiset of atom sizes does not sum to the required total."""


class SingularMatrix(MoebiusDualError):
    """Exact Gaussian elimination found no inverse."""


class SingularH(SingularMatrix):
    """The duality matrix H is singular."""


class NonpositiveH(MoebiusDualError):
    """h-transform requires a strictly positive vector."""


class NotIrreducible(MoebiusDualError):
    """Kernel support digraph is not strongly connected."""


class IncompatibleMatrix(MoebiusDualError):
    """A matrix required to be coarse-graining compatible is not.

    ``which`` names the offending matrix, ``witness`` is a triple
    (representative a1, representative a2, class label).
    """

    def __init__(self, which, witness):
        self.which = which
        self.witness = witness
        super().__init__(f"{which} incompatible with the equivalence relation, witness {witness!r}")


class NotExchangeable(MoebiusDualError):
    """Offspring law fails permutation invariance."""


class InvalidOffspringLaw(MoebiusDualError):
    """An offspring law atom is not an indexed partition of the population,
    or the atom masses do not form a probability distribution."""


class NonRationalEntry(MoebiusDualError):
    """Matrix input contained a float or other inexact value."""
