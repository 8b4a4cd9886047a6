"""Dense matrices over exact rationals: a read-only 2-D array of integer
numerators over one positive common denominator, with gcd 1 (so the zero
matrix has denominator 1).  Numerators are int64 when every entry fits, else
Python ints.  A bound checked before each product, sum or elimination step
picks int64 only when it cannot overflow.  Inverse and nullspace use Bareiss's
fraction-free elimination (Math. Comp. 22, 1968).  Floats and booleans are
rejected on input, since every identity here is checked with zero tolerance;
entries leave as ``fractions.Fraction``.  At this boundary entries are parsed,
formatted and made into Fractions once per distinct value, and the results are
gathered back by C-level maps and takes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import InvalidParameter, NonRationalEntry, SingularMatrix, _require

__all__ = ["RationalMatrix", "parse_fraction", "format_fraction"]

_INT64_MAX = 2**63 - 1


# an entry string once stripped: Fraction's string grammar without its decimal
# and exponent forms
_ENTRY = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")


def _parse_entry(s: str):
    """The integer pair (p, q) of an entry string, q > 0, not reduced."""
    s = s.strip()
    if "." in s or "e" in s or "E" in s:
        raise NonRationalEntry(f"decimal notation {s!r} rejected; use \"p/q\"")
    m = _ENTRY.fullmatch(s)
    try:
        if m and (q := int(m[2] or 1)):
            return int(m[1]), q
    except ValueError:  # past int()'s limit of 4,300 decimal digits
        pass
    raise NonRationalEntry(f"cannot parse rational {s!r}")


def parse_fraction(s):
    """Parse a ``"p/q"`` or ``"p"`` string into a Fraction.

    The accepted grammar, once surrounding whitespace is stripped: an
    optional sign, then digits, then optionally ``/`` and digits, with no
    space around the slash.  Digits are any Unicode decimal digits, with
    single underscores between them as in PEP 515.  A string holding ``.``,
    ``e`` or ``E`` is rejected as decimal notation; any other string outside
    the grammar, a zero denominator or a number past Python's limit of 4,300
    decimal digits is rejected as unparsable.  Both raise NonRationalEntry.
    Any other value passes the matrix input gate, which takes integers and
    rationals but no float or bool.
    """
    return Fraction(*_ratio(s))


def _format(n: int, d: int) -> str:
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_fraction(x: Fraction) -> str:
    """Lowest-terms ``"p/q"`` with positive denominator, ``"p"`` if integral."""
    return _format(*Fraction(x).as_integer_ratio())


def _ratio(value):
    """The input gate: an exact rational as integers (p, q), q > 0."""
    if isinstance(value, (bool, float)):  # checked before int, of which bool is a subclass
        raise NonRationalEntry(f"{type(value).__name__} entry {value!r} rejected; "
                               "supply exact rationals")
    if isinstance(value, (int, Fraction)):
        return value.as_integer_ratio()
    if isinstance(value, str):
        return _parse_entry(value)
    if isinstance(value, np.integer):
        return int(value), 1
    if isinstance(value, Rational):
        return Fraction(value).as_integer_ratio()
    raise NonRationalEntry(f"not an exact rational: {value!r}")


def _from_values(values, shape):
    """Numerator array and common denominator of a flat list of entries.  A
    list of strings only (the JSON and CSV path) is parsed once per distinct
    string, in first-occurrence order, so the first bad entry is the one
    reported.  Any other list passes each entry through the gate: True, 1 and
    1.0 are equal dict keys, so mixed entries cannot be deduplicated."""
    if set(map(type, values)) == {str}:
        distinct = list(dict.fromkeys(values))
        pairs = list(map(_parse_entry, distinct))
    else:
        distinct, pairs = None, [(v, 1) if type(v) is int else _ratio(v) for v in values]
    den = math.lcm(*[q for _, q in pairs])
    nums = [p * (den // q) for p, q in pairs]
    bound = max(map(abs, nums), default=0)
    if distinct is not None:
        nums = list(map(dict(zip(distinct, nums)).__getitem__, values))
    return np.array(nums, dtype=np.int64 if bound <= _INT64_MAX else object).reshape(shape), den


def _bound(num) -> int:
    """max(1, largest |entry|) of an integer array, with no |num| temporary;
    the extremes are Python ints, since negating the int64 minimum overflows."""
    return max(1, int(num.max()), -int(num.min())) if num.size else 1


def _ints(num, bound: int):
    """``num`` as int64 if ``bound`` caps every |value| computed from it, else as Python ints."""
    return num.astype(np.int64 if bound <= _INT64_MAX else object, copy=False)


def _product(a, b):
    """Integer matrix product, in int64 when max|a| max|b| k < 2**63."""
    bound = _bound(a) * _bound(b) * max(1, a.shape[1])
    return _ints(a, bound) @ _ints(b, bound)


def _interned(num, make):
    """``make(x)`` of every entry x of the integer array ``num``, as an object
    array of its shape: one call per distinct value, gathered by one take."""
    values, index = np.unique(num, return_inverse=True)
    table = np.empty(len(values), dtype=object)
    table[:] = [make(x) for x in values.tolist()]
    return table[index.reshape(num.shape)]


def _fractions(num, den: int):
    """The entries of the integer array ``num`` over ``den``, as an object
    array of Fractions."""
    return _interned(num, Fraction if den == 1 else lambda x: Fraction(x, den))


def _eliminate(a, cols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss) over the first ``cols``
    columns of the integer matrix ``a``: the reduced copy, the pivot row of each
    pivot column and the last pivot d, each pivot row being d times its reduced
    row.  Both products of a step are at most max|a|**2, so each step checks
    that 2 max|a|**2 fits in int64 and runs on Python ints from the first step
    where it does not."""
    a = a.copy()
    pivots, d = {}, 1
    for c in range(cols):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nz = a[r:, c].nonzero()[0]
        if not len(nz):
            continue
        if a.dtype != object and 2 * _bound(a) ** 2 > _INT64_MAX:
            a = a.astype(object)
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        row, p = a[r], a[r, c]
        a = (p * a - a[:, c, None] * row) // d  # a new array: row r of the old one is put back
        a[r], pivots[c], d = row, r, int(p)
    return a, pivots, d


class RationalMatrix:
    """Immutable dense rational matrix: integer numerators ``_num`` over one
    positive common denominator ``_den``, in canonical form."""

    __slots__ = ("_num", "_den")

    def __init__(self, data):
        if isinstance(data, RationalMatrix):
            num, den = data._num, data._den
        elif isinstance(data, np.ndarray) and data.dtype.kind in "biu" and data.ndim == 2:
            num, den = data.astype(object if data.dtype == np.uint64 else np.int64), 1
        else:
            rows = [list(r) for r in data]
            if not rows or any(len(r) != len(rows[0]) for r in rows):
                raise InvalidParameter("matrix data: rows must be nonempty and of one length")
            num, den = _from_values([v for r in rows for v in r], (len(rows), len(rows[0])))
        self._set(num, den)

    def _set(self, num, den: int) -> None:
        if den < 0:
            num, den = -num, -den
        g = math.gcd(int(den), int(np.gcd.reduce(num, axis=None))) if den != 1 else 1
        if g != 1:
            # a g beyond int64 divides int64 numerators only when they are all zero
            num, den = (num if g <= _INT64_MAX else num.astype(object)) // g, den // g
        if num.dtype == object and _bound(num) <= _INT64_MAX:
            num = num.astype(np.int64)
        num.setflags(write=False)
        self._num, self._den = num, int(den)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _wrap(cls, num, den: int) -> "RationalMatrix":
        m = object.__new__(cls)
        m._set(num, den)
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._wrap(np.eye(n, dtype=np.int64), 1)

    @classmethod
    def diagonal(cls, values) -> "RationalMatrix":
        num, den = _from_values(values, (-1,))
        return cls._wrap(np.diag(num), den)

    @classmethod
    def from_function(cls, rows: int, cols: int, fn) -> "RationalMatrix":
        return cls._wrap(*_from_values([fn(i, j) for i in range(rows) for j in range(cols)],
                                       (rows, cols)))

    # -- basic queries ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._num.shape[0]

    @property
    def cols(self) -> int:
        return self._num.shape[1]

    @property
    def shape(self):
        return self._num.shape

    def __getitem__(self, key):
        v = self._num[key]
        if isinstance(v, np.ndarray):
            if v.ndim == 2:
                return RationalMatrix._wrap(v.copy(), self._den)
            return _fractions(v, self._den).tolist()
        return Fraction(int(v), self._den)

    def row(self, i):
        return _fractions(self._num[i, :], self._den).tolist()

    def array(self) -> np.ndarray:
        """Writable object array of the entries as Fractions."""
        return _fractions(self._num, self._den)

    def signs(self) -> np.ndarray:
        """Array of the sign (-1, 0 or 1) of each entry; the denominator is positive."""
        return np.sign(self._num).astype(np.int8)

    def __iter__(self):
        return iter(_fractions(self._num, self._den).tolist())

    def _strings(self):
        """The rows of entry strings that ``__repr__``, ``to_json``, ``to_csv``
        and the CLI documents print."""
        return _interned(self._num, lambda x: _format(x, self._den)).tolist()

    def __repr__(self):
        body = "; ".join(" ".join(row) for row in self._strings())
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def _first_difference(self, other: "RationalMatrix"):
        """The first (row, col) where two matrices differ, or their two shapes."""
        if self.shape != other.shape:
            return self.shape, other.shape
        a = self._num.astype(object) * other._den
        diff = np.argwhere(a != other._num.astype(object) * self._den)
        return tuple(diff[0].tolist()) if len(diff) else None

    # -- algebra ---------------------------------------------------------------

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self._num.shape[1] != other._num.shape[0]:
            raise InvalidParameter(f"cannot multiply shapes {self.shape} @ {other.shape}")
        return RationalMatrix._wrap(_product(self._num, other._num), self._den * other._den)

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.shape != other.shape:
            raise InvalidParameter(f"cannot add or subtract shapes {self.shape} and {other.shape}")
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        bound = _bound(self._num) * fa + _bound(other._num) * fb
        return RationalMatrix._wrap(_ints(self._num, bound) * fa + _ints(other._num, bound) * fb,
                                    den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        p, q = _ratio(c)
        return RationalMatrix._wrap(_ints(self._num, _bound(self._num) * max(1, abs(p))) * p,
                                    self._den * q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self._den == other._den and self.shape == other.shape
                and bool(np.array_equal(self._num, other._num)))

    def __hash__(self):
        return hash((self.shape, self._den, tuple(self._num.ravel().tolist())))

    @property
    def T(self) -> "RationalMatrix":
        m = object.__new__(RationalMatrix)  # a canonical matrix transposes to one: no gcd pass
        m._num, m._den = self._num.T.copy(), self._den
        m._num.setflags(write=False)
        return m

    def apply(self, vector):
        """Matrix-vector product, returning a list of Fractions."""
        num, den = _from_values(vector, (-1, 1))
        if len(num) != self.cols:
            raise InvalidParameter(f"cannot apply shape {self.shape} to a vector of length {len(num)}")
        return _fractions(_product(self._num, num).ravel(), self._den * den).tolist()

    def power(self, n: int) -> "RationalMatrix":
        if self.rows != self.cols or n < 0:
            raise InvalidParameter(f"power: needs a square matrix and n >= 0, got shape {self.shape} and n = {n}")
        out = RationalMatrix.identity(self.rows)
        for _ in range(n):
            out = out @ self
        return out

    def inverse(self) -> "RationalMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination of [A | I]."""
        if self.rows != self.cols:
            raise SingularMatrix("only square matrices can be inverted")
        n = self.rows
        a, pivots, d = _eliminate(np.hstack([self._num, np.eye(n, dtype=self._num.dtype)]), n)
        singular = [c for c in range(n) if c not in pivots]
        if singular:
            raise SingularMatrix(f"singular at column {singular[0]}")
        # a = [d I | d A^-1] for the numerators A, and (A / den)^-1 = den A^-1
        inv = a[:, n:]
        return RationalMatrix._wrap(_ints(inv, _bound(inv) * self._den) * self._den, d)

    def nullspace_vector(self):
        """The kernel vector with the first free column set to 1 and the
        reduced-row-echelon entries elsewhere, or None if the kernel is trivial."""
        a, pivots, d = _eliminate(self._num, self.cols)
        free = [c for c in range(self.cols) if c not in pivots]
        if not free:
            return None
        v = [Fraction(0)] * self.cols
        v[free[0]] = Fraction(1)
        for c, r in pivots.items():
            v[c] = Fraction(-int(a[r, free[0]]), d)
        return v

    # -- predicates ------------------------------------------------------------

    def _row_totals(self):
        return _ints(self._num, _bound(self._num) * max(1, self.cols)).sum(axis=1)

    def is_nonnegative(self) -> bool:
        return not bool((self._num < 0).any())

    def min_entry(self) -> Fraction:
        return Fraction(int(self._num.min()), self._den)

    def row_sums(self):
        return _fractions(self._row_totals(), self._den).tolist()

    def is_stochastic(self) -> bool:
        return self.is_nonnegative() and bool((self._row_totals() == self._den).all())

    def is_substochastic(self) -> bool:
        return self.is_nonnegative() and bool((self._row_totals() <= self._den).all())

    # -- serialization ----------------------------------------------------------

    def to_json(self, row_labels=None, col_labels=None) -> str:
        doc = {"rows": self.rows, "cols": self.cols, "entries": self._strings()}
        if row_labels is not None:
            doc["row_labels"] = [str(l) for l in row_labels]
        if col_labels is not None:
            doc["col_labels"] = [str(l) for l in col_labels]
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RationalMatrix":
        doc = json.loads(text, parse_float=_reject_float)
        if not isinstance(doc, dict):
            raise InvalidParameter(f"matrix JSON must be an object, got {type(doc).__name__}")
        entries = doc.get("entries")
        if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
            raise InvalidParameter(f"matrix JSON entries must be a list of rows, got {entries!r:.40}")
        m = cls(entries)
        for name, size in (("rows", m.rows), ("cols", m.cols)):
            declared = doc.get(name, size)
            if type(declared) is not int or declared != size:
                raise InvalidParameter(f"matrix JSON {name} must be {size} to match entries, "
                                       f"got {declared!r}")
        return m

    def to_csv(self, row_labels=None, col_labels=None) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if col_labels is not None:
            w.writerow([""] + [str(l) for l in col_labels])
        for i, row in enumerate(self._strings()):
            w.writerow(([str(row_labels[i])] if row_labels is not None else []) + row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, has_labels: bool = False) -> "RationalMatrix":
        rows = [r for r in csv.reader(io.StringIO(text)) if r]
        if has_labels:
            rows = [r[1:] for r in rows[1:]]
        return cls(rows)


def _reject_float(s):
    raise NonRationalEntry(f"float {s!r} rejected; use \"p/q\" strings")


def _require_equal(a: RationalMatrix, b: RationalMatrix, identity: str) -> None:
    """Check the whole-matrix identity a = b; its witness, built only on
    failure, is the first entry where the two sides differ."""
    _require(a == b, identity, lambda: a._first_difference(b))
