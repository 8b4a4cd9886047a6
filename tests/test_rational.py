import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import RationalMatrix, format_fraction, parse_fraction
from moebius_dual.errors import InvalidParameter, NonRationalEntry, SingularMatrix


def test_parse_and_format_roundtrip():
    for s in ["3/4", "-2/6", "5", "0", "-7"]:
        f = parse_fraction(s)
        assert parse_fraction(format_fraction(f)) == f
    assert format_fraction(Fraction(-2, 6)) == "-1/3"
    assert format_fraction(Fraction(4, 2)) == "2"


def test_parse_rejects_garbage():
    with pytest.raises(NonRationalEntry):
        parse_fraction("1.5")
    with pytest.raises(NonRationalEntry):
        parse_fraction("1/0")
    with pytest.raises(NonRationalEntry):
        parse_fraction(0.5)


def test_float_entries_rejected():
    with pytest.raises(NonRationalEntry):
        RationalMatrix([[0.5]])
    with pytest.raises(NonRationalEntry):
        RationalMatrix.diagonal([1, 2.0])


def test_basic_algebra():
    a = RationalMatrix([["1/2", 1], [0, 2]])
    b = RationalMatrix([[2, 0], [1, "1/3"]])
    assert (a @ b) == RationalMatrix([[2, "1/3"], [2, "2/3"]])
    assert (a + b - b) == a
    assert a.scale(2)[0, 0] == 1
    assert a.T[1, 0] == 1
    assert a.apply([1, 1]) == [Fraction(3, 2), Fraction(2)]
    assert a.power(0) == RationalMatrix.identity(2)
    assert a.power(2) == a @ a


def test_inverse_exact():
    a = RationalMatrix([[1, 2], [3, "7/2"]])
    inv = a.inverse()
    assert a @ inv == RationalMatrix.identity(2)
    assert inv @ a == RationalMatrix.identity(2)


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        RationalMatrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularMatrix):
        RationalMatrix([[1, 2, 3]]).inverse()


def test_nullspace_vector():
    a = RationalMatrix([[1, 2], [2, 4]])
    v = a.nullspace_vector()
    assert v is not None
    assert a.apply(v) == [Fraction(0), Fraction(0)]
    assert RationalMatrix.identity(3).nullspace_vector() is None


def test_predicates():
    p = RationalMatrix([["1/3", "2/3"], [1, 0]])
    assert p.is_stochastic() and p.is_substochastic() and p.is_nonnegative()
    q = RationalMatrix([["1/3", "1/3"], [1, 0]])
    assert q.is_substochastic() and not q.is_stochastic()
    assert not RationalMatrix([[-1]]).is_nonnegative()
    assert p.min_entry() == 0
    assert p.row_sums() == [Fraction(1), Fraction(1)]


def test_json_roundtrip_and_float_rejection():
    a = RationalMatrix([["1/2", "-3"], [0, "2/7"]])
    text = a.to_json(row_labels=["x", "y"], col_labels=["u", "v"])
    assert RationalMatrix.from_json(text) == a
    with pytest.raises(NonRationalEntry):
        RationalMatrix.from_json('{"rows":1,"cols":1,"entries":[[0.5]]}')


def test_csv_roundtrip():
    a = RationalMatrix([["1/2", "-3"], [0, "2/7"]])
    assert RationalMatrix.from_csv(a.to_csv()) == a
    labelled = a.to_csv(row_labels=["r0", "r1"], col_labels=["c0", "c1"])
    assert RationalMatrix.from_csv(labelled, has_labels=True) == a


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(small_fractions, min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_inverse_is_two_sided_when_it_exists(rows):
    m = RationalMatrix(rows)
    try:
        inv = m.inverse()
    except SingularMatrix:
        assert m.nullspace_vector() is not None
        return
    assert m @ inv == RationalMatrix.identity(3)
    assert inv @ m == RationalMatrix.identity(3)


# ---------------------------------------------------------------------------
# The integer core against sympy's exact rationals
# ---------------------------------------------------------------------------

sympy = pytest.importorskip("sympy")

# numerators on both sides of 2**31 and 2**62 and past 2**63, so products and
# sums cross the int64 bound in both directions; mixed denominators
MAGNITUDES = [1, 2**31 - 1, 2**31 + 1, 2**62 - 1, 2**62 + 3, 2**63 + 5]
rationals = st.one_of(
    small_fractions,
    st.builds(lambda k, m, d: Fraction(k * m, d), st.integers(-2, 2),
              st.sampled_from(MAGNITUDES), st.sampled_from([1, 2, 3, 7, 2**40])),
)


def square(size):
    return st.lists(st.lists(rationals, min_size=size, max_size=size),
                    min_size=size, max_size=size)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(s):
    return [[Fraction(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)]


def assert_canonical(m):
    num, den = m._num, m._den
    assert isinstance(den, int) and den > 0
    assert math.gcd(den, *num.ravel().tolist()) == 1
    fits = all(abs(x) < 2**63 for x in num.ravel().tolist())
    assert num.dtype == (np.int64 if fits else object)
    assert not num.flags.writeable


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(square(n), square(n))))
def test_algebra_matches_sympy(pair):
    rows_a, rows_b = pair
    a, b = RationalMatrix(rows_a), RationalMatrix(rows_b)
    sa, sb = to_sympy(rows_a), to_sympy(rows_b)
    for got, want in ((a @ b, sa * sb), (a + b, sa + sb), (a - b, sa - sb),
                      (a.scale(Fraction(-3, 2**40)), sa * sympy.Rational(-3, 2**40))):
        assert_canonical(got)
        assert list(got) == from_sympy(want)
    assert a.apply(rows_b[0]) == [r[0] for r in from_sympy(sa * sb[0, :].T)]
    assert a.row_sums() == [sum(r, Fraction(0)) for r in rows_a]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(square))
def test_inverse_and_nullspace_match_sympy(rows):
    m, s = RationalMatrix(rows), to_sympy(rows)
    if s.det() == 0:
        with pytest.raises(SingularMatrix):
            m.inverse()
    else:
        inv = m.inverse()
        assert_canonical(inv)
        assert list(inv) == from_sympy(s.inv())
    # the kernel vector is the reduced-row-echelon one: first free column 1
    rref, pivots = s.rref()
    free = [c for c in range(s.cols) if c not in pivots]
    want = None
    if free:
        want = [Fraction(0)] * s.cols
        want[free[0]] = Fraction(1)
        for r, c in enumerate(pivots):
            want[c] = -Fraction(int(rref[r, free[0]].p), int(rref[r, free[0]].q))
    assert m.nullspace_vector() == want


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(rationals, min_size=n * (n + 1),
                                                      max_size=n * (n + 1)).map(
    lambda xs: [xs[i:i + n + 1] for i in range(0, len(xs), n + 1)])))
def test_wide_nullspace_matches_sympy(rows):
    m, s = RationalMatrix(rows), to_sympy(rows)
    v = m.nullspace_vector()
    assert v is not None and any(v)
    assert (s * sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in v])).is_zero_matrix


def test_int64_bound_on_both_sides():
    ones = RationalMatrix([[1], [1]])
    below = RationalMatrix([[2**61, 2**61]]) @ ones  # bound 2**62: int64 product
    above = RationalMatrix([[2**62, 2**62]]) @ ones  # bound 2**63: Python ints
    assert below._num.dtype == np.int64 and below[0, 0] == 2**62
    assert above._num.dtype == object and above[0, 0] == 2**63
    # the exact result fits again after cancellation, so it is stored as int64
    back = above - RationalMatrix([[2**62]])
    assert back._num.dtype == np.int64 and back[0, 0] == 2**62
    wide = RationalMatrix([[2**63 + 1, 1]])
    assert wide._num.dtype == object and wide.T.T == wide
    assert RationalMatrix([["1/2", "1/3"]]).scale(2**70)[0, 1] == Fraction(2**70, 3)


def test_canonical_form_and_hash():
    zero = RationalMatrix([["0/5", 0], [0, 0]])
    assert zero._den == 1 and zero == RationalMatrix.identity(2).scale(0)
    assert RationalMatrix([["2/4"]]) == RationalMatrix([["1/2"]])
    half = RationalMatrix([["1/2", 1], [0, "-3/4"]])
    routes = [
        half,
        RationalMatrix([[2, 4], [0, -3]]).scale(Fraction(1, 8)).scale(2),
        RationalMatrix.from_function(2, 2, lambda i, j: [[Fraction(2, 4), 1], [0, Fraction(-6, 8)]][i][j]),
        RationalMatrix(np.array([[2, 4], [0, -3]], dtype=np.int8)).scale("1/4"),
        half.scale(2**70).scale(Fraction(1, 2**70)),
        half.inverse().inverse(),
        half + RationalMatrix([["1/3", 0], [0, 0]]) - RationalMatrix([["2/6", 0], [0, 0]]),
    ]
    for m in routes:
        assert_canonical(m)
        assert m == routes[0] and hash(m) == hash(routes[0])
    for m in (zero, RationalMatrix([["-7/3"]]), RationalMatrix([[2**70, "1/2"]])):
        assert_canonical(m)


def test_malformed_json_is_invalid_parameter():
    for text in ("[1, 2]", '{"rows": 2}', '{"entries": 5}', '{"entries": [1, 2]}'):
        with pytest.raises(InvalidParameter):
            RationalMatrix.from_json(text)


def test_first_difference_witness():
    a = RationalMatrix([[1, "1/2"], [0, 1]])
    assert a._first_difference(a) is None
    assert a._first_difference(RationalMatrix([[1, "1/3"], [0, 1]])) == (0, 1)
    assert a._first_difference(RationalMatrix([[1, "1/2"], [5, 1]])) == (1, 0)
    assert a._first_difference(RationalMatrix([[1]])) == ((2, 2), (1, 1))
