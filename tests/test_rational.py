import json
import math
import operator
import re
from fractions import Fraction
from numbers import Rational
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebius_dual import RationalMatrix, format_fraction, parse_fraction, rational
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


def test_parse_fraction_passes_the_input_gate():
    # a bool is refused as a matrix entry is; numpy integers and rationals pass
    with pytest.raises(NonRationalEntry, match="bool entry True rejected"):
        parse_fraction(True)
    assert parse_fraction(np.int64(-3)) == -3 and parse_fraction(Fraction(2, 4)) == Fraction(1, 2)


def test_float_entries_rejected():
    with pytest.raises(NonRationalEntry):
        RationalMatrix([[0.5]])
    with pytest.raises(NonRationalEntry):
        RationalMatrix.diagonal([1, 2.0])


def test_boolean_entries_rejected():
    # bool is an int subclass; as a matrix entry it is a type error, not 1/0
    for build in (lambda: RationalMatrix([[True, False], [False, True]]),
                  lambda: RationalMatrix.diagonal([1, False]),
                  lambda: RationalMatrix.from_json('{"entries": [[1, true]]}')):
        with pytest.raises(NonRationalEntry, match="bool entry"):
            build()
    # a numpy bool array, such as a poset's order matrix, is 0/1 data
    assert RationalMatrix(np.eye(2, dtype=bool)) == RationalMatrix.identity(2)


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


def fraction_gate(s):
    """The string gate as it was before entries were parsed without Fraction:
    the same checks around Fraction's own string parser."""
    if isinstance(s, Rational):
        return Fraction(s)
    if isinstance(s, str):
        s = s.strip()
        if "." in s or "e" in s or "E" in s:
            raise NonRationalEntry(f"decimal notation {s!r} rejected; use \"p/q\"")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise NonRationalEntry(f"cannot parse rational {s!r}") from exc
    raise NonRationalEntry(f"not an exact rational: {s!r}")


def outcome(build):
    try:
        return "value", build()
    except Exception as exc:
        return type(exc), str(exc)


def assert_parsed_as_fraction_parses(s):
    assert outcome(lambda: parse_fraction(s)) == outcome(lambda: fraction_gate(s))
    # each matrix entry point against itself with Fraction's parser as the gate
    builds = (lambda: RationalMatrix([[s, "1/3"]]),
              lambda: RationalMatrix.from_json(json.dumps({"entries": [[s]]})),
              lambda: RationalMatrix.from_csv(f"1/3,{s}\n"))
    found = [outcome(build) for build in builds]
    with mock.patch.object(rational, "_parse_entry",
                           lambda t: fraction_gate(t).as_integer_ratio()):
        assert found == [outcome(build) for build in builds]


@pytest.mark.parametrize("s", [
    "3/-4", "3 /4", "3/ 4", "1/0", "0/0", "1_0/2_0", "1__0", "_1", "1_", "1/_2", "+", "-", "",
    " \t", "-0/5", "+7", "2/4", " -\u0661\u0662/\u0663\t", "1.5", "1e3", "1E3", "nan", "inf",
    "9" * 5000, "9" * 4300, "-" + "9" * 4300, "1/" + "9" * 4301, "1_" * 4300 + "1",
], ids=lambda s: s if len(s) < 20 else f"{len(s)} characters")
def test_entry_strings_parse_as_fraction_parses_them(s):
    assert_parsed_as_fraction_parses(s)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789\u0661\u0662+-/_.eE \t", max_size=12))
def test_any_entry_string_parses_as_fraction_parses_it(s):
    assert_parsed_as_fraction_parses(s)


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


# Elimination checks before each pivot that int64 still holds 2 max|a|**2 and
# runs on Python ints from the first pivot where it does not.  Entries of b
# bits give k-minors of about k b bits, so b > 34 / (n - 2) and b <= 29 put that
# switch on an inner pivot; a dependent column leaves a free column among them.
@st.composite
def switching_matrices(draw):
    n = draw(st.integers(4, 16))
    bits = draw(st.integers(-(-34 // (n - 2)) + 1, 29))
    cols = n + draw(st.sampled_from([0, 0, 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(2 ** (bits - 1), 2**bits, (n, cols)) * rng.choice([-1, 1], (n, cols))
    dependent = draw(st.sampled_from([None, None, 2, cols - 1]))
    if dependent is not None:
        a[:, dependent] = a[:, 0] - a[:, 1]
    return a


def pivot_steps(a, cols):
    """``_eliminate(a, cols)`` and the number of its pivot steps that ran on int64."""
    with mock.patch.object(rational, "_bound", wraps=rational._bound) as bound:
        out = rational._eliminate(a, cols)
    return out, bound.call_count - (out[0].dtype == object)


def assert_eliminated_as_on_python_ints(a, cols):
    """Elimination of the int64 array ``a`` switches to Python ints on an inner
    pivot and ends as the same run on Python ints from the first pivot does."""
    (out, pivots, d), int_steps = pivot_steps(a, cols)
    assert out.dtype == object and 1 <= int_steps < len(pivots)
    out_obj, pivots_obj, d_obj = rational._eliminate(a.astype(object), cols)
    assert (out.tolist(), pivots, d) == (out_obj.tolist(), pivots_obj, d_obj)
    return pivots, int_steps


@settings(max_examples=40, deadline=None)
@given(switching_matrices())
def test_elimination_switching_to_python_ints_mid_way_matches_sympy(a):
    pivots, _ = assert_eliminated_as_on_python_ints(a, a.shape[1])
    rows = a.tolist()
    m, s = RationalMatrix(rows), to_sympy(rows)
    if m.rows == m.cols and s.det() != 0:
        assert list(m.inverse()) == from_sympy(s.inv())
    rref, sympy_pivots = s.rref()
    assert sorted(pivots) == list(sympy_pivots)
    free = [c for c in range(s.cols) if c not in sympy_pivots]
    want = None
    if free:
        want = [Fraction(0)] * s.cols
        want[free[0]] = Fraction(1)
        for r, c in enumerate(sympy_pivots):
            want[c] = -Fraction(int(rref[r, free[0]].p), int(rref[r, free[0]].q))
    assert m.nullspace_vector() == want


def test_an_invariant_distribution_system_switches_to_python_ints_mid_way():
    # P' - I of a 16-state kernel with entries k/6, drawn as the benchmark
    # draws its random kernels: 12 pivots in int64, the last 3 on Python ints
    import random

    rng = random.Random(1)
    rows = [[0] * 16 for _ in range(16)]
    for row in rows:
        for _ in range(6):
            row[rng.randrange(16)] += 1
    system = RationalMatrix([[Fraction(x, 6) for x in row] for row in rows]).T - RationalMatrix.identity(16)
    pivots, int_steps = assert_eliminated_as_on_python_ints(system._num, 16)
    assert (len(pivots), int_steps) == (15, 12)
    s = to_sympy([[Fraction(x, 6) for x in row] for row in rows]).T - sympy.eye(16)
    (kernel,) = s.nullspace()
    v = system.nullspace_vector()
    assert [sympy.Rational(x.numerator, x.denominator) for x in v] == list(kernel / kernel[15])


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
    # a declared size must be a non-bool int equal to the size of the entries
    for field, text in (("rows", '{"rows": true, "cols": true, "entries": [["1"]]}'),
                        ("cols", '{"rows": 1, "cols": true, "entries": [["1"]]}'),
                        ("rows", '{"rows": "1", "entries": [["1"]]}'),
                        ("rows", '{"rows": 2, "cols": 1, "entries": [["1"]]}'),
                        ("cols", '{"rows": 1, "cols": 0, "entries": [["1"]]}')):
        with pytest.raises(InvalidParameter, match=f"matrix JSON {field} must be 1"):
            RationalMatrix.from_json(text)
    assert RationalMatrix.from_json('{"rows": 1, "cols": 1, "entries": [["1"]]}').shape == (1, 1)


@pytest.mark.parametrize("a, op, b", [
    ((1, 1), "+", (2, 2)), ((1, 2), "+", (2, 2)), ((2, 1), "-", (2, 2)), ((2, 2), "@", (1, 3)),
], ids=["1x1+2x2", "1x2+2x2", "2x1-2x2", "2x2@1x3"])
def test_mismatched_shapes_are_invalid_parameter(a, op, b):
    # numpy alone broadcasts + and - ([[5]] plus the 2x2 identity reads "6 5; 5 6")
    # and fails @ with its own message; the error names both shapes instead
    x, y = RationalMatrix(np.ones(a, dtype=np.int64)), RationalMatrix(np.ones(b, dtype=np.int64))
    with pytest.raises(InvalidParameter, match=f"{re.escape(str(a))}.*{re.escape(str(b))}"):
        {"+": operator.add, "-": operator.sub, "@": operator.matmul}[op](x, y)


def test_apply_rejects_a_vector_of_the_wrong_length():
    m = RationalMatrix.identity(3)
    for vector in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(InvalidParameter, match=rf"shape \(3, 3\) to a vector of length {len(vector)}"):
            m.apply(vector)


def test_first_difference_witness():
    a = RationalMatrix([[1, "1/2"], [0, 1]])
    assert a._first_difference(a) is None
    assert a._first_difference(RationalMatrix([[1, "1/3"], [0, 1]])) == (0, 1)
    assert a._first_difference(RationalMatrix([[1, "1/2"], [5, 1]])) == (1, 0)
    assert a._first_difference(RationalMatrix([[1]])) == ((2, 2), (1, 1))


# Entries leave the matrix through one string or Fraction per distinct
# numerator; each view must read as if every entry were made on its own.
_numerators = st.one_of(st.integers(-7, 7), st.integers(2**63, 2**80), st.integers(-2**80, -2**63))


@st.composite
def numerator_matrices(draw):
    rows, cols = draw(st.sampled_from([(1, 1), (1, 5), (5, 1), (2, 3), (4, 4)]))
    nums = draw(st.lists(st.lists(_numerators, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    if draw(st.booleans()):
        nums = [[x % 5 for x in row] for row in nums]  # many repeats, all in int64
    return nums, draw(st.sampled_from([1, 2, 6, 2**64 + 1]))


def _per_entry_views(m):
    """The entries of ``m`` made one by one from its numerators and denominator:
    Fractions and their strings."""
    fractions = [[Fraction(x, m._den) for x in row] for row in m._num.tolist()]
    return fractions, [[format_fraction(f) for f in row] for row in fractions]


@settings(max_examples=150, deadline=None)
@given(numerator_matrices())
def test_views_match_per_entry_reference(case):
    nums, den = case
    m = RationalMatrix([[Fraction(x, den) for x in row] for row in nums])
    assert m._num.dtype == (object if max(abs(x) for r in m._num.tolist() for x in r) > 2**63 - 1
                            else np.int64)
    fractions, strings = _per_entry_views(m)
    assert fractions == [[Fraction(x, den) for x in row] for row in nums]
    assert m._strings() == strings
    assert repr(m) == f"RationalMatrix({m.rows}x{m.cols}: {'; '.join(map(' '.join, strings))})"
    assert m.to_json() == json.dumps({"rows": m.rows, "cols": m.cols, "entries": strings}, indent=2)
    labels = [f"s{i}" for i in range(max(m.shape))]
    assert m.to_csv() == "".join(",".join(row) + "\n" for row in strings)
    assert m.to_csv(labels[:m.rows], labels[:m.cols]) == "".join(
        ",".join(row) + "\n"
        for row in [[""] + labels[:m.cols]] + [[labels[i]] + r for i, r in enumerate(strings)])
    views = [list(m), [m.row(i) for i in range(m.rows)], m.array().tolist(),
             [m[i, :] for i in range(m.rows)]]
    for view in views:
        assert view == fractions
        assert all(type(x) is Fraction for row in view for x in row)
    vector = [Fraction(j + 1, 3) for j in range(m.cols)]
    image = m.apply(vector)
    assert image == [sum((f * v for f, v in zip(row, vector)), Fraction(0)) for row in fractions]
    sums = m.row_sums()
    assert sums == [sum(row, Fraction(0)) for row in fractions]
    assert all(type(x) is Fraction for x in image + sums)
    # the Fraction array is the caller's to write
    a = m.array()
    a[0, 0] = Fraction(-99)
    assert list(m) == fractions



@settings(max_examples=100, deadline=None)
@given(numerator_matrices())
def test_transpose_wraps_what_the_canonical_path_would(case):
    # .T skips the gcd pass of _wrap: int64 and Python-int numerators alike
    # come out as _wrap would make them
    nums, den = case
    m = RationalMatrix([[Fraction(x, den) for x in row] for row in nums])
    got, want = m.T, RationalMatrix._wrap(m._num.T.copy(), m._den)
    assert got._num.tolist() == want._num.tolist() and got._den == want._den
    assert got._num.dtype == want._num.dtype and type(got) is type(want) is RationalMatrix
    assert not got._num.flags.writeable and not want._num.flags.writeable
    assert got == want and got.T == m

@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (3, 3)])
def test_zero_matrix_views(shape):
    m = RationalMatrix(np.zeros(shape, dtype=np.int64))
    zeros = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
    assert m._den == 1 and list(m) == m.array().tolist() == zeros
    assert m._strings() == [["0"] * shape[1] for _ in range(shape[0])]
    assert m.to_csv() == (",".join(["0"] * shape[1]) + "\n") * shape[0]
    assert m.row_sums() == [0] * shape[0] and m.apply([1] * shape[1]) == [0] * shape[0]


def test_mixed_entry_types_each_pass_the_gate():
    # True == 1 == 1.0 as dict keys, so only an all-string list is deduplicated
    for rows in ([[1, True]], [["1", True]]):
        with pytest.raises(NonRationalEntry, match="bool entry True"):
            RationalMatrix(rows)
    with pytest.raises(NonRationalEntry, match="float entry 1.0"):
        RationalMatrix([["1/2", 1.0]])
    m = RationalMatrix([[np.int64(2), "1/3"]])
    assert m == RationalMatrix([["2", "1/3"]]) and list(m) == [[2, Fraction(1, 3)]]
    assert m._num.dtype == np.int64


def test_string_entries_are_parsed_once_each_and_the_first_bad_one_is_named():
    rows = [["1/3", "x"], ["1/3", "y"]]
    builds = (lambda: RationalMatrix(rows),
              lambda: RationalMatrix.from_json(json.dumps({"entries": rows})),
              lambda: RationalMatrix.from_csv("1/3,x\n1/3,y\n"))
    for build in builds:
        with pytest.raises(NonRationalEntry, match="cannot parse rational 'x'"):
            build()
        parsed = []

        def gate(t):
            parsed.append(t)
            return fraction_gate(t).as_integer_ratio()

        halves = RationalMatrix([["1/2", "1/2"], ["1/2", 0]])
        with mock.patch.object(rational, "_parse_entry", gate):
            with pytest.raises(NonRationalEntry, match="cannot parse rational 'x'"):
                build()
            assert parsed == ["1/3", "x"]
            parsed.clear()
            assert RationalMatrix.from_csv("1/2,2/4\n1/2,0\n") == halves
            assert parsed == ["1/2", "2/4", "0"]
