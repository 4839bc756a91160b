import random
from fractions import Fraction

import pytest

from cspiso.algebra import (
    AlgebraError,
    ConstraintFunction,
    all_tuples,
    binary_from_rows,
    conjugate_function,
    conjugate_scalar,
    equality_function,
    evaluate,
    flatten,
    format_scalar,
    gaussian,
    parse_scalar,
    scalar_inverse,
    tuple_to_index,
    unflatten,
)


def test_equality_function_evaluation():
    e3 = equality_function(2, 3)
    assert evaluate(e3, (0, 0, 0)) == 1
    assert evaluate(e3, (0, 1, 0)) == 0
    assert evaluate(e3, (1, 1, 1)) == 1


def test_evaluate_is_row_major_indexing():
    rng = random.Random(1)
    fn = ConstraintFunction(3, 2, tuple(rng.randint(-3, 3) for _ in range(9)))
    for xs in all_tuples(3, 2):
        assert evaluate(fn, xs) == fn.entries[tuple_to_index(xs, 3)]


def test_evaluate_errors():
    fn = equality_function(2, 2)
    with pytest.raises(AlgebraError):
        evaluate(fn, (0,))
    with pytest.raises(AlgebraError):
        evaluate(fn, (0, 2))


def test_flatten_binary():
    fn = binary_from_rows([["a1", "b1"], ["c1", "d1"]])  # symbolic-ish strings
    m = flatten(fn, 1, 1)
    assert m.data == (("a1", "b1"), ("c1", "d1"))
    col = flatten(fn, 2, 0)
    assert col.data == (("a1",), ("b1",), ("c1",), ("d1",))


def test_flatten_ternary_column_digits_reversed():
    rng = random.Random(2)
    fn = ConstraintFunction(2, 3, tuple(rng.randint(0, 5) for _ in range(8)))
    m = flatten(fn, 1, 2)
    for (x1, x2, x3) in all_tuples(2, 3):
        col = x3 * 2 + x2  # most significant digit is the last argument
        assert m.data[x1][col] == evaluate(fn, (x1, x2, x3))


def test_flatten_unflatten_round_trip_and_multiset():
    rng = random.Random(3)
    fn = ConstraintFunction(2, 3, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)))
    entries = sorted(map(str, fn.entries))
    for m in range(4):
        flat = flatten(fn, m, 3 - m)
        assert sorted(str(x) for row in flat.data for x in row) == entries
        assert unflatten(flat, 2, m, 3 - m) == fn


def test_flatten_split_errors():
    fn = equality_function(2, 2)
    with pytest.raises(AlgebraError):
        flatten(fn, 2, 1)


def test_conjugation():
    rational = binary_from_rows([[1, Fraction(1, 2)], [0, 3]])
    assert conjugate_function(rational) is rational
    z = gaussian(1, 2)
    assert conjugate_scalar(z) == gaussian(1, -2)
    complex_fn = ConstraintFunction(2, 1, (z, 1))
    assert conjugate_function(conjugate_function(complex_fn)) == complex_fn


def test_gaussian_field_arithmetic():
    a = gaussian(Fraction(1, 2), Fraction(2, 3))
    b = gaussian(3, -1)
    assert a + b == gaussian(Fraction(7, 2), Fraction(-1, 3))
    assert a * b == gaussian(Fraction(1, 2) * 3 + Fraction(2, 3), 2 - Fraction(1, 2))
    assert (a / b) * b == a
    assert a * scalar_inverse(a) == 1
    # demotion to rationals when the imaginary part cancels
    assert isinstance(gaussian(5, 1) + gaussian(2, -1), int)
    assert gaussian(1, 1) * gaussian(1, -1) == 2


def test_gaussian_powers():
    i = gaussian(0, 1)
    assert i ** 2 == -1
    assert i ** 0 == 1
    assert (gaussian(1, 1)) ** 4 == -4


def test_exact_sum_matches_independent_computation():
    a, b = Fraction(1, 3), Fraction(2, 7)
    total = a + b
    assert total == Fraction(1 * 7 + 2 * 3, 21)
    assert total - b == a


@pytest.mark.parametrize(
    "text", ["3", "-2", "3/7", "-1/2", "1/2+2/3i", "-1/2-2/3i", "2i", "-i", "0"]
)
def test_scalar_parse_format_round_trip(text):
    value = parse_scalar(text)
    assert parse_scalar(format_scalar(value)) == value


def test_scalar_parse_errors():
    for bad in ["", "one", "1/2+", "i2", "1/0", "1+1/0i"]:
        with pytest.raises(AlgebraError):
            parse_scalar(bad)
