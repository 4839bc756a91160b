import itertools
import random
from fractions import Fraction

import pytest

from cspiso.algebra import (
    AlgebraError,
    ConstraintFunction,
    GaussianRational,
    _norm_rational,
    all_tuples,
    binary_from_rows,
    conjugate_function,
    conjugate_scalar,
    equality_function,
    evaluate,
    exact_quotient,
    flatten,
    format_scalar,
    gaussian,
    integer_form,
    parse_scalar,
    scalar_inverse,
    scalar_sort_key,
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


def test_all_tuples_of_an_empty_domain():
    # islice, so that an endless generator fails instead of hanging
    assert list(itertools.islice(all_tuples(0, 1), 3)) == []
    assert list(itertools.islice(all_tuples(0, 2), 3)) == []
    assert list(all_tuples(0, 0)) == [()]


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


def _seeded_scalars(rng, count):
    pool = []
    for _ in range(count):
        re = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, -4)))))
        im = rng.choice((0, rng.randint(-2, 2), Fraction(rng.randint(-3, 3), rng.choice((2, -3)))))
        pool.append(gaussian(re, im) if rng.random() < 0.5 else re)
    return pool


def test_norm_rational_returns_plain_ints():
    assert type(_norm_rational(True)) is int and _norm_rational(True) == 1
    assert type(gaussian(Fraction(4, 2), 0)) is int and gaussian(Fraction(4, 2), 0) == 2
    half = Fraction(1, 2)
    assert _norm_rational(half) is half
    assert type(_norm_rational(Fraction(-6, 3))) is int


def test_gaussian_hash_is_the_hash_of_its_fraction_parts():
    rng = random.Random(11)
    for x in _seeded_scalars(rng, 200):
        if isinstance(x, GaussianRational):
            assert hash(x) == hash((Fraction(x.re), Fraction(x.im)))
        else:
            assert hash(GaussianRational(x, 0)) == hash(x)


def _fraction_sort_key(x):
    """The key as it was: every part a ``Fraction``."""
    if isinstance(x, GaussianRational):
        return (Fraction(x.re), Fraction(x.im))
    return (Fraction(x), Fraction(0))


def test_scalar_sort_key_keeps_the_fraction_order():
    rng = random.Random(12)
    values = _seeded_scalars(rng, 300)
    ours = sorted(values, key=scalar_sort_key)
    theirs = sorted(values, key=_fraction_sort_key)
    assert all(a is b for a, b in zip(ours, theirs))
    for a, b in zip(values, values[1:]):
        assert (scalar_sort_key(a) < scalar_sort_key(b)) == (_fraction_sort_key(a) < _fraction_sort_key(b))


def test_integer_form_of_tables():
    ints = (0, 3, -2)
    assert ConstraintFunction(3, 1, ints)._int_entries is ints
    entries = (Fraction(1, 2), Fraction(-2, 3), gaussian(Fraction(1, 4), Fraction(1, 5)), 5)
    fn = ConstraintFunction(2, 2, entries)
    assert fn._den == 60
    assert fn._int_entries == (30, -40, gaussian(15, 12), 300)
    assert all(type(x) is int or type(x.re) is type(x.im) is int for x in fn._int_entries)
    assert integer_form((Fraction(3), Fraction(5, -10))) == ((6, -1), 2)
    whole = integer_form((Fraction(3), 1))
    assert whole == ((3, 1), 1) and type(whole[0][0]) is int
    assert exact_quotient(6, 4) == Fraction(3, 2) and exact_quotient(0, 4) == 0
    assert type(exact_quotient(8, 4)) is int and exact_quotient(8, 4) == 2
    assert exact_quotient(gaussian(2, 4), 4) == gaussian(Fraction(1, 2), 1)
