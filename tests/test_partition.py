import random
from fractions import Fraction

import pytest

from cspiso.algebra import (
    ConstraintFunction,
    all_tuples,
    binary_from_rows,
    gaussian,
)
from cspiso.corpus import random_cfset, random_instance
from cspiso.instances import CFSet, LabeledInstance, product, unit_instance
from cspiso.partition import (
    TermCapExceeded,
    _sum_product,
    partition_function,
    pinned_partition,
)
from cspiso.structure import automorphisms


def test_free_variable_counts_domain():
    fset = CFSet((binary_from_rows([[1, 1], [1, 1]]),))
    inst = LabeledInstance(("v",), ())
    assert partition_function(fset, inst) == 2


def test_single_edge_counts_homomorphisms():
    adjacency = binary_from_rows([[0, 1], [1, 0]])
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),))
    assert partition_function(CFSet((adjacency,)), inst) == 2


def test_loop_sums_the_diagonal():
    fn = binary_from_rows([[1, 0], [0, 2]])
    inst = LabeledInstance(("v",), ((0, ("v", "v")),))
    assert partition_function(CFSet((fn,)), inst) == 3


def test_pinned_with_no_labels_is_the_partition_function():
    rng = random.Random(21)
    for _ in range(10):
        fset = random_cfset(rng, rng.randint(1, 3), rng.randint(1, 2), weighted=True)
        inst = random_instance(rng, fset, rng.randint(1, 3))
        assert pinned_partition(fset, inst, ()) == partition_function(fset, inst)


def test_pinned_unit_instance_is_one():
    rng = random.Random(22)
    fset = random_cfset(rng, 3, 1, weighted=True)
    for psi in all_tuples(3, 2):
        assert pinned_partition(fset, unit_instance(2), psi) == 1


def test_pinned_decomposition_of_partition_function():
    rng = random.Random(23)
    for _ in range(10):
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True)
        inst = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        total = 0
        for psi in all_tuples(q, k):
            weight = 1
            for value in psi:
                weight = weight * fset.weight(value)
            total = total + weight * pinned_partition(fset, inst, psi)
        assert total == partition_function(fset, inst)


def test_pinned_multiplicativity():
    rng = random.Random(24)
    for _ in range(30):
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True)
        k1 = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        k2 = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        glued = product(k1, k2)
        for psi in all_tuples(q, k):
            assert pinned_partition(fset, glued, psi) == pinned_partition(
                fset, k1, psi
            ) * pinned_partition(fset, k2, psi)


def test_relabeling_covariance_under_automorphisms():
    rng = random.Random(25)
    for _ in range(10):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        k = rng.randint(1, 2)
        inst = random_instance(rng, fset, rng.randint(k, 4), k)
        for sigma in automorphisms(fset):
            for phi in all_tuples(q, k):
                moved = tuple(sigma[x] for x in phi)
                assert pinned_partition(fset, inst, moved) == pinned_partition(
                    fset, inst, phi
                )


def test_enumeration_cost_is_transparent():
    fset = CFSet((binary_from_rows([[1, 1], [1, 1]]),))
    big = LabeledInstance(tuple(f"v{i}" for i in range(30)), ())
    with pytest.raises(TermCapExceeded) as err:
        partition_function(fset, big)
    assert err.value.terms == 2 ** 30
    # a generous cap allows it
    small = LabeledInstance(("a", "b", "c"), ())
    assert partition_function(fset, small, cap=8) == 8


def test_weighted_partition_value():
    fset = CFSet((binary_from_rows([[1, 0], [0, 1]]),), weights=(Fraction(1, 2), 3))
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),))
    # identity constraint forces a == b: (1/2)^2 + 3^2
    assert partition_function(fset, inst) == Fraction(1, 4) + 9


def _naive_sum_product(q, factors, values, n_fixed, scalar=1):
    """Oracle for ``_sum_product``: the full product, rebuilt for every
    assignment of the free suffix in lexicographic order."""
    n = len(values)
    total = 0
    while True:
        term = scalar
        for entries, positions in factors:
            idx = 0
            for p in positions:
                idx = idx * q + values[p]
            term = term * entries[idx]
        total = total + term
        pos = n - 1
        while pos >= n_fixed and values[pos] == q - 1:
            values[pos] = 0
            pos -= 1
        if pos < n_fixed:
            return total
        values[pos] += 1


def _random_entry(rng, kind):
    if rng.random() < 0.3:
        return 0
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return gaussian(rng.randint(-2, 2), rng.randint(-2, 2))


def test_sum_product_matches_the_naive_oracle():
    rng = random.Random(26)
    for trial in range(600):
        q = rng.randint(1, 4)
        n = rng.randint(0, 5 if q < 4 else 4)
        n_fixed = rng.randint(0, n)
        kind = ("int", "fraction", "gaussian")[trial % 3]
        factors = []
        for _ in range(rng.randint(0, 4)):
            arity = rng.randint(0, 3) if n else 0
            positions = tuple(rng.randrange(n) for _ in range(arity))  # may repeat
            factors.append(([_random_entry(rng, kind) for _ in range(q ** arity)], positions))
        scalar = 0 if trial % 25 == 0 else _random_entry(rng, kind) or 1
        pins = [rng.randrange(q) for _ in range(n_fixed)]
        values = pins + [0] * (n - n_fixed)
        got = _sum_product(q, factors, values, n_fixed, scalar)
        assert values == pins + [0] * (n - n_fixed)
        assert got == _naive_sum_product(q, factors, list(values), n_fixed, scalar)


def _zero_rows(rng, q, positions, entries, last):
    """Zero every entry where one slot other than ``last`` takes one value,
    so the rows read there are all zero."""
    slots = [j for j, p in enumerate(positions) if p != last]
    if not slots:
        return entries
    place = q ** (len(positions) - 1 - rng.choice(slots))
    v = rng.randrange(q)
    return [0 if i // place % q == v else x for i, x in enumerate(entries)]


def test_sum_product_rows_match_the_naive_oracle():
    """The row-at-a-time walk at n = 6-7: the last variable of a factor in
    two or three of its slots, factors on that variable alone (several at
    one depth, and next to pins only), a free depth where no factor ends,
    zero rows, q = 1, and int, Fraction and Gaussian entries."""
    rng = random.Random(28)
    for trial in range(200):
        q = 1 if trial % 10 == 0 else 2 + trial % 2
        n = rng.randint(6, 7)
        n_fixed = rng.randint(0, 2)
        kind = ("int", "fraction", "gaussian")[trial % 3]
        bare = rng.randrange(n_fixed, n)
        factors = []
        for last in range(n):
            if last == bare:
                continue
            for _ in range(rng.randint(0, 2)):  # only slots of ``last``
                arity = rng.randint(1, 3)
                factors.append(([_random_entry(rng, kind) for _ in range(q ** arity)], (last,) * arity))
            for _ in range(rng.randint(1, 2) if last else 0):
                repeats = rng.randint(1, 3)
                positions = [last] * repeats + [rng.randrange(last) for _ in range(rng.randint(1, 4 - repeats))]
                rng.shuffle(positions)
                entries = [_random_entry(rng, kind) for _ in range(q ** len(positions))]
                if rng.random() < 0.3:
                    entries = _zero_rows(rng, q, positions, entries, last)
                factors.append((entries, tuple(positions)))
        scalar = _random_entry(rng, kind) or 1
        pins = [rng.randrange(q) for _ in range(n_fixed)]
        values = pins + [0] * (n - n_fixed)
        got = _sum_product(q, factors, values, n_fixed, scalar)
        assert values == pins + [0] * (n - n_fixed)
        assert got == _naive_sum_product(q, factors, list(values), n_fixed, scalar)


class _CountingEntries:
    def __init__(self, entries):
        self.entries = entries
        self.reads = 0

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, idx):
        got = self.entries[idx]
        self.reads += len(got) if isinstance(idx, slice) else 1  # a row counts its entries
        return got


def test_sum_product_skips_subtrees_below_a_zero():
    q, n = 8, 6
    c8 = binary_from_rows([[int((i - j) % q in (1, q - 1)) for j in range(q)] for i in range(q)])
    counting = _CountingEntries(c8.entries)
    path = [(counting, (i, i + 1)) for i in range(n - 1)]
    value = _sum_product(q, path, [0] * n, 0)
    naive = _naive_sum_product(q, [(c8.entries, pos) for _, pos in path], [0] * n, 0)
    assert value == naive == q * 2 ** (n - 1)
    assert counting.reads < q ** n // 10


def test_negative_term_cap_is_bad_input():
    fset = CFSet((binary_from_rows([[1, 1], [1, 1]]),))
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),), ("a",))
    with pytest.raises(ValueError, match="term cap"):
        pinned_partition(fset, inst, (0,), cap=-1)
    with pytest.raises(ValueError, match="term cap"):
        partition_function(fset, inst, cap=-5)
    assert partition_function(fset, inst, cap=4) == 4


def _table_entry(rng, kind):
    """Zeros, and rationals over mixed and negative denominators, also as
    the parts of Gaussian entries."""
    if rng.random() < 0.25:
        return Fraction(0) if kind == "fraction" else 0
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, -4, -6)))
    return gaussian(Fraction(rng.randint(-2, 2), rng.choice((1, 2, -3))),
                    Fraction(rng.randint(-2, 2), rng.choice((1, 3, -4))))


def _mixed_cfset(rng, q, kinds):
    functions = tuple(
        ConstraintFunction(q, arity, tuple(_table_entry(rng, kind) for _ in range(q ** arity)))
        for arity, kind in zip((1, 2, 1 if q == 4 else 3), kinds)
    )
    weights = None
    if rng.random() < 0.4:
        weights = tuple(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, -4)))
                        for _ in range(q))
    return CFSet(functions, weights)


def _assert_direct_type(got, direct):
    """``direct`` is the kernel's sum over the original tables, which is how
    ``pinned_partition`` summed before it used integer tables.  The type is
    the same, except that a whole number is an ``int``, as every scalar
    ``algebra`` normalizes (the direct sum over Fraction tables gives
    ``Fraction(k)``)."""
    whole = type(direct) is Fraction and direct.denominator == 1
    assert type(got) is (int if whole else type(direct))


def test_integer_tables_match_the_naive_oracle():
    """``pinned_partition`` and ``partition_function`` sum integer tables and
    divide once; the oracle and the kernel itself sum the original tables."""
    rng = random.Random(27)
    for trial in range(300):
        q = 1 + trial % 4
        kinds = [rng.choice(("int", "fraction", "gaussian")) for _ in range(3)]
        if trial % 5 == 0:
            kinds = ["int"] * 3
        fset = _mixed_cfset(rng, q, kinds)
        n = rng.randint(1, 5 if q < 4 else 4)
        k = rng.randint(0, min(n, 2))
        inst = random_instance(rng, fset, n, k, rng.randint(0, 4))
        psi = tuple(rng.randrange(q) for _ in range(k))
        unlabeled = LabeledInstance(inst.variables, inst.constraints)
        for labeled, pins, got in ((inst, psi, pinned_partition(fset, inst, psi)),
                                   (unlabeled, (), partition_function(fset, inst))):
            order = list(labeled.labels) + list(labeled.unlabeled_variables())
            position = {v: i for i, v in enumerate(order)}
            factors = [(fset.functions[j].entries, tuple(position[v] for v in vs))
                       for j, vs in labeled.constraints]
            if fset.weights is not None:
                factors += [(fset.weights, (i,)) for i in range(len(pins), len(order))]
            values = list(pins) + [0] * (len(order) - len(pins))
            direct = _sum_product(q, factors, list(values), len(pins))
            assert got == direct == _naive_sum_product(q, factors, values, len(pins))
            _assert_direct_type(got, direct)
            if kinds == ["int"] * 3 and fset.weights is None:
                assert type(got) is int
