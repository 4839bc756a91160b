import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from cspiso.algebra import binary_from_rows, equality_function, unary_function
from cspiso.corpus import random_cfset, random_instance
from cspiso.instances import (
    CFSet,
    InstanceError,
    LabeledInstance,
    forget_labels,
    is_simple,
    power,
    product,
    replace_functions,
    same_up_to_renaming,
    unit_instance,
)
from cspiso.partition import pinned_partition
from cspiso.witnesses import pli_candidates, probe_stream


def single_constraint(k, j, vs, labels):
    variables = tuple(dict.fromkeys(labels + vs))
    return LabeledInstance(variables, ((j, vs),), labels)


def test_labels_must_be_injective():
    with pytest.raises(InstanceError):
        LabeledInstance(("a", "b"), (), ("a", "a"))


def test_product_identity_and_commutativity():
    rng = random.Random(11)
    fset = random_cfset(rng, 2, 2)
    for _ in range(20):
        k = rng.randint(0, 2)
        inst = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        other = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        assert same_up_to_renaming(product(inst, unit_instance(k)), inst)
        assert same_up_to_renaming(product(inst, other), product(other, inst))


def test_product_associativity():
    # canonical renaming is factorial in the free variables, so keep the
    # factors small
    rng = random.Random(12)
    fset = random_cfset(rng, 2, 1)
    for _ in range(8):
        k = rng.randint(1, 2)
        a, b, c = (random_instance(rng, fset, 2, k) for _ in range(3))
        assert same_up_to_renaming(product(product(a, b), c), product(a, product(b, c)))


def test_product_merges_exactly_the_labels():
    # two 1-labeled single-constraint instances: the labeled variable is
    # shared, the free variables stay apart
    k1 = LabeledInstance(("u", "x"), ((0, ("u", "x")),), ("u",))
    k2 = LabeledInstance(("v", "y"), ((0, ("y", "v")),), ("v",))
    merged = product(k1, k2)
    assert len(merged.variables) == 3
    assert merged.k == 1
    (label,) = merged.labels
    occurrences = [vs for _, vs in merged.constraints]
    assert sorted(vs.index(label) for vs in occurrences) == [0, 1]


def test_power_multiplies_pinned_values():
    # Z^psi is multiplicative over the labeled product, so K^h evaluates to
    # the h-th power of K's value; K^0 is the unit instance.  Entries are
    # nonzero so that the values are too.
    rng = random.Random(13)
    for _ in range(12):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, 2, entry_pool=(1, 2, -1, Fraction(1, 2)), weighted=True)
        k = rng.randint(0, 2)
        inst = random_instance(rng, fset, k + rng.randint(1, 2), k)
        psi = tuple(rng.randrange(q) for _ in range(k))
        z = pinned_partition(fset, inst, psi)
        assert power(inst, 0) == unit_instance(k)
        for h in range(1, 4):
            assert pinned_partition(fset, power(inst, h), psi) == z ** h
    with pytest.raises(InstanceError):
        power(unit_instance(1), -1)


def test_is_simple():
    assert is_simple(unit_instance(3))
    loop = LabeledInstance(("v",), ((0, ("v", "v")),))
    assert not is_simple(loop)
    label_only = LabeledInstance(("a", "b"), ((0, ("a", "b")),), ("a", "b"))
    assert not is_simple(label_only)
    duplicate_up_to_order = LabeledInstance(
        ("a", "b"), ((0, ("a", "b")), (0, ("b", "a")))
    )
    assert not is_simple(duplicate_up_to_order)
    fine = LabeledInstance(("a", "b"), ((0, ("a", "b")), (1, ("a", "b"))))
    assert is_simple(fine)


def test_simple_closed_under_product():
    rng = random.Random(13)
    fset = random_cfset(rng, 2, 2)
    found = 0
    while found < 10:
        k = rng.randint(0, 2)
        a = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        b = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        if is_simple(a) and is_simple(b):
            prod = product(a, b)
            # gluing can create duplicates through the shared labels, which
            # is exactly what the label-only exclusion rules out
            assert is_simple(prod)
            found += 1


def test_replace_functions_is_structural():
    fset = CFSet((equality_function(2, 2),))
    gset = CFSet((binary_from_rows([[1, 2], [3, 4]]),))
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),))
    assert replace_functions(inst, fset, gset) == inst
    assert replace_functions(replace_functions(inst, fset, gset), gset, fset) == inst


def test_replace_functions_requires_compatibility():
    fset = CFSet((equality_function(2, 2),))
    hset = CFSet((unary_function((1, 1)),))
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),))
    with pytest.raises(InstanceError):
        replace_functions(inst, fset, hset)


def test_replace_commutes_with_product():
    rng = random.Random(14)
    from cspiso.corpus import random_function

    fset = random_cfset(rng, 2, 2)
    gset = CFSet(tuple(random_function(rng, 3, f.arity) for f in fset.functions))
    k1 = random_instance(rng, fset, 3, 1)
    k2 = random_instance(rng, fset, 3, 1)
    lhs = product(replace_functions(k1, fset, gset), replace_functions(k2, fset, gset))
    rhs = replace_functions(product(k1, k2), fset, gset)
    assert lhs == rhs


def test_forget_labels():
    inst = LabeledInstance(("a", "b", "c"), ((0, ("a", "b")),), ("a", "b"))
    assert forget_labels(inst, 2) == inst
    dropped = forget_labels(inst, 1)
    assert dropped.labels == ("a",)
    assert dropped.constraints == inst.constraints
    assert forget_labels(inst, 0).labels == ()
    with pytest.raises(InstanceError):
        forget_labels(inst, 3)


def test_forget_labels_on_unit():
    u = unit_instance(4)
    dropped = forget_labels(u, 2)
    assert dropped.k == 2
    assert len(dropped.variables) == 4


def test_probe_order_is_pinned():
    """``distinguish`` reads these streams in order, so their order is part
    of its output; the digests pin it."""
    prefixes = [
        (probe_stream((1, 2), 1), 120,
         "94698cebabdf7108561e0d00f05a841ecc8310bd7f921449750b8ab6e2e12482"),
        (pli_candidates((2,), 1, 6), 300,
         "e5c7c881f96c6c66e5f4c228e0b5b4d950e86748f5150ee8da2579117f72fb75"),
        (probe_stream((1, 1), 1), None,
         "7958e80a94c92d1b05dccc52257701b2a4507df4fb472ab9a527709b4238f0ee"),
    ]
    for stream, n, digest in prefixes:
        probes = list(itertools.islice(stream, n))
        assert n is None or len(probes) == n
        assert hashlib.sha256(repr(probes).encode()).hexdigest() == digest
