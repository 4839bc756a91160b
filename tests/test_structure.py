import random
from fractions import Fraction

import pytest

from cspiso.algebra import (
    AlgebraError,
    ConstraintFunction,
    all_tuples,
    binary_from_rows,
    constant_function,
    equality_function,
    evaluate,
    gaussian,
    permute_domain,
    tuple_to_index,
    unary_function,
)
from cspiso.corpus import random_cfset, random_function, random_instance
from cspiso.interpolation import distinguish
from cspiso.intertwiners import witness_sigma
from cspiso.instances import CFSet, CompatibilityError, LabeledInstance, replace_functions
from cspiso.partition import partition_function, pinned_partition
from cspiso.structure import (
    ContractionError,
    augment_universal,
    automorphisms,
    configuration_index,
    connected_components,
    contract_twins,
    direct_sum,
    direct_sum_sets,
    find_isomorphisms,
    instance_connected,
    is_isomorphism,
    isomorphisms,
    restrict_instance,
    twin_classes,
)


def test_configuration_index_shapes():
    fset = CFSet((unary_function((1, 2)), equality_function(2, 2)))
    jc = configuration_index(fset)
    # unary contributes 1 cell, binary contributes q * 2
    assert len(jc) == 1 + 2 * 2
    assert (0, (), 0) in jc


def test_twin_classes_examples():
    allones = CFSet((constant_function(2, 2),))
    assert twin_classes(allones) == ((0, 1),)
    eq = CFSet((equality_function(2, 2),))
    assert twin_classes(eq) == ((0,), (1,))
    unary = CFSet((unary_function((3, 3, 5)),))
    assert twin_classes(unary) == ((0, 1), (2,))


def test_contract_twins_identity_on_twin_free():
    eq = CFSet((equality_function(2, 2),))
    contraction = contract_twins(eq)
    assert contraction.contracted == eq
    assert twin_classes(contraction.contracted) == ((0,), (1,))


def test_contract_twins_all_ones():
    allones = CFSet((constant_function(2, 2),), weights=(1, 1))
    contraction = contract_twins(allones)
    assert contraction.contracted.q == 1
    assert contraction.contracted.weights == (2,)
    assert contraction.contracted.functions[0].entries == (1,)


def test_contracted_set_is_twin_free_and_preserves_z():
    rng = random.Random(31)
    for _ in range(30):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True, positive_weights=True)
        contraction = contract_twins(fset)
        assert len(twin_classes(contraction.contracted)) == contraction.contracted.q
        inst = random_instance(rng, fset, rng.randint(1, 3))
        replaced = replace_functions(inst, fset, contraction.contracted)
        assert partition_function(contraction.contracted, replaced) == partition_function(fset, inst)


def test_contract_twins_signals_vanishing_weight():
    allones = CFSet((constant_function(2, 1),), weights=(1, -1))
    with pytest.raises(ContractionError):
        contract_twins(allones)


def test_is_isomorphism_examples():
    eq = CFSet((equality_function(2, 2),))
    assert is_isomorphism((0, 1), eq, eq)
    assert is_isomorphism((1, 0), eq, eq)
    f = CFSet((binary_from_rows([[1, 0], [0, 2]]),))
    g = CFSet((binary_from_rows([[2, 0], [0, 1]]),))
    assert is_isomorphism((1, 0), f, g)
    assert not is_isomorphism((0, 1), f, g)


def test_find_isomorphisms_examples():
    eq = CFSet((equality_function(2, 2),))
    assert find_isomorphisms(eq, eq) == ((0, 1), (1, 0))
    f = CFSet((binary_from_rows([[1, 0], [0, 2]]),))
    assert automorphisms(f) == ((0, 1),)
    with pytest.raises(CompatibilityError):
        find_isomorphisms(eq, CFSet((unary_function((1, 1)),)))


def test_find_isomorphisms_respects_weights():
    allones = constant_function(2, 2)
    f = CFSet((allones,), weights=(1, 2))
    g = CFSet((allones,), weights=(2, 1))
    assert find_isomorphisms(f, g) == ((1, 0),)
    h = CFSet((allones,), weights=(1, 3))
    assert find_isomorphisms(f, h) == ()


def test_direct_sum_blocks():
    eq = equality_function(2, 2)
    total = direct_sum(eq, eq)
    assert total.q == 4
    for (x, y) in all_tuples(4, 2):
        expected = 1 if x == y else 0
        assert evaluate(total, (x, y)) == expected
    ones = constant_function(1, 3)
    stacked = direct_sum(ones, ones)
    for xs in all_tuples(2, 3):
        assert evaluate(stacked, xs) == (1 if len(set(xs)) == 1 else 0)


def test_direct_sum_rejects_unary():
    with pytest.raises(AlgebraError):
        direct_sum(unary_function((1,)), unary_function((2,)))


def test_connected_components():
    assert connected_components(constant_function(3, 2)) == ((0, 1, 2),)
    eq = equality_function(2, 2)
    blocks = direct_sum(eq, eq)
    assert connected_components(blocks) == ((0,), (1,), (2,), (3,))
    joined = direct_sum(constant_function(2, 2), constant_function(2, 2))
    assert connected_components(joined) == ((0, 1), (2, 3))
    zero = binary_from_rows([[0, 0], [0, 0]])
    assert connected_components(zero) == ((0,), (1,))


def test_augment_universal_unary_promotion():
    fset = CFSet((unary_function((3, 5)),))
    augmented = augment_universal(fset)
    fn = augmented.functions[0]
    assert fn.q == 3 and fn.arity == 2
    assert evaluate(fn, (0, 0)) == 3
    assert evaluate(fn, (1, 1)) == 5
    assert evaluate(fn, (0, 1)) == 0
    assert all(evaluate(fn, (2, y)) == 1 for y in range(3))
    assert all(evaluate(fn, (x, 2)) == 1 for x in range(3))
    assert connected_components(fn) == ((0, 1, 2),)


def test_augment_universal_binary():
    fset = CFSet((equality_function(2, 2),))
    fn = augment_universal(fset).functions[0]
    assert fn.q == 3
    for (x, y) in all_tuples(3, 2):
        if x == 2 or y == 2:
            assert evaluate(fn, (x, y)) == 1
        else:
            assert evaluate(fn, (x, y)) == (1 if x == y else 0)
    assert connected_components(fn) == ((0, 1, 2),)


def test_restrict_instance_swaps_back_without_promotions():
    fset = CFSet((equality_function(2, 2),))
    aug = augment_universal(fset)
    gset = augment_universal(CFSet((binary_from_rows([[1, 2], [3, 4]]),)))
    summed = direct_sum_sets(aug, gset)
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),), ("a",))
    restricted = restrict_instance(inst, (), fset)
    assert restricted.labels == ()
    assert restricted.constraints == ((0, ("a", "b")),)
    # removing everything leaves the empty product
    empty = restrict_instance(inst, ("a", "b"), fset)
    assert partition_function(fset, empty) == 1


def test_restrict_instance_merges_promoted_unaries():
    fset = CFSet((unary_function((3, 5)),))
    inst = LabeledInstance(("a", "b", "c"), ((0, ("a", "b")), (0, ("b", "c"))))
    restricted = restrict_instance(inst, (), fset)
    assert len(restricted.variables) == 1
    assert [j for j, _ in restricted.constraints] == [0, 0]
    assert all(len(vs) == 1 for _, vs in restricted.constraints)


def test_isomorphisms_carry_pinned_values_across_sets():
    rng = random.Random(32)
    from cspiso.algebra import permute_domain
    from cspiso.corpus import random_function

    for _ in range(8):
        q = rng.randint(2, 3)
        fns = tuple(random_function(rng, q, rng.randint(1, 2)) for _ in range(2))
        sigma = tuple(rng.sample(range(q), q))
        inverse = [0] * q
        for i, x in enumerate(sigma):
            inverse[x] = i
        fset = CFSet(fns)
        gset = CFSet(tuple(permute_domain(fn, tuple(inverse)) for fn in fns))
        assert sigma in find_isomorphisms(fset, gset)
        k = rng.randint(1, 2)
        inst = random_instance(rng, fset, rng.randint(k, 3), k)
        for phi in all_tuples(q, k):
            moved = tuple(sigma[x] for x in phi)
            assert pinned_partition(fset, inst, phi) == pinned_partition(
                gset, replace_functions(inst, fset, gset), moved
            )


def test_cross_block_automorphism_implies_isomorphic_summands():
    rng = random.Random(33)
    from cspiso.algebra import permute_domain
    from cspiso.corpus import random_function
    from cspiso.structure import automorphisms, is_connected

    for _ in range(20):
        q = rng.randint(2, 3)
        fn = random_function(rng, q, 2)
        if not is_connected(fn):
            continue
        if rng.random() < 0.5:
            sigma = tuple(rng.sample(range(q), q))
            other = permute_domain(fn, sigma)
        else:
            other = random_function(rng, q, 2)
            if not is_connected(other):
                continue
        total = direct_sum(fn, other)
        crossing = [
            s for s in automorphisms(CFSet((total,)))
            if any(s[i] >= q for i in range(q))
        ]
        if crossing:
            assert find_isomorphisms(CFSet((fn,)), CFSet((other,)))


def _universal_sum_identity(fset, gset, inst, label_var):
    """Z pinned at the first universal element equals the sum over subsets
    containing the labeled variable of the restricted plain partition."""
    f_aug = augment_universal(fset)
    g_aug = augment_universal(gset)
    summed = direct_sum_sets(f_aug, g_aug)
    zero_f = fset.q  # index of the universal element inside the F' block
    lhs = pinned_partition(summed, inst, (zero_f,))
    total = 0
    import itertools

    others = [v for v in inst.variables if v != label_var]
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            removed = (label_var,) + subset
            total = total + partition_function(fset, restrict_instance(inst, removed, fset))
    return lhs, total


def test_universal_augmentation_sum_identity_small():
    fset = CFSet((equality_function(2, 2), unary_function((1, 2))))
    gset = CFSet((binary_from_rows([[1, 1], [0, 1]]), unary_function((2, 1))))
    inst = LabeledInstance(
        ("a", "b", "c"),
        ((0, ("a", "b")), (1, ("b", "c")), (0, ("c", "a"))),
        ("a",),
    )
    assert instance_connected(inst)
    lhs, rhs = _universal_sum_identity(fset, gset, inst, "a")
    assert lhs == rhs


def _relabel(fset, sigma):
    """The set G with ``G_j(sigma(x)) == F_j(x)`` and ``w_G(sigma(i)) ==
    w_F(i)``, so that sigma is an isomorphism from F to G."""
    q = fset.q
    functions = []
    for fn in fset.functions:
        entries = [0] * len(fn.entries)
        for xs in all_tuples(q, fn.arity):
            image = tuple_to_index([sigma[x] for x in xs], q)
            entries[image] = fn.entries[tuple_to_index(xs, q)]
        functions.append(ConstraintFunction(q, fn.arity, tuple(entries)))
    weights = None
    if fset.weights is not None:
        moved = [0] * q
        for i, w in enumerate(fset.weights):
            moved[sigma[i]] = w
        weights = tuple(moved)
    return CFSet(tuple(functions), weights)


def _perturbed(rng, fset, pool):
    """A copy of fset with one entry, or two weights, changed."""
    if fset.weights is not None and fset.q > 1 and rng.random() < 0.3:
        weights = list(fset.weights)
        a, b = rng.sample(range(fset.q), 2)
        weights[a], weights[b] = weights[b], 2 * weights[a]
        return CFSet(fset.functions, tuple(weights))
    j = rng.randrange(fset.t)
    fn = fset.functions[j]
    entries = list(fn.entries)
    idx = rng.randrange(len(entries))
    entries[idx] = rng.choice([v for v in pool if v != entries[idx]] or [entries[idx] + 1])
    functions = list(fset.functions)
    functions[j] = ConstraintFunction(fn.q, fn.arity, tuple(entries))
    return CFSet(tuple(functions), fset.weights)


_KINDS = {
    # entry pools are small, so that many sets have nontrivial groups
    "weighted": ((0, 1, 2), (1, 2, Fraction(1, 2)), 2),
    "signed": ((0, 1, -1), (1, -1, Fraction(-2, 3)), 2),
    "gaussian": ((0, 1, gaussian(0, 1), gaussian(1, -1)), (1, gaussian(0, 1)), 2),
    "ternary": ((0, 1, 2), (1, 3), 3),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_isomorphisms_equal_the_brute_force_oracle(kind):
    """The search yields exactly find_isomorphisms, order included, on
    relabelled (isomorphic) and perturbed pairs."""
    entry_pool, weight_pool, max_arity = _KINDS[kind]
    rng = random.Random(f"isomorphisms-{kind}")
    nontrivial = 0
    for _ in range(150):
        q = rng.randint(1, 4 if max_arity == 3 else 5)
        pool = entry_pool[: rng.randint(1, len(entry_pool))]
        functions = tuple(
            random_function(rng, q, rng.randint(1, max_arity), pool)
            for _ in range(rng.randint(1, 2))
        )
        weights = None
        if kind != "ternary" or rng.random() < 0.5:
            wpool = weight_pool[: rng.randint(1, len(weight_pool))]
            weights = tuple(rng.choice(wpool) for _ in range(q))
        fset = CFSet(functions, weights)
        sigma = tuple(rng.sample(range(q), q))
        gset = _relabel(fset, sigma)
        found = tuple(isomorphisms(fset, gset))
        assert found == find_isomorphisms(fset, gset)
        assert sigma in found
        auts = automorphisms(fset)
        assert auts == find_isomorphisms(fset, fset)
        nontrivial += len(auts) > 1
        other = _perturbed(rng, gset, pool)
        assert tuple(isomorphisms(fset, other)) == find_isomorphisms(fset, other)
    assert nontrivial >= 30


def _graph(q, edges, directed=False):
    rows = [[0] * q for _ in range(q)]
    for a, b in edges:
        rows[a][b] = 1
        if not directed:
            rows[b][a] = 1
    return CFSet((binary_from_rows(rows),))


def _cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def test_automorphism_group_orders_in_closed_form():
    cube = [(a, a ^ (1 << bit)) for a in range(8) for bit in range(3) if a < a ^ (1 << bit)]
    rng = random.Random(34)
    for q, edges, order in (
        (8, cube, 48),
        (7, _cycle(7), 14),
        (6, _cycle(3) + _cycle(3, 3), 72),
    ):
        for _ in range(3):
            relabelled = _relabel(_graph(q, edges), tuple(rng.sample(range(q), q)))
            group = automorphisms(relabelled)
            assert len(group) == order
            assert list(group) == sorted(group)
            assert all(is_isomorphism(s, relabelled, relabelled) for s in group)


def test_regular_graphs_with_equal_invariants_are_told_apart():
    """Every element of a 2-regular graph (or a union of directed cycles)
    has the same invariants, so only the entrywise checks of the search can
    reject these pairs."""
    rng = random.Random(36)
    for q, first, second in (
        (6, _cycle(6), _cycle(3) + _cycle(3, 3)),
        (7, _cycle(7), _cycle(3) + _cycle(4, 3)),
    ):
        for directed in (False, True):
            f = _relabel(_graph(q, first, directed), tuple(rng.sample(range(q), q)))
            g = _relabel(_graph(q, second, directed), tuple(rng.sample(range(q), q)))
            assert tuple(isomorphisms(f, g)) == find_isomorphisms(f, g) == ()
            assert len(automorphisms(f)) == (q if directed else 2 * q)


def test_verifying_sigma_leaves_the_permute_cache_alone():
    """is_isomorphism compares entries in place, so neither it nor the
    searches built on it add permuted copies to permute_domain's cache."""
    rng = random.Random(35)
    fset = random_cfset(rng, 4, 2, weighted=True, positive_weights=True)
    sigma = (2, 0, 3, 1)
    gset = _relabel(fset, sigma)
    before = permute_domain.cache_info().currsize
    assert is_isomorphism(sigma, fset, gset)
    assert not is_isomorphism((0, 1, 2, 3), fset, _perturbed(rng, gset, (0, 1, 2)))
    assert distinguish(fset, gset).sigma in find_isomorphisms(fset, gset)
    after_oracle = permute_domain.cache_info().currsize
    cycle = _graph(5, _cycle(5))
    assert len(automorphisms(cycle)) == 10
    assert witness_sigma(cycle, (0, 1), (1, 2)).sigma is not None
    assert after_oracle > before  # the oracle does fill it
    assert permute_domain.cache_info().currsize == after_oracle
