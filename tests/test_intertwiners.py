import random

import pytest

from cspiso.algebra import (
    Matrix,
    all_tuples,
    binary_from_rows,
    constant_function,
    equality_function,
    flatten,
    gaussian,
    unary_function,
)
from cspiso.holant import crossing_gadget, signature_matrix
from cspiso.corpus import random_cfset
from cspiso.instances import CFSet
from cspiso.interpolation import distinguish
from cspiso.partition import pinned_partition
from cspiso.structure import automorphisms, is_isomorphism, twin_classes
from cspiso.intertwiners import (
    IntertwinerError,
    PermutationGroup,
    all_subgroups,
    gadget_span,
    intertwiner_basis,
    is_intertwiner,
    orbits_of_tuples,
    same_orbit,
    same_orbit_via_intertwiners,
    witness_sigma,
)

S2 = PermutationGroup.symmetric(2)
S3 = PermutationGroup.symmetric(3)


def test_group_materialization():
    assert len(S3.elements()) == 6
    assert len(PermutationGroup.trivial(3).elements()) == 1


def test_all_subgroups_of_s3():
    groups = all_subgroups(3)
    assert sorted(len(g.elements()) for g in groups) == [1, 2, 2, 2, 3, 6]


def test_orbit_basis_dimensions():
    space = intertwiner_basis(S2, 2, 0)
    assert space.dimension == 2
    assert space.orbits == (((0, 0), (1, 1)), ((0, 1), (1, 0)))
    trivial = intertwiner_basis(PermutationGroup.trivial(2), 1, 1)
    assert trivial.dimension == 4


def test_orbit_basis_elements_are_intertwiners():
    for group in all_subgroups(3):
        for k in range(3):
            for l in range(3 - k):
                space = intertwiner_basis(group, k, l)
                assert all(is_intertwiner(m, group, k, l) for m in space.basis)
                assert space.dimension == len(orbits_of_tuples(group, k + l))


def test_closure_memberships():
    for group in all_subgroups(3):
        q = 3
        assert is_intertwiner(Matrix.identity(q), group, 1, 1)
        assert is_intertwiner(flatten(equality_function(q, 2), 2, 0), group, 2, 0)
        crossing = signature_matrix(crossing_gadget(q, (1, 0)))
        assert crossing != Matrix.identity(q * q)
        assert is_intertwiner(crossing, group, 2, 2)
        all_ones = Matrix(tuple((1,) * q for _ in range(q)))
        assert is_intertwiner(all_ones, group, 1, 1)


def test_non_intertwiner_detected():
    probe = Matrix(((1, 0), (0, 2)))
    assert not is_intertwiner(probe, S2, 1, 1)
    assert is_intertwiner(probe, PermutationGroup.trivial(2), 1, 1)


def test_is_intertwiner_matches_matrix_definition():
    # spot-check the index characterization against explicit permutation
    # matrices
    rng = random.Random(71)
    q = 3
    for _ in range(10):
        data = tuple(tuple(rng.randint(-2, 2) for _ in range(q)) for _ in range(q * q))
        mat = Matrix(data)
        for sigma in S3.generators:
            p = Matrix(tuple(
                tuple(1 if row == sigma[col] else 0 for col in range(q))
                for row in range(q)
            ))
            lhs = p.kron(p).mul(mat)
            rhs = mat.mul(p)
            assert (lhs == rhs) == is_intertwiner_one(mat, sigma, q)


def is_intertwiner_one(mat, sigma, q):
    for xs in all_tuples(q, 2):
        for (y,) in all_tuples(q, 1):
            r1 = xs[0] * q + xs[1]
            r2 = sigma[xs[0]] * q + sigma[xs[1]]
            if mat.data[r1][y] != mat.data[r2][sigma[y]]:
                return False
    return True


def test_same_orbit_agreement_over_all_subgroups():
    for group in all_subgroups(3):
        for k in (1, 2, 3):
            space = intertwiner_basis(group, k, 0)
            for xs in all_tuples(3, k):
                for ys in all_tuples(3, k):
                    assert same_orbit(xs, ys, group) == same_orbit_via_intertwiners(
                        xs, ys, space
                    )


def test_distinct_subgroups_have_distinct_orbit_families():
    # the duality sanity check: a subgroup is pinned down by its orbit
    # partitions on small tuple powers
    families = []
    for group in all_subgroups(3):
        families.append(tuple(orbits_of_tuples(group, k) for k in (1, 2, 3)))
    assert len(set(families)) == len(families)


def test_gadget_span_contained_in_intertwiner_space():
    rng = random.Random(72)
    from cspiso.corpus import random_cfset

    for _ in range(8):
        fset = random_cfset(rng, 2, rng.randint(1, 2), max_arity=2)
        group = PermutationGroup.from_elements(2, automorphisms(fset))
        for (k, l) in ((1, 0), (1, 1)):
            result = gadget_span(fset, k, l, size_bound=4, aut_group=group)
            assert all(is_intertwiner(m, group, k, l) for m in result.basis)
            assert result.dimension <= result.orbit_dimension
            # dimensions never decrease with the bound
            dims = result.dimension_by_size
            assert all(a <= b for a, b in zip(dims, dims[1:]))


def test_gadget_span_saturates_for_swap_symmetric_function():
    fset = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
    group = PermutationGroup.from_elements(2, automorphisms(fset))
    assert len(group.elements()) == 2
    for (k, l) in ((1, 0), (1, 1), (2, 0)):
        result = gadget_span(fset, k, l, size_bound=6, aut_group=group)
        assert result.certified_equal, (k, l, result.dimension_by_size)
        assert result.saturated_by == "orbit-dimension"


def test_gadget_span_does_not_stop_on_a_plateau():
    # each span dimension holds still for two or more sizes before it grows
    # to the orbit dimension within the default bound of 6
    cases = [
        (2, (0, 1, 0, 0), 1, 1, [0, 2, 2, 2, 4], 4),
        (3, (0, 0, 0, 0, 0, 1, 0, 1, 0), 1, 1, [0, 2, 2, 2, 5], 5),
        (3, (0, 0, 1, 0, 1, 0, 1, 0, 1), 2, 0, [1, 3, 7, 7, 8, 9], 9),
    ]
    for q, entries, k, l, dims, orbit_dim in cases:
        fset = CFSet((binary_from_rows([entries[i:i + q] for i in range(0, q * q, q)]),))
        result = gadget_span(fset, k, l, size_bound=6)
        assert result.orbit_dimension == orbit_dim
        assert result.certified_equal, (entries, result.dimension_by_size)
        assert result.saturated_by == "orbit-dimension"
        assert result.dimension_by_size == dims


def test_gadget_span_requires_conjugate_closure():
    complex_fn = unary_function((gaussian(0, 1), 1))
    with pytest.raises(IntertwinerError):
        gadget_span(CFSet((complex_fn,)), 1, 0, size_bound=2)
    closed = CFSet((unary_function((gaussian(0, 1), 1)), unary_function((gaussian(0, -1), 1))))
    gadget_span(closed, 1, 0, size_bound=2)  # no error


def test_gadget_span_rejects_size_bound_below_one():
    fset = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
    for bound in (0, -1):
        with pytest.raises(IntertwinerError, match="at least 1"):
            gadget_span(fset, 1, 1, bound)
    assert gadget_span(fset, 1, 1, 1).dimension_by_size


def test_negative_shapes_are_rejected():
    fset = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
    group = PermutationGroup.from_elements(2, automorphisms(fset))
    for k, l in ((-1, 0), (1, -2)):
        with pytest.raises(IntertwinerError, match="k, l >= 0"):
            intertwiner_basis(group, k, l)
        with pytest.raises(IntertwinerError, match="k, l >= 0"):
            gadget_span(fset, k, l, 2)


def test_empty_domain_is_rejected():
    with pytest.raises(IntertwinerError, match="domain size"):
        intertwiner_basis(PermutationGroup(0, ()), 1, 0)


def test_witness_sigma_identity_and_swap():
    fset = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
    result = witness_sigma(fset, (0,), (0,))
    assert result.sigma == (0, 1)
    result = witness_sigma(fset, (0,), (1,))
    assert result.sigma == (1, 0)


def test_witness_sigma_produces_distinguishing_instance():
    fset = CFSet((binary_from_rows([[1, 0], [0, 2]]),))
    result = witness_sigma(fset, (0,), (1,))
    assert result.sigma is None
    assert result.z_phi != result.z_psi
    assert pinned_partition(fset, result.witness, (0,)) == result.z_phi
    assert pinned_partition(fset, result.witness, (1,)) == result.z_psi


def test_witness_sigma_agrees_with_group_search():
    rng = random.Random(73)

    for _ in range(10):
        fset = random_cfset(rng, 2, rng.randint(1, 2))
        auts = automorphisms(fset)
        for k in (1, 2):
            for phi in all_tuples(2, k):
                for psi in all_tuples(2, k):
                    expected = any(
                        tuple(s[x] for x in phi) == psi for s in auts
                    )
                    result = witness_sigma(fset, phi, psi)
                    assert (result.sigma is not None and not result.twins_adjusted) == expected


def _assert_verified(fset, phi, psi, result):
    """The answer holds on its own: an automorphism carrying ``phi`` to
    ``psi`` (up to twins when so flagged), or a witness whose pinned values
    are recomputed and differ."""
    if result.sigma is None:
        assert result.z_phi == pinned_partition(fset, result.witness, phi)
        assert result.z_psi == pinned_partition(fset, result.witness, psi)
        assert result.z_phi != result.z_psi
        return
    assert is_isomorphism(result.sigma, fset, fset)
    image = tuple(result.sigma[x] for x in phi)
    if result.twins_adjusted:
        class_of = {i: cls for cls in twin_classes(fset) for i in cls}
        assert [class_of[x] for x in image] == [class_of[y] for y in psi]
    else:
        assert image == tuple(psi)


def test_witness_sigma_aligns_all_twins_up_to_twins():
    # every element is a twin: the orbit test fails, no instance separates
    # the pins, and an automorphism aligns them class by class
    allones = CFSet((constant_function(2, 2),))
    result = witness_sigma(allones, (0, 0), (0, 1))
    assert result.sigma is not None and result.twins_adjusted
    _assert_verified(allones, (0, 0), (0, 1), result)


def test_witness_sigma_on_cancelling_twin_weights():
    # 0 and 1 are twins whose weights sum to 0, so the set has no twin
    # contraction; witness_sigma never contracts
    fset = CFSet((unary_function((1, 1, 3)),), weights=(1, -1, 1))
    outcomes = {}
    for psi in ((2,), (0,), (1,)):
        result = witness_sigma(fset, (0,), psi)
        _assert_verified(fset, (0,), psi, result)
        outcomes[psi] = (result.sigma is not None, result.twins_adjusted)
    assert outcomes == {(2,): (False, False), (0,): (True, False), (1,): (True, True)}


def _rook_rows(n: int):
    """K_n box K_n: cells of an n x n board, adjacent in a shared row or column."""
    cells = range(n * n)
    return [[int(a != b and (a // n == b // n or a % n == b % n)) for b in cells] for a in cells]


def _rook_graph(n: int) -> CFSet:
    return CFSet((binary_from_rows(_rook_rows(n)),))


def test_rook_group_keeps_few_generators():
    auts = automorphisms(_rook_graph(4))
    group = PermutationGroup.from_elements(16, auts)
    assert len(auts) == 1152
    assert group.elements() == auts
    assert len(group.generators) <= 10
    adjacency = Matrix(tuple(map(tuple, _rook_rows(4))))
    corner = Matrix(tuple(tuple(int(x == y == 0) for y in range(16)) for x in range(16)))
    every_element = PermutationGroup(16, auts)
    for mat in (adjacency, corner):
        assert is_intertwiner(mat, group, 1, 1) == is_intertwiner(mat, every_element, 1, 1)
    assert is_intertwiner(adjacency, group, 1, 1) and not is_intertwiner(corner, group, 1, 1)


def test_witness_sigma_on_the_rook_graph():
    # strongly regular with lambda = mu = 2: no common-neighbour count
    # separates an edge from a non-edge
    rook = _rook_graph(4)
    edge, non_edge, other_edge = (0, 1), (0, 5), (5, 9)
    result = witness_sigma(rook, edge, non_edge)
    assert result.sigma is None
    _assert_verified(rook, edge, non_edge, result)
    result = witness_sigma(rook, edge, other_edge)
    assert result.sigma is not None and not result.twins_adjusted
    _assert_verified(rook, edge, other_edge, result)


def test_witness_sigma_takes_the_witness_of_distinguish():
    rng = random.Random(19)
    checked = 0
    while checked < 8:
        fset = random_cfset(rng, rng.randint(2, 3), rng.randint(1, 2), max_arity=2)
        if len(twin_classes(fset)) < fset.q:
            continue
        checked += 1
        for k in (1, 2):
            for phi in all_tuples(fset.q, k):
                for psi in all_tuples(fset.q, k):
                    result = witness_sigma(fset, phi, psi)
                    if result.sigma is None:
                        assert result.witness == distinguish(fset, fset, phi, psi).witness


@pytest.mark.parametrize("phi, psi", [((2,), (0,)), ((0,), (-1,))])
def test_witness_sigma_rejects_out_of_range_pins(phi, psi):
    fset = CFSet((binary_from_rows([[1, 0], [0, 2]]),))
    with pytest.raises(IntertwinerError, match="range"):
        witness_sigma(fset, phi, psi)
