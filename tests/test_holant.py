import random
from fractions import Fraction

import pytest

from cspiso.algebra import (
    GaussianRational,
    Matrix,
    all_tuples,
    binary_from_rows,
    constant_function,
    equality_function,
    gaussian,
    flatten,
    tuple_to_index,
    unary_function,
)
from cspiso.corpus import (
    random_bipartite_gadget,
    random_cfset,
    random_function,
    random_gadget,
    random_instance,
)
from cspiso.expressions import decompose, evaluate_expression
from cspiso.holant import (
    EQ,
    Gadget,
    GadgetError,
    adjoint,
    compose,
    crossing_gadget,
    csp_to_grid,
    empty_gadget,
    equality_gadget,
    function_gadget,
    holant_value,
    identity_gadget,
    signature_matrix,
    tensor,
)
from cspiso.instances import CFSet, LabeledInstance
from cspiso.partition import TermCapExceeded, _integer_factors, partition_function, pinned_partition


def test_holant_of_equality_self_loop():
    loop = Gadget(2, (EQ,), (((0, 0), (0, 1)),))
    assert holant_value(loop) == 2


def test_holant_of_two_unary_equalities():
    ones = unary_function((1, 1))
    grid = Gadget(2, (ones, ones), (((0, 0), (1, 0)),))
    assert holant_value(grid) == 2


def test_holant_of_empty_grid():
    assert holant_value(empty_gadget(3)) == 1


def test_holant_requires_closed_grid():
    with pytest.raises(GadgetError):
        holant_value(identity_gadget(2))


def test_signature_matrix_of_identity_wire():
    assert signature_matrix(identity_gadget(3)) == Matrix.identity(3)


def test_signature_matrix_of_equality_gadgets():
    for q in (2, 3):
        for m in range(3):
            for d in range(3):
                got = signature_matrix(equality_gadget(q, m, d))
                if m + d == 0:
                    assert got == Matrix(((q,),))
                else:
                    assert got == flatten(equality_function(q, m + d), m, d)


def test_signature_matrix_of_function_gadget_is_signature_vector():
    rng = random.Random(51)
    fn = random_function(rng, 2, 3)
    assert signature_matrix(function_gadget(fn)) == flatten(fn, 3, 0)


def test_compose_with_identity_stack():
    rng = random.Random(52)
    fn = random_function(rng, 2, 2)
    g = Gadget(2, (EQ, fn, EQ), (((0, 1), (1, 0)), ((1, 1), (2, 0))),
               outputs=((0, 0),), inputs=((2, 1),))
    stack = identity_gadget(2)
    assert signature_matrix(compose(stack, g)) == signature_matrix(g)
    assert signature_matrix(compose(g, stack)) == signature_matrix(g)


def test_compose_of_split_and_merge_is_a_wire():
    wire = compose(equality_gadget(2, 1, 2), equality_gadget(2, 2, 1))
    assert wire == identity_gadget(2)
    assert signature_matrix(wire) == Matrix.identity(2)


def test_compose_of_cap_and_cup_is_the_scalar_q():
    loop = compose(equality_gadget(3, 0, 2), equality_gadget(3, 2, 0))
    assert loop == Gadget(3, (EQ,), ())
    assert holant_value(loop) == 3


def test_functoriality_on_random_gadgets():
    rng = random.Random(53)
    for _ in range(40):
        q = rng.randint(2, 3)
        mid = rng.randint(0, 2)
        g1 = random_gadget(rng, q, rng.randint(0, 2), mid, max_internal_edges=2, max_vertices=3)
        g2 = random_gadget(rng, q, mid, rng.randint(0, 2), max_internal_edges=2, max_vertices=3)
        t1, t2 = signature_matrix(g1), signature_matrix(g2)
        assert signature_matrix(compose(g1, g2)) == t1.mul(t2)
        assert signature_matrix(tensor(g1, g2)) == t1.kron(t2)
        assert signature_matrix(adjoint(g1)) == t1.conjugate_transpose()
        assert adjoint(adjoint(g1)) == g1


def _wire(g1: Gadget, g2: Gadget) -> Gadget:
    """``compose`` without the merge: the new edges stay as they are."""
    offset = len(g1.signatures)
    shift = lambda port: (port[0] + offset, port[1])
    edges = g1.edges + tuple((shift(a), shift(b)) for a, b in g2.edges)
    edges += tuple(zip(g1.inputs, map(shift, g2.outputs)))
    return Gadget(g1.q, g1.signatures + g2.signatures, edges, g1.outputs,
                  tuple(map(shift, g2.inputs)))


def test_equality_contraction_preserves_the_value():
    rng = random.Random(54)
    for _ in range(25):
        q = rng.randint(2, 3)
        mid = rng.randint(1, 2)
        g1 = random_gadget(rng, q, rng.randint(0, 1), mid, max_internal_edges=2, max_vertices=3)
        g2 = random_gadget(rng, q, mid, rng.randint(0, 1), max_internal_edges=2, max_vertices=3)
        assert signature_matrix(_wire(g1, g2)) == signature_matrix(compose(g1, g2))


def test_compose_keeps_bipartite_gadgets_bipartite():
    """Small on purpose: ``decompose`` grows as q^(internal edges)."""
    rng = random.Random(59)
    for _ in range(60):
        fset = random_cfset(rng, 2, rng.randint(1, 2))
        mid = rng.randint(0, 2)
        g1 = random_bipartite_gadget(rng, fset, 1, rng.randint(0, 1), rng.randint(0, 2), mid)
        g2 = random_bipartite_gadget(rng, fset, 1, rng.randint(0, 1), mid, rng.randint(0, 2))
        composed = compose(g1, g2)
        assert composed.is_bipartite_over(fset)
        product = signature_matrix(g1).mul(signature_matrix(g2))
        assert evaluate_expression(decompose(composed, fset), 2, fset.functions) == product


def test_crossing_gadget_swap_matrix():
    swap = signature_matrix(crossing_gadget(2, (1, 0)))
    for (x1, x2) in all_tuples(2, 2):
        for (y1, y2) in all_tuples(2, 2):
            expected = 1 if (x1, x2) == (y2, y1) else 0
            assert swap.data[x1 * 2 + x2][y1 * 2 + y2] == expected


def test_csp_to_grid_isolated_variable():
    fset = CFSet((equality_function(2, 2),))
    inst = LabeledInstance(("v",), ())
    grid = csp_to_grid(inst, fset)
    assert holant_value(grid) == 2


def test_csp_to_grid_single_constraint_shape():
    fset = CFSet((binary_from_rows([[1, 2], [3, 4]]),))
    inst = LabeledInstance(("a", "b"), ((0, ("a", "b")),))
    grid = csp_to_grid(inst, fset)
    # two equality vertices around one constraint vertex
    assert len(grid.signatures) == 3
    assert sum(1 for s in grid.signatures if s is EQ) == 2
    assert holant_value(grid) == partition_function(fset, inst)


def test_bridge_on_random_instances():
    rng = random.Random(55)
    for _ in range(30):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        inst = random_instance(rng, fset, rng.randint(1, 3))
        assert holant_value(csp_to_grid(inst, fset)) == partition_function(fset, inst)


def test_pinning_bridge_matches_pinned_partition():
    rng = random.Random(56)
    for _ in range(20):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        total = rng.randint(0, 3)
        inst = random_instance(rng, fset, rng.randint(max(total, 1), 4), total)
        n_out = rng.randint(0, total)
        grid = csp_to_grid(inst, fset, n_out)
        matrix = signature_matrix(grid)
        for xs in all_tuples(q, n_out):
            for ys in all_tuples(q, total - n_out):
                assert matrix.data[tuple_to_index(xs, q)][
                    tuple_to_index(ys, q)
                ] == pinned_partition(fset, inst, xs + ys)


def test_bridge_carries_domain_weights():
    """Unlabeled variables carry the weights, labeled ones do not: Holant
    values equal Z and signature matrices equal the pinned profile."""
    ones = CFSet((constant_function(2, 2),), weights=(1, 2))
    edge = LabeledInstance(("a", "b"), ((0, ("a", "b")),))
    assert holant_value(csp_to_grid(edge, ones)) == partition_function(ones, edge) == 9
    rng = random.Random(57)
    for index in range(30):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True,
                            positive_weights=index % 2 == 0)
        if index % 3 == 0:
            fset = CFSet(fset.functions, tuple(gaussian(w, 1) for w in fset.weights))
        total = rng.randint(0, 3)
        inst = random_instance(rng, fset, rng.randint(max(total, 1), 4), total)
        closed = LabeledInstance(inst.variables, inst.constraints, ())
        assert holant_value(csp_to_grid(closed, fset)) == partition_function(fset, inst)
        n_out = rng.randint(0, total)
        matrix = signature_matrix(csp_to_grid(inst, fset, n_out))
        for xs in all_tuples(q, n_out):
            for ys in all_tuples(q, total - n_out):
                assert matrix.data[tuple_to_index(xs, q)][
                    tuple_to_index(ys, q)
                ] == pinned_partition(fset, inst, xs + ys)


def _naive_signature_matrix(g: Gadget) -> Matrix:
    """Oracle sharing no equality-class logic with ``signature_matrix``:
    every edge and every dangling port carries its own value."""
    q = g.q
    ports = g.outputs + g.inputs
    rows = []
    for x in all_tuples(q, g.n_outputs):
        row = []
        for y in all_tuples(q, g.n_inputs):
            total = 0
            for e in all_tuples(q, len(g.edges)):
                value_at = dict(zip(ports, x + y))
                for (a, b), val in zip(g.edges, e):
                    value_at[a] = val
                    value_at[b] = val
                term = 1
                for v, sig in enumerate(g.signatures):
                    vals = [value_at[p] for p in sorted(p for p in value_at if p[0] == v)]
                    if sig is EQ:
                        term = term * (q if not vals else int(len(set(vals)) == 1))
                    else:
                        term = term * sig.entries[tuple_to_index(vals, q)]
                total = total + term
            row.append(total)
        rows.append(row)
    return Matrix.from_rows(rows)


def test_signature_matrix_matches_naive_oracle():
    rng = random.Random(58)
    pools = [
        (0, 1, 2),
        (0, 1, Fraction(1, 2), Fraction(-2, 3)),
        (0, 1, gaussian(0, 1), gaussian(1, -1)),
    ]
    for pool in pools:
        for _ in range(40):
            q = rng.randint(2, 3)
            g = random_gadget(rng, q, rng.randint(0, 2), rng.randint(0, 2),
                              max_internal_edges=3, entry_pool=pool)
            assert signature_matrix(g) == _naive_signature_matrix(g)
    # dangling ports sharing a vertex make clashing pins
    for q, m, d in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (3, 2, 3)]:
        g = equality_gadget(q, m, d)
        assert signature_matrix(g) == _naive_signature_matrix(g)
    f = binary_from_rows([[1, Fraction(1, 2)], [gaussian(0, 1), 0]])
    isolated = Gadget(2, (f, EQ, EQ), (((0, 0), (1, 0)),), ((1, 1),), ((0, 1),))
    assert signature_matrix(isolated) == _naive_signature_matrix(isolated)
    for q in (2, 3):
        assert signature_matrix(empty_gadget(q)) == _naive_signature_matrix(empty_gadget(q))


_POOLS = {
    "int": (0, 1, 2, -3),
    "fraction": (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(5, -4), Fraction(7, 6), Fraction(3)),
    "gaussian": (0, gaussian(Fraction(1, 2), Fraction(-1, 3)), gaussian(1, Fraction(2, -5)),
                 gaussian(-1, 1), Fraction(1, 3)),
}
_POOLS["mixed"] = _POOLS["int"] + _POOLS["fraction"] + _POOLS["gaussian"]


def test_grid_signature_matrices_on_integer_tables():
    """``signature_matrix`` sums the integer tables of the grid's vertices and
    divides each entry once; the naive oracle sums the original tables."""
    rng = random.Random(59)
    for trial in range(160):
        q = 1 + trial % 4
        kind = ("int", "fraction", "gaussian", "mixed")[trial // 4 % 4]
        fset = random_cfset(rng, q, 2, 2, _POOLS[kind], weighted=trial % 3 == 0)
        while True:  # keep the oracle's q^(edges + ports) terms small
            n = rng.randint(1, 3)
            k = rng.randint(0, min(n, 2))
            inst = random_instance(rng, fset, n, k, rng.randint(0, 3))
            g = csp_to_grid(inst, fset, rng.randint(0, k))
            if q ** (len(g.edges) + k) <= 4096:
                break
        got, naive = signature_matrix(g), _naive_signature_matrix(g)
        assert got == naive
        for x, y in zip(got.flat(), naive.flat()):  # a whole number is an int
            whole = not isinstance(y, GaussianRational) and Fraction(y).denominator == 1
            assert type(x) is (int if whole else type(y))


def _assert_same_value_and_type(got, want):
    """``got == want``, as an ``int`` when whole and real, a ``Fraction``
    when real and a ``GaussianRational`` otherwise."""
    assert got == want
    whole = not isinstance(want, GaussianRational) and Fraction(want).denominator == 1
    assert type(got) is (int if whole else type(want))


def test_gaussian_sums_at_the_packing_edge():
    """Gaussian tables enter the kernel packed as the ints ``a + b*M``, with
    ``M`` the least power of two above twice the bound ``B`` on both parts
    of the sum.  In every case below each term has one value and the sum
    reaches ``B = 9 * 7 = 63`` (9 terms, or 3 terms times the scalar 3 of an
    isolated variable's equality vertex; 7 for F or H, 1 for G and the
    weights), so ``M = 128`` and the sum's real or imaginary part is
    ``M/2 - 1``, with either sign, through Gaussian weights and pins."""
    i = gaussian(0, 1)
    f = binary_from_rows([[c] * 3 for c in (7 * i, -7, -7 * i)])  # F(a, x) depends on a only
    g = constant_function(3, 2, i)
    h = unary_function((7 * i,) * 3)
    factors, _ = _integer_factors([(f, (0, 1))], 9)
    assert factors[0][0][0] == 7 * 128  # 7i packed with M = 128
    plain = CFSet((f, g, h))
    weighted = CFSet((f, g, h), weights=(gaussian(0, Fraction(-1, 2)),) * 3)  # int form -i, den 2
    names = ("a", "x", "y")
    path = LabeledInstance(names, ((0, ("a", "x")), (1, ("x", "y"))), ("a",))
    isolated = LabeledInstance(names, ((0, ("a", "x")),), ("a",))
    for fset, inst, values in (  # Z^psi at a = 0, 1, 2
        (plain, path, (-63, -63 * i, 63)),
        (plain, isolated, (63 * i, -63, -63 * i)),
        (weighted, path, (Fraction(63, 4), 63 * i / 4, Fraction(-63, 4))),
    ):
        grid = csp_to_grid(inst, fset)
        naive, got = _naive_signature_matrix(grid), signature_matrix(grid)
        for a, value in enumerate(values):
            assert naive[a, 0] == value
            _assert_same_value_and_type(got[a, 0], naive[a, 0])
            _assert_same_value_and_type(pinned_partition(fset, inst, (a,)), naive[a, 0])
    closed = LabeledInstance(("x", "y"), ((2, ("x",)), (1, ("x", "y"))))
    for fset, value in ((plain, -63), (weighted, Fraction(63, 4))):
        want = _naive_signature_matrix(csp_to_grid(closed, fset))[0, 0]
        assert want == value
        _assert_same_value_and_type(partition_function(fset, closed), want)


def test_signature_matrix_cap():
    big = Gadget(3, (EQ,), (), tuple((0, p) for p in range(16)), ())
    with pytest.raises(TermCapExceeded) as err:
        signature_matrix(big, cap=1000)
    assert (err.value.terms, err.value.cap) == (3 ** 16, 1000)
    # two free classes and no boundary: q^2 terms
    f = binary_from_rows([[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    closed = Gadget(3, (EQ, EQ, f), (((0, 0), (2, 0)), ((1, 0), (2, 1))))
    with pytest.raises(TermCapExceeded) as err:
        holant_value(closed, cap=8)
    assert err.value.terms == 9
    assert holant_value(closed, cap=9) == 8


def test_signature_matrix_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="term cap"):
        signature_matrix(identity_gadget(2), cap=-1)
    assert signature_matrix(identity_gadget(2), cap=4) == signature_matrix(identity_gadget(2))


@pytest.mark.parametrize("cap", [-1, 0])
def test_pinned_partition_and_signature_matrix_share_the_cap_policy(cap):
    # a path a-b-c with a labeled: q^2 terms pinned, q^(1 + 2) for its grid
    fset = CFSet((binary_from_rows([[1, 2, 0], [0, 1, 1], [2, 0, 1]]),))
    inst = LabeledInstance(("a", "b", "c"), ((0, ("a", "b")), (0, ("b", "c"))), ("a",))
    grid = csp_to_grid(inst, fset)
    calls = [(lambda: pinned_partition(fset, inst, (0,), cap=cap), 9),
             (lambda: signature_matrix(grid, cap=cap), 27)]
    for call, terms in calls:
        if cap < 0:
            with pytest.raises(ValueError, match="term cap must be at least 0"):
                call()
        else:
            with pytest.raises(TermCapExceeded) as err:
                call()
            assert (err.value.terms, err.value.cap) == (terms, cap)


def test_gadget_validation():
    with pytest.raises(GadgetError):
        Gadget(2, (EQ,), (((0, 0), (0, 0)),))  # port used twice
    with pytest.raises(GadgetError):
        Gadget(2, (unary_function((1, 1)),), ())  # arity/degree mismatch
