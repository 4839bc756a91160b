"""Acceptance requirements 2-11: the seeded invariants of the paper's theorem.

Each check runs its requirement at full size and returns ``(failures,
detail)``: the list of failing cases, empty exactly when the invariant held,
and the scale it ran at.  ``tests/test_acceptance.py`` and ``cspiso
selftest`` both run these functions; requirement 1 (the exhaustive sweep)
stays in the test suite.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, List, Tuple

from .algebra import (
    Matrix,
    all_tuples,
    binary_from_rows,
    equality_function,
    flatten,
    tuple_to_index,
)
from .corpus import (
    random_bipartite_gadget,
    random_cfset,
    random_function,
    random_gadget,
    random_instance,
    random_rational,
)
from .expressions import decompose, evaluate_expression
from .holant import (
    EQ,
    Gadget,
    adjoint,
    compose,
    crossing_gadget,
    csp_to_grid,
    holant_value,
    signature_matrix,
    tensor,
)
from .instances import CFSet, forget_labels, product, replace_functions
from .interpolation import VandermondePremiseError, vandermonde_class_sums
from .intertwiners import (
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
from .partition import partition_function, pinned_partition
from .structure import (
    augment_universal,
    automorphisms,
    contract_twins,
    direct_sum_sets,
    instance_connected,
    restrict_instance,
    twin_classes,
)

Outcome = Tuple[list, str]


def pinned_multiplicativity() -> Outcome:
    rng = random.Random(1002)
    failures = []
    for _ in range(500):
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=rng.random() < 0.4,
                            positive_weights=True)
        k1 = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        k2 = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        glued = product(k1, k2)
        for psi in all_tuples(q, k):
            lhs = pinned_partition(fset, glued, psi)
            rhs = pinned_partition(fset, k1, psi) * pinned_partition(fset, k2, psi)
            if lhs != rhs:
                failures.append((fset, k1, k2, psi))
    return failures, "500 pairs, all pins"


def twin_contraction() -> Outcome:
    rng = random.Random(1003)
    failures = []
    for _ in range(200):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True,
                            positive_weights=True)
        contraction = contract_twins(fset)
        if len(twin_classes(contraction.contracted)) != contraction.contracted.q:
            failures.append(("twins left", fset))
        inst = random_instance(rng, fset, rng.randint(1, 4))
        replaced = replace_functions(inst, fset, contraction.contracted)
        if partition_function(contraction.contracted, replaced) != partition_function(fset, inst):
            failures.append(("value", fset, inst))
    return failures, "200 weighted sets"


def gadget_functoriality() -> Outcome:
    rng = random.Random(1004)
    failures = []
    for _ in range(300):
        q = rng.randint(2, 3)
        mid = rng.randint(0, 2)
        g1 = random_gadget(rng, q, rng.randint(0, 2), mid,
                           max_internal_edges=2, max_vertices=3)
        g2 = random_gadget(rng, q, mid, rng.randint(0, 2),
                           max_internal_edges=2, max_vertices=3)
        t1, t2 = signature_matrix(g1), signature_matrix(g2)
        if signature_matrix(compose(g1, g2)) != t1.mul(t2):
            failures.append(("compose", g1, g2))
        if signature_matrix(tensor(g1, g2)) != t1.kron(t2):
            failures.append(("tensor", g1, g2))
        if signature_matrix(adjoint(g1)) != t1.conjugate_transpose():
            failures.append(("adjoint", g1))
    return failures, "300 composable pairs"


def generator_decomposition() -> Outcome:
    rng = random.Random(1005)
    failures = []
    for index in range(100):
        q = 2 if index % 5 else 3
        fset = random_cfset(rng, q, rng.randint(1, 2), max_arity=2)
        gadget = random_bipartite_gadget(
            rng, fset,
            n_eq=rng.randint(1, 3),
            n_constraints=rng.randint(0, 3 if q == 2 else 2),
            n_outputs=rng.randint(0, 2),
            n_inputs=rng.randint(0, 2 if q == 2 else 1),
        )
        expr = decompose(gadget, fset)
        if evaluate_expression(expr, q, fset.functions) != signature_matrix(gadget):
            failures.append((fset, gadget))

    # the illustrated 5-vertex, 3-output/2-input shape
    ternary = random_function(rng, 2, 3)
    binary = random_function(rng, 2, 2)
    fset = CFSet((ternary, binary))
    gadget = Gadget(
        2,
        (EQ, EQ, EQ, ternary, binary),
        (((1, 0), (4, 0)), ((0, 0), (4, 1)), ((2, 0), (3, 0)),
         ((0, 1), (3, 1)), ((1, 1), (3, 2))),
        outputs=((1, 2), (0, 2), (1, 3)),
        inputs=((2, 1), (2, 2)),
    )
    expr = decompose(gadget, fset)
    if evaluate_expression(expr, 2, fset.functions) != signature_matrix(gadget):
        failures.append((fset, gadget))
    return failures, "100 gadgets + figure shape"


def holant_bridge() -> Outcome:
    rng = random.Random(1006)
    failures = []
    for _ in range(200):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        total = rng.randint(0, 3)
        inst = random_instance(rng, fset, rng.randint(max(total, 1), 4), total)
        closed = forget_labels(inst, 0)
        if holant_value(csp_to_grid(closed, fset)) != partition_function(fset, inst):
            failures.append(("closed", fset, inst))
            continue
        n_out = rng.randint(0, total)
        matrix = signature_matrix(csp_to_grid(inst, fset, n_out))
        for xs in all_tuples(q, n_out):
            for ys in all_tuples(q, total - n_out):
                expected = pinned_partition(fset, inst, xs + ys)
                if matrix.data[tuple_to_index(xs, q)][tuple_to_index(ys, q)] != expected:
                    failures.append(("pinned", fset, inst, xs + ys))
    return failures, "200 instances, all pinnings"


def intertwiner_orbit_bases() -> Outcome:
    failures = []
    crossing = signature_matrix(crossing_gadget(3, (1, 0)))
    if crossing == Matrix.identity(9):
        failures.append(("S22 is the identity",))
    for group in all_subgroups(3):
        for k in range(4):
            for l in range(4 - k):
                space = intertwiner_basis(group, k, l)
                if not all(is_intertwiner(m, group, k, l) for m in space.basis):
                    failures.append(("membership", group.generators, k, l))
                if space.dimension != len(orbits_of_tuples(group, k + l)):
                    failures.append(("dimension", group.generators, k, l))
        for k in (1, 2, 3):
            space = intertwiner_basis(group, k, 0)
            for xs in all_tuples(3, k):
                for ys in all_tuples(3, k):
                    if same_orbit(xs, ys, group) != same_orbit_via_intertwiners(xs, ys, space):
                        failures.append(("orbit-query", group.generators, xs, ys))
        if not is_intertwiner(flatten(equality_function(3, 2), 1, 1), group, 1, 1):
            failures.append(("E11", group.generators))
        if not is_intertwiner(flatten(equality_function(3, 2), 2, 0), group, 2, 0):
            failures.append(("E20", group.generators))
        if not is_intertwiner(crossing, group, 2, 2):
            failures.append(("S22", group.generators))
    return failures, ""


def gadget_span_saturation() -> Outcome:
    rng = random.Random(1008)
    failures = []
    for index in range(20):
        fset = random_cfset(rng, 2, rng.randint(1, 2), max_arity=2)
        group = PermutationGroup.from_elements(2, automorphisms(fset))
        for (k, l) in ((1, 0), (1, 1)):
            result = gadget_span(fset, k, l, size_bound=4, aut_group=group)
            if not all(is_intertwiner(m, group, k, l) for m in result.basis):
                failures.append(("containment", index, k, l))
            dims = result.dimension_by_size
            if any(a > b for a, b in zip(dims, dims[1:])):
                failures.append(("monotonicity", index, k, l))

    swap_symmetric = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
    group = PermutationGroup.from_elements(2, automorphisms(swap_symmetric))
    for (k, l) in ((1, 0), (1, 1), (2, 0)):
        result = gadget_span(swap_symmetric, k, l, size_bound=6, aut_group=group)
        if not result.certified_equal:
            failures.append(("saturation", k, l, result.dimension_by_size))
    return failures, ""


def witness_permutation() -> Outcome:
    rng = random.Random(1009)
    corpus = []
    while len(corpus) < 20:
        q = 2 if len(corpus) < 16 else 3
        fset = random_cfset(rng, q, rng.randint(1, 2), max_arity=2)
        if len(twin_classes(fset)) == fset.q:  # twin-free
            corpus.append(fset)
    failures = []
    for fset in corpus:
        auts = automorphisms(fset)
        q = fset.q
        for k in (1, 2):
            for phi in all_tuples(q, k):
                for psi in all_tuples(q, k):
                    expected = any(tuple(s[x] for x in phi) == psi for s in auts)
                    result = witness_sigma(fset, phi, psi)
                    if (result.sigma is not None and not result.twins_adjusted) != expected:
                        failures.append(("agreement", fset, phi, psi))
                    elif result.sigma is None:
                        z_phi = pinned_partition(fset, result.witness, phi)
                        z_psi = pinned_partition(fset, result.witness, psi)
                        if z_phi == z_psi or z_phi != result.z_phi or z_psi != result.z_psi:
                            failures.append(("witness", fset, phi, psi))
    return failures, "20 twin-free sets, k <= 2"


def vandermonde_checker() -> Outcome:
    rng = random.Random(1010)
    failures = []
    for index in range(200):
        n = rng.randint(2, 5)
        n_cols = rng.randint(1, 2)
        pool = [tuple(random_rational(rng) for _ in range(n_cols)) for _ in range(max(1, n - 1))]
        rows = [pool[rng.randrange(len(pool))] for _ in range(n)]
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault(row, []).append(i)
        coefficients = [0] * n
        for members in groups.values():
            parts = [random_rational(rng) for _ in members[:-1]]
            for i, value in zip(members[:-1], parts):
                coefficients[i] = value
            coefficients[members[-1]] = -sum(parts)
        if index % 4 == 0:
            # break the premise in a class of size one or by shifting a sum
            victim = rng.randrange(n)
            coefficients[victim] = coefficients[victim] + 1
            try:
                vandermonde_class_sums(coefficients, rows)
                failures.append(("premise not caught", coefficients, rows))
            except VandermondePremiseError as err:
                total = 0
                for a, row in zip(coefficients, rows):
                    term = a
                    for j, p in enumerate(err.exponents):
                        term = term * row[j] ** p
                    total = total + term
                if total == 0 or total != err.value:
                    failures.append(("wrong exponents", coefficients, rows))
        else:
            classes = vandermonde_class_sums(coefficients, rows)
            if any(total != 0 for _, total in classes):
                failures.append(("class sums", coefficients, rows))
    return failures, "200 exact systems"


def _connected_instance(rng, fset, n_vars):
    for _ in range(200):
        inst = random_instance(rng, fset, n_vars, k=1,
                               n_constraints=rng.randint(n_vars - 1, n_vars + 2))
        if instance_connected(inst):
            return inst
    raise AssertionError("could not sample a connected instance")


def universal_augmentation() -> Outcome:
    rng = random.Random(1011)
    failures = []
    for _ in range(20):
        q_f = rng.randint(1, 2)
        q_g = rng.randint(1, 2)
        t = rng.randint(1, 2)
        arities = [rng.randint(1, 2) for _ in range(t)]
        fset = CFSet(tuple(random_function(rng, q_f, n) for n in arities))
        gset = CFSet(tuple(random_function(rng, q_g, n) for n in arities))
        summed = direct_sum_sets(augment_universal(fset), augment_universal(gset))
        inst = _connected_instance(rng, summed, rng.randint(2, 4))
        label_var = inst.labels[0]
        lhs = pinned_partition(summed, inst, (q_f,))  # pin to the F-side universal element
        total = 0
        others = [v for v in inst.variables if v != label_var]
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                removed = (label_var,) + subset
                total = total + partition_function(
                    fset, restrict_instance(inst, removed, fset)
                )
        if lhs != total:
            failures.append((fset, gset, inst))
    return failures, "20 connected pairs"


REQUIREMENTS: Tuple[Tuple[str, Callable[[], Outcome]], ...] = (
    ("2 pinned multiplicativity", pinned_multiplicativity),
    ("3 twin contraction", twin_contraction),
    ("4 gadget functoriality", gadget_functoriality),
    ("5 generator decomposition", generator_decomposition),
    ("6 #CSP-Holant bridge", holant_bridge),
    ("7 intertwiner spaces over subgroups of S3", intertwiner_orbit_bases),
    ("8 gadget span containment and saturation", gadget_span_saturation),
    ("9 witness permutation lemma", witness_permutation),
    ("10 vandermonde checker", vandermonde_checker),
    ("11 universal augmentation sum identity", universal_augmentation),
)


def run() -> List[Tuple[str, list, str]]:
    """``(name, failures, detail)`` for every requirement, in order."""
    return [(name, *check()) for name, check in REQUIREMENTS]
