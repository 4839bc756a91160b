"""Fast seeded invariant suites behind the ``selftest`` subcommand."""

from __future__ import annotations

import random
from typing import List, Tuple

from .algebra import all_tuples
from .corpus import (
    random_bipartite_gadget,
    random_cfset,
    random_gadget,
    random_instance,
    random_rational,
)
from .expressions import decompose, evaluate_expression
from .holant import adjoint, compose, csp_to_grid, holant_value, signature_matrix, tensor
from .instances import product, replace_functions
from .interpolation import vandermonde_class_sums
from .intertwiners import (
    all_subgroups,
    intertwiner_basis,
    is_intertwiner,
    same_orbit,
    same_orbit_via_intertwiners,
)
from .partition import partition_function, pinned_partition
from .structure import contract_twins


def _multiplicativity(rng: random.Random) -> bool:
    for _ in range(15):
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        k1 = random_instance(rng, fset, rng.randint(max(k, 1), 3), k)
        k2 = random_instance(rng, fset, rng.randint(max(k, 1), 3), k)
        prod = product(k1, k2)
        for psi in all_tuples(q, k):
            lhs = pinned_partition(fset, prod, psi)
            rhs = pinned_partition(fset, k1, psi) * pinned_partition(fset, k2, psi)
            if lhs != rhs:
                return False
    return True


def _contraction(rng: random.Random) -> bool:
    for _ in range(15):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True, positive_weights=True)
        inst = random_instance(rng, fset, rng.randint(1, 3))
        contraction = contract_twins(fset)
        replaced = replace_functions(inst, fset, contraction.contracted)
        if partition_function(contraction.contracted, replaced) != partition_function(fset, inst):
            return False
    return True


def _functoriality(rng: random.Random) -> bool:
    for _ in range(10):
        q = rng.randint(2, 3)
        mid = rng.randint(0, 2)
        g1 = random_gadget(rng, q, rng.randint(0, 2), mid, max_internal_edges=2, max_vertices=3)
        g2 = random_gadget(rng, q, mid, rng.randint(0, 2), max_internal_edges=2, max_vertices=3)
        if signature_matrix(compose(g1, g2)) != signature_matrix(g1).mul(signature_matrix(g2)):
            return False
        if signature_matrix(tensor(g1, g2)) != signature_matrix(g1).kron(signature_matrix(g2)):
            return False
        if signature_matrix(adjoint(g1)) != signature_matrix(g1).conjugate_transpose():
            return False
    return True


def _bridge(rng: random.Random) -> bool:
    for _ in range(15):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        inst = random_instance(rng, fset, rng.randint(1, 3))
        grid = csp_to_grid(inst, fset)
        if holant_value(grid) != partition_function(fset, inst):
            return False
    return True


def _orbits(rng: random.Random) -> bool:
    for group in all_subgroups(3):
        for k in (1, 2):
            space = intertwiner_basis(group, k, 0)
            if not all(is_intertwiner(m, group, k, 0) for m in space.basis):
                return False
            for xs in all_tuples(3, k):
                for ys in all_tuples(3, k):
                    if same_orbit(xs, ys, group) != same_orbit_via_intertwiners(xs, ys, space):
                        return False
    return True


def _vandermonde(rng: random.Random) -> bool:
    for _ in range(10):
        n_rows = rng.randint(2, 4)
        n_cols = rng.randint(1, 2)
        distinct_rows = [
            tuple(random_rational(rng) for _ in range(n_cols)) for _ in range(n_rows)
        ]
        rows = [distinct_rows[rng.randrange(n_rows)] for _ in range(n_rows)]
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault(row, []).append(i)
        a = [0] * n_rows
        for members in groups.values():
            if len(members) == 1:
                a[members[0]] = 0
            else:
                values = [random_rational(rng) for _ in members[:-1]]
                for i, v in zip(members[:-1], values):
                    a[i] = v
                a[members[-1]] = -sum(values)
        classes = vandermonde_class_sums(a, rows)
        if any(total != 0 for _, total in classes):
            return False
    return True


def _decompose(rng: random.Random) -> bool:
    for _ in range(6):
        q = 2
        fset = random_cfset(rng, q, rng.randint(1, 2), max_arity=2)
        gadget = random_bipartite_gadget(
            rng, fset, n_eq=rng.randint(1, 2), n_constraints=rng.randint(0, 2),
            n_outputs=rng.randint(0, 2), n_inputs=rng.randint(0, 1),
        )
        expr = decompose(gadget, fset)
        if evaluate_expression(expr, q, fset.functions) != signature_matrix(gadget):
            return False
    return True


def run(rng: random.Random) -> List[Tuple[str, bool]]:
    suites = [
        ("pinned multiplicativity", _multiplicativity),
        ("twin contraction", _contraction),
        ("gadget functoriality", _functoriality),
        ("csp-holant bridge", _bridge),
        ("orbit agreement", _orbits),
        ("vandermonde checker", _vandermonde),
        ("generator decomposition", _decompose),
    ]
    return [(name, suite(rng)) for name, suite in suites]
