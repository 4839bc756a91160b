#!/usr/bin/env python3
"""Intertwiner spaces of permutation groups and the gadget span.

The (k, l) intertwiners of a permutation group are spanned by the orbit
indicators of its diagonal action; for the automorphism group of a function
set, signature matrices of gadgets built over the set span a subspace that
saturates the whole intertwiner space on small examples.
"""

from cspiso import (
    CFSet,
    PermutationGroup,
    binary_from_rows,
    gadget_span,
    intertwiner_basis,
    is_intertwiner,
    same_orbit,
    same_orbit_via_intertwiners,
    witness_sigma,
)
from cspiso.intertwiners import all_subgroups
from cspiso.structure import automorphisms

# Orbit bases: dimension equals the number of diagonal orbits.
s2 = PermutationGroup.symmetric(2)
space = intertwiner_basis(s2, 2, 0)
print("S2 orbits on pairs:", space.orbits)
print("dimension:", space.dimension)

# Orbit queries agree between the group search and the intertwiner values.
for group in all_subgroups(3):
    space = intertwiner_basis(group, 2, 0)
    for xs in ((0, 1), (1, 0), (2, 2)):
        for ys in ((0, 1), (1, 2), (2, 2)):
            assert same_orbit(xs, ys, group) == same_orbit_via_intertwiners(xs, ys, space)
print("orbit queries agree over every subgroup of S3")

# The gadget span sits inside the intertwiner space of the automorphism
# group and reaches its dimension here.
swap_symmetric = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
group = PermutationGroup.from_elements(2, automorphisms(swap_symmetric))
for (k, l) in ((1, 0), (1, 1), (2, 0)):
    result = gadget_span(swap_symmetric, k, l, size_bound=6, aut_group=group)
    assert all(is_intertwiner(m, group, k, l) for m in result.basis)
    print(f"span at ({k},{l}): dims by size {result.dimension_by_size} "
          f"(orbit dimension {result.orbit_dimension}, {result.saturated_by})")

# The witness lemma: either an automorphism aligns two pin maps (decided by
# the orbit basis, or up to twins), or some instance separates their pinned
# values; the instance is the first one distinguish's probe search finds.
diag = CFSet((binary_from_rows([[1, 0], [0, 2]]),))
aligned = witness_sigma(swap_symmetric, (0,), (1,))
print("swap-symmetric pins align via:", aligned.sigma)
separated = witness_sigma(diag, (0,), (1,))
print("diag(1,2) pins separate:", separated.witness.constraints,
      "->", separated.z_phi, "vs", separated.z_psi)
