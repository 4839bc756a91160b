"""Intertwiner spaces of permutation groups via orbit bases, the gadget-span
comparison, orbit queries, and the witness-permutation search.

The ``(k, l)`` intertwiner space of a group G acting on ``[q]`` is spanned by
the indicator matrices of the orbits of the diagonal action on
``[q]^k x [q]^l``; the dimension is the number of orbits.  ``gadget_span``
builds signature matrices from the fundamental generators instead and
reports how its span sits inside the orbit space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .algebra import Matrix, all_tuples, conjugate_function, tuple_to_index
from .instances import CFSet, LabeledInstance
from .linalg import EchelonBasis
from .partition import pinned_partition
from .structure import Permutation, automorphisms
from .witnesses import pli_candidates
from . import expressions as ex


class IntertwinerError(ValueError):
    pass


def _compose_perm(a: Permutation, b: Permutation) -> Permutation:
    return tuple(a[b[i]] for i in range(len(a)))


@dataclass(frozen=True)
class PermutationGroup:
    """Subgroup of the symmetric group on [q], given by generators."""

    q: int
    generators: Tuple[Permutation, ...]

    def __post_init__(self):
        if self.q < 1:
            raise IntertwinerError(f"domain size must be >= 1, got {self.q}")
        gens = tuple(tuple(g) for g in self.generators)
        for g in gens:
            if sorted(g) != list(range(self.q)):
                raise IntertwinerError(f"{g} is not a permutation of range({self.q})")
        object.__setattr__(self, "generators", gens)

    def elements(self) -> Tuple[Permutation, ...]:
        identity = tuple(range(self.q))
        seen: Set[Permutation] = {identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for g in frontier:
                for gen in self.generators:
                    for h in (_compose_perm(gen, g), _compose_perm(g, gen)):
                        if h not in seen:
                            seen.add(h)
                            nxt.append(h)
            frontier = nxt
        return tuple(sorted(seen))

    @staticmethod
    def symmetric(q: int) -> "PermutationGroup":
        if q == 1:
            return PermutationGroup(1, ())
        swap = tuple([1, 0] + list(range(2, q)))
        cycle = tuple(list(range(1, q)) + [0])
        return PermutationGroup(q, (swap, cycle))

    @staticmethod
    def trivial(q: int) -> "PermutationGroup":
        return PermutationGroup(q, ())

    @staticmethod
    def from_elements(q: int, elements: Sequence[Permutation]) -> "PermutationGroup":
        return PermutationGroup(q, tuple(sorted(set(map(tuple, elements)))))


def all_subgroups(q: int) -> Tuple[PermutationGroup, ...]:
    """Every subgroup of S_q, via closures of small generating sets.

    Subgroups of S_q for q <= 4 are at most 2-generated, which is all the
    desk-scale tests need.
    """
    if q > 4:
        raise IntertwinerError("subgroup enumeration is supported for q <= 4")
    elements = list(itertools.permutations(range(q)))
    found: Dict[FrozenSet[Permutation], PermutationGroup] = {}
    for gens in itertools.chain(
        [()],
        ((g,) for g in elements),
        itertools.combinations(elements, 2),
    ):
        group = PermutationGroup(q, tuple(gens))
        key = frozenset(group.elements())
        if key not in found:
            found[key] = PermutationGroup.from_elements(q, tuple(key))
    return tuple(sorted(found.values(), key=lambda g: (len(g.elements()), g.elements())))


# ---------------------------------------------------------------------------
# Orbit bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntertwinerSpace:
    q: int
    k: int
    l: int
    basis: Tuple[Matrix, ...]
    orbits: Tuple[Tuple[Tuple[int, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _apply(sigma: Permutation, xs: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sigma[x] for x in xs)


def orbits_of_tuples(group: PermutationGroup, length: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Orbits of the diagonal action on [q]^length, each sorted, in order of
    their minimal element."""
    elements = group.elements()
    seen: Set[Tuple[int, ...]] = set()
    orbits = []
    for xs in all_tuples(group.q, length):
        if xs in seen:
            continue
        orbit = {_apply(sigma, xs) for sigma in elements}
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def _require_shape(k: int, l: int) -> None:
    if k < 0 or l < 0:
        raise IntertwinerError(f"shape ({k}, {l}) must have k, l >= 0")


def intertwiner_basis(group: PermutationGroup, k: int, l: int) -> IntertwinerSpace:
    """Orbit-indicator basis of the (k, l) intertwiner space."""
    _require_shape(k, l)
    q = group.q
    orbits = orbits_of_tuples(group, k + l)
    basis = []
    for orbit in orbits:
        data = [[0] * (q ** l) for _ in range(q ** k)]
        for xs in orbit:
            data[tuple_to_index(xs[:k], q)][tuple_to_index(xs[k:], q)] = 1
        basis.append(Matrix(tuple(tuple(r) for r in data)))
    return IntertwinerSpace(q, k, l, tuple(basis), orbits)


def is_intertwiner(mat: Matrix, group: PermutationGroup, k: int, l: int) -> bool:
    """Exact check of ``P_sigma^(x)k T == T P_sigma^(x)l`` on the generators.

    Entrywise this is ``T[x, y] == T[sigma(x), sigma(y)]`` for all indices,
    which avoids building the permutation matrices.
    """
    q = group.q
    if mat.rows != q ** k or mat.cols != q ** l:
        raise IntertwinerError(
            f"matrix is {mat.rows}x{mat.cols}, expected {q ** k}x{q ** l}"
        )
    for sigma in group.generators:
        for xs in all_tuples(q, k):
            r1 = tuple_to_index(xs, q)
            r2 = tuple_to_index(_apply(sigma, xs), q)
            for ys in all_tuples(q, l):
                c1 = tuple_to_index(ys, q)
                c2 = tuple_to_index(_apply(sigma, ys), q)
                if mat.data[r1][c1] != mat.data[r2][c2]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Orbit queries (two routes)
# ---------------------------------------------------------------------------

def same_orbit(xs: Sequence[int], ys: Sequence[int], group: PermutationGroup) -> bool:
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != len(ys):
        raise IntertwinerError("tuple length mismatch")
    return any(_apply(sigma, xs) == ys for sigma in group.elements())


def same_orbit_via_intertwiners(
    xs: Sequence[int], ys: Sequence[int], space: IntertwinerSpace
) -> bool:
    """Two indices lie in one orbit iff every (k, 0) intertwiner takes equal
    values on them; checked against the orbit basis."""
    if space.l != 0:
        raise IntertwinerError("orbit query needs an (k, 0) space")
    xs, ys = tuple(xs), tuple(ys)
    if len(xs) != space.k or len(ys) != space.k:
        raise IntertwinerError("tuple length mismatch")
    rx = tuple_to_index(xs, space.q)
    ry = tuple_to_index(ys, space.q)
    return all(mat.data[rx][0] == mat.data[ry][0] for mat in space.basis)


# ---------------------------------------------------------------------------
# Gadget span
# ---------------------------------------------------------------------------

@dataclass
class SpanResult:
    k: int
    l: int
    basis: List[Matrix]
    dimension_by_size: List[int]
    orbit_dimension: int
    saturated_by: str  # "orbit-dimension" | "size-bound"

    @property
    def dimension(self) -> int:
        return self.dimension_by_size[-1] if self.dimension_by_size else 0

    @property
    def certified_equal(self) -> bool:
        return self.dimension == self.orbit_dimension


def _require_conjugate_closed(fset: CFSet) -> None:
    functions = set(fset.functions)
    for fn in fset.functions:
        if conjugate_function(fn) not in functions:
            raise IntertwinerError("function set is not conjugate-closed")


def gadget_span(
    fset: CFSet,
    k: int,
    l: int,
    size_bound: int,
    aut_group: Optional[PermutationGroup] = None,
) -> SpanResult:
    """Span of the signature matrices realizable from the fundamental
    generators with at most ``size_bound`` leaves.

    Enumeration is dynamic programming over leaf counts with exact-matrix
    deduplication; intermediate shapes are capped at ``max(k + l + 2, 4)``
    total dangling edges.  Growth stops early only once the span dimension
    matches the orbit-basis dimension of the automorphism group; a plateau
    proves nothing (dimensions can hold still for sizes and then grow), so
    otherwise every size up to the bound is built.  ``size_bound`` must be
    at least 1.
    """
    if size_bound < 1:
        raise IntertwinerError(f"size bound must be at least 1, got {size_bound}")
    _require_shape(k, l)
    _require_conjugate_closed(fset)
    q = fset.q
    legs_cap = max(k + l + 2, 4)
    group = aut_group if aut_group is not None else PermutationGroup.from_elements(
        q, automorphisms(fset)
    )
    orbit_dim = len(orbits_of_tuples(group, k + l))

    cache: Dict = {}
    leaf_exprs = [ex.E10, ex.E01, ex.E12, ex.E21, ex.S]
    leaf_exprs += [ex.f_leaf(j) for j in range(fset.t)]
    leaf_exprs += [ex.AdjointExpr(ex.f_leaf(j)) for j in range(fset.t)]

    def value(e):
        return ex.evaluate_expression(e, q, fset.functions, cache)

    by_size: List[Dict[Tuple[int, int], Set[Matrix]]] = [dict() for _ in range(size_bound + 1)]
    seen: Set[Tuple[int, int, Matrix]] = set()

    def register(size: int, shape: Tuple[int, int], mat: Matrix) -> None:
        if shape[0] + shape[1] > legs_cap:
            return
        key = (shape[0], shape[1], mat)
        if key in seen:
            return
        seen.add(key)
        by_size[size].setdefault(shape, set()).add(mat)

    for e in leaf_exprs:
        register(1, ex.shape(e, fset.functions), value(e))

    basis = EchelonBasis()
    span_basis: List[Matrix] = []
    dims: List[int] = []
    saturated_by = "size-bound"

    def absorb(size: int) -> None:
        for mat in by_size[size].get((k, l), ()):
            if basis.insert(mat.flat()):
                span_basis.append(mat)

    absorb(1)
    dims.append(basis.rank)
    for size in range(2, size_bound + 1):
        for left_size in range(1, size):
            right_size = size - left_size
            for (k1, l1), mats1 in by_size[left_size].items():
                for (k2, l2), mats2 in by_size[right_size].items():
                    if l1 == k2:
                        for m1 in mats1:
                            for m2 in mats2:
                                register(size, (k1, l2), m1.mul(m2))
                    if k1 + k2 + l1 + l2 <= legs_cap:
                        for m1 in mats1:
                            for m2 in mats2:
                                register(size, (k1 + k2, l1 + l2), m1.kron(m2))
        absorb(size)
        dims.append(basis.rank)
        if basis.rank == orbit_dim:
            saturated_by = "orbit-dimension"
            break
    return SpanResult(k, l, span_basis, dims, orbit_dim, saturated_by)


# ---------------------------------------------------------------------------
# Witness permutations (orbit route with instance fallback)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessSigmaResult:
    sigma: Optional[Permutation]
    witness: Optional[LabeledInstance] = None
    z_phi: Optional[object] = None
    z_psi: Optional[object] = None


class WitnessSearchExhausted(RuntimeError):
    """The orbit test failed but no distinguishing instance was found within
    the bound.  For twin-free sets this cannot happen; with twins the pin
    maps may be genuinely indistinguishable by single-labeled instances."""


def witness_sigma(
    fset: CFSet,
    phi: Sequence[int],
    psi: Sequence[int],
    instance_bound: int = 2000,
) -> WitnessSigmaResult:
    """Either an automorphism carrying one pin map to the other, decided via
    the (k, 0) orbit basis of the automorphism group, or a distinguishing
    k-labeled instance with differing pinned values."""
    phi, psi = tuple(phi), tuple(psi)
    k = len(phi)
    if k == 0 or len(psi) != k:
        raise IntertwinerError("pin maps must be nonempty and equally long")
    auts = automorphisms(fset)
    group = PermutationGroup.from_elements(fset.q, auts)
    space = intertwiner_basis(group, k, 0)
    if same_orbit_via_intertwiners(phi, psi, space):
        sigma = next(s for s in auts if _apply(s, phi) == psi)
        return WitnessSigmaResult(sigma=sigma)
    count = 0
    for inst in pli_candidates(fset.arities(), k):
        count += 1
        if count > instance_bound:
            break
        z_phi = pinned_partition(fset, inst, phi)
        z_psi = pinned_partition(fset, inst, psi)
        if z_phi != z_psi:
            return WitnessSigmaResult(sigma=None, witness=inst, z_phi=z_phi, z_psi=z_psi)
    raise WitnessSearchExhausted(
        f"no distinguishing instance within {instance_bound} candidates"
    )
