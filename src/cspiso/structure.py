"""Twins and contraction, domain-weighted isomorphism search, direct sums,
connectivity, and the universal-element augmentation.

``isomorphisms`` is the one isomorphism search: it backtracks over partial
maps, pruned by per-element invariants and by an entrywise check of each
new element, so its cost follows the pruned search tree, not q!.
``distinguish`` and the CLI use it.  ``automorphisms`` (behind
``witness_sigma``, ``gadget_span`` and the CLI's ``intertwiners``) runs the
same search as a stabilizer chain: one dive per coset of each point
stabilizer, not one path per automorphism, and multiplies the coset
representatives out.  ``find_isomorphisms`` is deliberately plain brute force
over the symmetric group (with the same invariant prune); it is the
ground-truth oracle the search is checked against, and the only routine
here that walks all of S_q.  A set's twin contraction and invariant profile
are kept on the set (``CFSet._memo``) and are freed with it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraError,
    ConstraintFunction,
    Scalar,
    all_tuples,
    permute_domain,
    scalar_sort_key,
    tuple_to_index,
    union_find,
)
from .instances import (
    CFSet,
    CompatibilityError,
    InstanceError,
    LabeledInstance,
    require_compatible,
)

Permutation = Tuple[int, ...]


class ContractionError(ValueError):
    """Raised when twin contraction produces a vanishing summed weight."""


# ---------------------------------------------------------------------------
# Configuration index J(F) and twins
# ---------------------------------------------------------------------------

def configuration_index(fset: CFSet):
    """All ``(j, x, r)`` with ``x`` filling every argument slot but one.

    For unary functions ``x`` is the empty tuple and ``r = 1`` (0-based 0).
    """
    out = []
    for j, fn in enumerate(fset.functions):
        for x in all_tuples(fset.q, fn.arity - 1):
            for r in range(fn.arity):
                out.append((j, x, r))
    return tuple(out)


def _slot_value(fn: ConstraintFunction, x: Tuple[int, ...], r: int, i: int) -> Scalar:
    args = x[:r] + (i,) + x[r:]
    return fn.entries[tuple_to_index(args, fn.q)]


def element_fingerprints(fset: CFSet) -> Tuple[Tuple[Scalar, ...], ...]:
    """For each domain element, the tuple of all one-slot evaluations."""
    jc = configuration_index(fset)
    return tuple(
        tuple(_slot_value(fset.functions[j], x, r, i) for (j, x, r) in jc)
        for i in range(fset.q)
    )


def twin_classes(fset: CFSet) -> Tuple[Tuple[int, ...], ...]:
    """Partition of the domain into classes indistinguishable in every slot."""
    fingerprints = element_fingerprints(fset)
    groups: Dict[Tuple[Scalar, ...], List[int]] = {}
    for i, fp in enumerate(fingerprints):
        groups.setdefault(fp, []).append(i)
    classes = sorted(groups.values(), key=lambda cls: cls[0])
    return tuple(tuple(cls) for cls in classes)


@dataclass(frozen=True)
class TwinContraction:
    contracted: CFSet
    classes: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        mapping = [0] * sum(len(c) for c in self.classes)
        for label, cls in enumerate(self.classes):
            for i in cls:
                mapping[i] = label
        object.__setattr__(self, "class_of", tuple(mapping))


def contract_twins(fset: CFSet) -> TwinContraction:
    """Merge twin classes; weights add up.  Raises :class:`ContractionError`
    if a merged weight vanishes (the contraction then carries no valid
    domain weight and callers must not proceed silently).  The result is
    kept on ``fset``."""
    if "twins" in fset._memo:
        return fset._memo["twins"]
    classes = twin_classes(fset)
    s = len(classes)
    reps = [cls[0] for cls in classes]

    new_functions = []
    for fn in fset.functions:
        entries = []
        for ys in all_tuples(s, fn.arity):
            args = tuple(reps[y] for y in ys)
            entries.append(fn.entries[tuple_to_index(args, fn.q)])
        new_functions.append(ConstraintFunction(s, fn.arity, tuple(entries)))

    new_weights: Optional[Tuple[Scalar, ...]]
    if fset.weights is None and s == fset.q:
        new_weights = None
    else:
        sums = []
        for cls in classes:
            total: Scalar = 0
            for i in cls:
                total = total + fset.weight(i)
            if total == 0:
                raise ContractionError(
                    f"twin class {cls} has vanishing summed weight"
                )
            sums.append(total)
        new_weights = tuple(sums)

    contraction = TwinContraction(CFSet(tuple(new_functions), new_weights), classes)
    fset._memo["twins"] = contraction
    return contraction


# ---------------------------------------------------------------------------
# Domain-weighted isomorphism
# ---------------------------------------------------------------------------

def is_isomorphism(sigma: Permutation, fset: CFSet, gset: CFSet) -> bool:
    """``F_j(x) == G_j(sigma(x))`` for all j, x, and matching weights."""
    require_compatible(fset, gset)
    if fset.q != gset.q:
        raise CompatibilityError("isomorphism needs a common domain size")
    q = fset.q
    if sorted(sigma) != list(range(q)):
        raise AlgebraError(f"{sigma} is not a permutation of range({q})")
    for i in range(q):
        if fset.weight(i) != gset.weight(sigma[i]):
            return False
    for fn, gn in zip(fset.functions, gset.functions):
        for idx, xs in enumerate(all_tuples(q, fn.arity)):
            if fn.entries[idx] != gn.entries[tuple_to_index([sigma[x] for x in xs], q)]:
                return False
    return True


def _invariant_profile(fset: CFSet):
    """Per-element invariants and their multiset, kept on ``fset``.

    Element i's invariant is its weight followed by, for each function and
    argument slot, the values of the entries whose slot holds i, sorted by
    ``scalar_sort_key``.  Each (function, slot) column is read in one pass
    over the table: slot r of a table of arity n holds digit r of the
    index, so the entries of element i come in runs of q^(n-1-r).  Used only
    to prune the isomorphism searches.  The multiset is a plain dict, whose
    comparison runs in C (a Counter's does not)."""
    if "invariants" not in fset._memo:
        q = fset.q
        per_element = [[fset.weight(i)] for i in range(q)]
        for fn in fset.functions:
            entries = fn.entries
            for r in range(fn.arity):
                run = q ** (fn.arity - 1 - r)
                for i, inv in enumerate(per_element):
                    values = []
                    for start in range(i * run, len(entries), q * run):
                        values += entries[start:start + run]
                    values.sort(key=scalar_sort_key)
                    inv.append(tuple(values))
        per_element = tuple(tuple(inv) for inv in per_element)
        fset._memo["invariants"] = per_element, dict(Counter(per_element))
    return fset._memo["invariants"]


def find_isomorphisms(fset: CFSet, gset: CFSet) -> Tuple[Permutation, ...]:
    """All domain-weighted isomorphisms, in lexicographic order."""
    require_compatible(fset, gset)
    if fset.q != gset.q:
        raise CompatibilityError("isomorphism needs a common domain size")
    q = fset.q
    f_inv, f_counts = _invariant_profile(fset)
    g_inv, g_counts = _invariant_profile(gset)
    if f_counts != g_counts:
        return ()
    candidates = [
        tuple(ig for ig in range(q) if g_inv[ig] == f_inv[i]) for i in range(q)
    ]
    found = []
    f_functions = fset.functions
    g_functions = gset.functions
    for sigma in itertools.permutations(range(q)):
        if not all(sigma[i] in candidates[i] for i in range(q)):
            continue
        if all(
            fn == permute_domain(gn, sigma)
            for fn, gn in zip(f_functions, g_functions)
        ):
            found.append(sigma)
    return tuple(found)


def _new_tuples(n: int, d: int) -> List[Tuple[int, ...]]:
    """Every length-n tuple over ``range(d + 1)`` that contains d, once: d
    first occurs at position p, after p smaller elements."""
    return [
        head + (d,) + tail
        for p in range(n)
        for head in itertools.product(range(d), repeat=p)
        for tail in itertools.product(range(d + 1), repeat=n - p - 1)
    ]


def _search(
    fset: CFSet, gset: CFSet
) -> Callable[[Tuple[int, ...]], Iterator[Permutation]]:
    """The backtracking isomorphism search, set up once for a pair of sets.

    Returns a function that maps a prefix of images to an iterator over the
    isomorphisms sigma with ``sigma[d] == prefix[d]`` for every d below the
    prefix's length, in lexicographic order.  Each call gets its own partial
    map and ``used`` marks, so an iterator abandoned after its first
    isomorphism leaves nothing behind.
    """
    require_compatible(fset, gset)
    if fset.q != gset.q:
        raise CompatibilityError("isomorphism needs a common domain size")
    q = fset.q
    f_inv, f_counts = _invariant_profile(fset)
    g_inv, g_counts = _invariant_profile(gset)
    if f_counts != g_counts:
        return lambda prefix: iter(())
    candidates = [
        [ig for ig in range(q) if g_inv[ig] == f_inv[i]] for i in range(q)
    ]
    # checks[d]: (F entry, G table, tuple) for every tuple new at depth d
    checks = [
        [
            (fn.entries[tuple_to_index(xs, q)], gn.entries, xs)
            for fn, gn in zip(fset.functions, gset.functions)
            for xs in _new_tuples(fn.arity, d)
        ]
        for d in range(q)
    ]

    def agrees(sigma: List[int], d: int) -> bool:
        for value, g_entries, xs in checks[d]:
            idx = 0
            for x in xs:
                idx = idx * q + sigma[x]
            if g_entries[idx] != value:
                return False
        return True

    def extensions(prefix: Tuple[int, ...]) -> Iterator[Permutation]:
        start = len(prefix)
        sigma = list(prefix) + [0] * (q - start)
        used = [False] * q
        for d, y in enumerate(prefix):
            if used[y] or y not in candidates[d]:
                return iter(())
            used[y] = True
        if not all(agrees(sigma, d) for d in range(start)):
            return iter(())

        def extend(d: int) -> Iterator[Permutation]:
            if d == q:
                yield tuple(sigma)
                return
            for ig in candidates[d]:
                if used[ig]:
                    continue
                sigma[d] = ig
                # agrees(sigma, d), inlined: this loop is the search's hot path
                for value, g_entries, xs in checks[d]:
                    idx = 0
                    for x in xs:
                        idx = idx * q + sigma[x]
                    if g_entries[idx] != value:
                        break
                else:
                    used[ig] = True
                    yield from extend(d + 1)
                    used[ig] = False

        return extend(start)

    return extensions


def isomorphisms(fset: CFSet, gset: CFSet) -> Iterator[Permutation]:
    """All domain-weighted isomorphisms, lazily, in lexicographic order.

    Backtracks over partial maps ``0 -> sigma(0), ..., d -> sigma(d)``.
    Element d may only go to an unused element with its invariant profile
    (which includes the weight), and the choice stands only if both sets
    agree on every tuple over ``0..d`` that contains d; along a branch each
    entry is compared once, and a branch dies at its first disagreement.
    The cost follows the pruned search tree, not q!.  The output equals
    :func:`find_isomorphisms`, order included.  Sets that are incompatible
    or of unequal domain size raise :class:`CompatibilityError` once
    iteration starts.
    """
    yield from _search(fset, gset)(())


def automorphisms(fset: CFSet) -> Tuple[Permutation, ...]:
    """The automorphism group of ``fset``, sorted lexicographically: the
    same tuple as ``tuple(isomorphisms(fset, fset))``.

    Built on a stabilizer chain (Sims).  G_d, the automorphisms that fix
    ``0..d-1``, is the disjoint union of the cosets t G_(d+1), one for each
    image of d, so G = T_0 T_1 ... T_(q-1), with T_d one representative per
    coset.  The representative that sends d to y > d is the first leaf of
    one dive of the search, below the prefix ``(0, ..., d-1, y)``; a dive
    that finds none proves that y is not in the orbit.  So the search pays
    one path per coset instead of one per automorphism, and the dives'
    subtrees are disjoint parts of the tree that ``isomorphisms`` walks.
    Building the group takes at most 2|G| compositions.
    """
    q = fset.q
    extensions = _search(fset, fset)
    identity = tuple(range(q))
    group = [identity]
    for d in reversed(range(q)):
        cosets = []
        for y in range(d + 1, q):
            representative = next(extensions(identity[:d] + (y,)), None)
            if representative is not None:
                cosets.append(representative)
        group += [tuple(map(t.__getitem__, s)) for t in cosets for s in group]
    group.sort()
    return tuple(group)


# ---------------------------------------------------------------------------
# Direct sum and connectivity
# ---------------------------------------------------------------------------

def direct_sum(fn: ConstraintFunction, gn: ConstraintFunction) -> ConstraintFunction:
    """Block function on the disjoint union of the two domains; zero on
    mixed tuples.  Only defined for arity > 1."""
    if fn.arity != gn.arity:
        raise AlgebraError("direct sum needs equal arities")
    if fn.arity <= 1:
        raise AlgebraError("direct sum is undefined for unary functions")
    qf, qg = fn.q, gn.q
    q = qf + qg
    n = fn.arity
    entries = []
    for xs in all_tuples(q, n):
        if all(x < qf for x in xs):
            entries.append(fn.entries[tuple_to_index(xs, qf)])
        elif all(x >= qf for x in xs):
            entries.append(gn.entries[tuple_to_index(tuple(x - qf for x in xs), qg)])
        else:
            entries.append(0)
    return ConstraintFunction(q, n, tuple(entries))


def direct_sum_sets(fset: CFSet, gset: CFSet) -> CFSet:
    require_compatible(fset, gset)
    if fset.weights is not None or gset.weights is not None:
        raise InstanceError("direct sums are defined for unweighted sets")
    return CFSet(tuple(
        direct_sum(fn, gn) for fn, gn in zip(fset.functions, gset.functions)
    ))


def connected_components(fn: ConstraintFunction) -> Tuple[Tuple[int, ...], ...]:
    """Classes of the transitive closure of "appear together in a nonzero
    tuple".  Zero rows of the union-find stay singletons."""
    if fn.arity <= 1:
        raise AlgebraError("connectivity is defined for arity > 1")
    root = union_find(range(fn.q), (
        (xs[0], x)
        for xs in all_tuples(fn.q, fn.arity)
        if fn.entries[tuple_to_index(xs, fn.q)] != 0
        for x in xs[1:]
    ))
    groups: Dict[int, List[int]] = {}
    for i in range(fn.q):
        groups.setdefault(root[i], []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def is_connected(fn: ConstraintFunction) -> bool:
    return len(connected_components(fn)) == 1


# ---------------------------------------------------------------------------
# Universal-element augmentation and instance restriction
# ---------------------------------------------------------------------------

def augment_universal(fset: CFSet) -> CFSet:
    """Append a universal element (index ``q``) to the domain.

    Functions of arity >= 2 take value 1 whenever any argument is the new
    element.  Unary functions are promoted to binary delta-style functions
    so the result stays direct-summable; every output function is connected.
    """
    if fset.weights is not None:
        raise InstanceError("universal augmentation applies to unweighted sets")
    q = fset.q
    new_q = q + 1
    out = []
    for fn in fset.functions:
        if fn.arity >= 2:
            entries = []
            for xs in all_tuples(new_q, fn.arity):
                if all(x < q for x in xs):
                    entries.append(fn.entries[tuple_to_index(xs, q)])
                else:
                    entries.append(1)
            out.append(ConstraintFunction(new_q, fn.arity, tuple(entries)))
        else:
            entries = []
            for (x, y) in all_tuples(new_q, 2):
                if x == q or y == q:
                    entries.append(1)
                elif x == y:
                    entries.append(fn.entries[x])
                else:
                    entries.append(0)
            out.append(ConstraintFunction(new_q, 2, tuple(entries)))
    return CFSet(tuple(out))


def restrict_instance(
    inst: LabeledInstance,
    removed: Sequence,
    target: CFSet,
) -> LabeledInstance:
    """Drop ``removed`` variables and every constraint touching them, then
    undo the universal augmentation: constraints whose target function is
    unary but whose tuple is binary merge their two variables.

    The result is an unlabeled instance over ``target``.
    """
    removed_set = set(removed)
    kept = [v for v in inst.variables if v not in removed_set]
    surviving = [
        (j, vs)
        for j, vs in inst.constraints
        if not any(v in removed_set for v in vs)
    ]

    merged_constraints = []
    merges = []
    for j, vs in surviving:
        n_target = target.functions[j].arity
        if len(vs) == n_target:
            merged_constraints.append((j, vs))
        elif len(vs) == 2 and n_target == 1:
            merges.append(vs)
            merged_constraints.append((j, (vs[0],)))
        else:
            raise InstanceError(
                f"constraint arity {len(vs)} does not match target arity {n_target}"
            )

    # a merged class is named by its str-smallest member
    root = union_find(kept, merges, key=str)
    variables = tuple(sorted(set(root.values()), key=str))
    constraints = tuple((j, tuple(root[v] for v in vs)) for j, vs in merged_constraints)
    return LabeledInstance(variables, constraints, ())


def instance_connected(inst: LabeledInstance) -> bool:
    """Connectivity of the variable-constraint incidence graph."""
    if not inst.variables:
        return True
    root = union_find(
        inst.variables, ((vs[0], v) for _, vs in inst.constraints for v in vs[1:])
    )
    return len(set(root.values())) == 1
