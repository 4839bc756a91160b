"""Deterministic size-ordered streams of candidate witness instances.

``simple_candidates`` enumerates simple k-labeled instances whose free
variables are connected through shared constraints (instances splitting over
their free variables are products and carry no extra separating power).
``pli_candidates`` drops the simplicity restrictions (repeated variables,
duplicate constraints, label-only constraints), which is what pin-map
witnesses and all-unary sets require.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, List, Sequence, Set, Tuple

from .algebra import union_find
from .instances import LabeledInstance, canonical_encoding, is_simple

# A (free variables, constraints) block with more raw candidates than this
# is skipped by both streams.
_MAX_BLOCK = 200_000
# The most free variables and constraints of a simple candidate, and the
# most free variables of a general one.
_SIMPLE_MAX_FREE = 5
_SIMPLE_MAX_CONSTRAINTS = 6
_PLI_MAX_FREE = 3


def _labels(k: int) -> Tuple:
    return tuple(("l", i + 1) for i in range(k))


def _frees(m: int) -> Tuple:
    return tuple(("v", i + 1) for i in range(m))


def isolated_variable_instance(k: int) -> LabeledInstance:
    """One free variable and no constraints: detects domain-size mismatch."""
    labels = _labels(k)
    return LabeledInstance(labels + _frees(1), (), labels)


def _free_connected(constraints, frees) -> bool:
    """No split of the constraints into groups with disjoint free supports."""
    free_set = set(frees)
    touched = [[v for v in vs if v in free_set] for _, vs in constraints]
    if set().union(*touched) != free_set:
        return False
    root = union_find(frees, ((vs[0], v) for vs in touched for v in vs[1:]))
    # constraints with no free variable at all are separate factors
    return len(set(root.values())) <= 1 and all(touched)


def _emit_block(
    arities: Sequence[int],
    k: int,
    m: int,
    c: int,
    allow_repeats: bool,
    allow_label_only: bool,
) -> List[LabeledInstance]:
    """One block of candidates, sorted by canonical key.  ``allow_repeats``
    lets a constraint repeat a variable and the instance repeat a constraint."""
    labels = _labels(k)
    frees = _frees(m)
    variables = labels + frees
    label_set = set(labels)
    pool = []
    for j, n in enumerate(arities):
        tuples = (
            itertools.product(variables, repeat=n)
            if allow_repeats
            else itertools.permutations(variables, n)
        )
        for vs in tuples:
            if not allow_label_only and all(v in label_set for v in vs):
                continue
            if m > 0 and not any(v not in label_set for v in vs):
                continue
            pool.append((j, tuple(vs)))
    picker = (
        itertools.combinations_with_replacement(pool, c)
        if allow_repeats
        else itertools.combinations(pool, c)
    )
    out = []
    seen: Set = set()
    for combo in picker:
        if not allow_repeats:
            keys = {(j, tuple(sorted(vs, key=str))) for j, vs in combo}
            if len(keys) != len(combo):
                continue
        if m > 0 and not _free_connected(combo, frees):
            continue
        if m == 0 and not combo:
            continue
        inst = LabeledInstance(variables, combo, labels)
        key = canonical_encoding(inst)
        if key in seen:
            continue
        seen.add(key)
        out.append((key, inst))
    out.sort(key=lambda pair: pair[0])
    return [inst for _, inst in out]


def simple_candidates(arities: Sequence[int], k: int) -> Iterator[LabeledInstance]:
    """Simple instances by increasing (free variables + constraints)."""
    yield isolated_variable_instance(k)
    for size in range(2, _SIMPLE_MAX_FREE + _SIMPLE_MAX_CONSTRAINTS + 1):
        for c in range(1, min(size - 1, _SIMPLE_MAX_CONSTRAINTS) + 1):
            m = size - c
            if not 1 <= m <= _SIMPLE_MAX_FREE:
                continue
            if _block_too_large(arities, k, m, c, False):
                continue
            yield from _emit_block(arities, k, m, c, False, False)


def pli_candidates(
    arities: Sequence[int], k: int, max_constraints: int
) -> Iterator[LabeledInstance]:
    """General instances: repeats and duplicate constraints allowed; for
    k > 0 label-only constraints are included (that is where pins show)."""
    yield isolated_variable_instance(k)
    for size in range(1, _PLI_MAX_FREE + max_constraints + 1):
        for c in range(1, min(size, max_constraints) + 1):
            m = size - c
            if not 0 <= m <= _PLI_MAX_FREE:
                continue
            if m == 0 and k == 0:
                continue
            if _block_too_large(arities, k, m, c, True):
                continue
            yield from _emit_block(arities, k, m, c, True, k > 0)


def _block_too_large(arities, k, m, c, allow_repeats) -> bool:
    n_vars = k + m
    pool = 0
    for n in arities:
        pool += n_vars ** n if allow_repeats else math.perm(n_vars, n)
    return math.comb(pool + (c - 1 if allow_repeats else 0), c) > _MAX_BLOCK


def unary_subset_instances(t: int, k: int) -> List[LabeledInstance]:
    """One free variable carrying each nonempty subset of the unary
    functions; products of these are every simple instance's factors."""
    labels = _labels(k)
    v = ("v", 1)
    out = []
    for size in range(1, t + 1):
        for subset in itertools.combinations(range(t), size):
            constraints = tuple((j, (v,)) for j in subset)
            out.append(LabeledInstance(labels + (v,), constraints, labels))
    return out


def unary_power_instances(t: int, k: int, max_total: int) -> List[LabeledInstance]:
    """Power instances: one free variable with p_j copies of each unary
    constraint, by increasing total multiplicity.  Not simple for p >= 2,
    and provably necessary for all-unary sets."""
    labels = _labels(k)
    v = ("v", 1)
    out = []
    for total in range(1, max_total + 1):
        for p in itertools.product(range(total + 1), repeat=t):
            if sum(p) != total:
                continue
            constraints = []
            for j, pj in enumerate(p):
                constraints.extend([(j, (v,))] * pj)
            out.append(LabeledInstance(labels + (v,), tuple(constraints), labels))
    return out


def probe_stream(arities: Sequence[int], k: int, q_hint: int = 3) -> Iterator[LabeledInstance]:
    """The distinguishing probe order: cheap domain-size probe, the simple
    instances by size, then non-simple instances (repeated variables and
    constraint multiplicities).

    The fallback phase is not optional: sets containing unary functions can
    coincide on every simple instance while repeated unary constraints
    separate them, which is exactly how the constructive witness families
    use their multiplicities.
    """
    t = len(arities)
    if all(n == 1 for n in arities):
        yield isolated_variable_instance(k)
        yield from unary_subset_instances(t, k)
        if k > 0:
            for inst in pli_candidates(arities, k, max_constraints=4 * q_hint):
                if not is_simple(inst):
                    yield inst
        else:
            yield from unary_power_instances(t, k, max_total=4 * q_hint)
        return
    yield from simple_candidates(arities, k)
    for inst in pli_candidates(arities, k, max_constraints=4 * q_hint):
        if not is_simple(inst):
            yield inst
