"""Constraint function sets and k-labeled instances with their product monoid.

An instance stores constraints as ``(function index, variable tuple)`` pairs
and is agnostic of the concrete function set: ``replace_functions`` is pure
validation because the structural object is shared between compatible sets.
Constraints are kept sorted under a deterministic total order (function
index, then variable positions) so that equal instances compare equal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from .algebra import ConstraintFunction, Scalar

Variable = Hashable
Constraint = Tuple[int, Tuple[Variable, ...]]
PinMap = Tuple[int, ...]


class InstanceError(ValueError):
    pass


class CompatibilityError(InstanceError):
    pass


@dataclass(frozen=True)
class CFSet:
    """Ordered list of constraint functions over a common domain, plus
    optional nonzero domain weights (absent means all ones).

    ``_memo`` holds what other modules derive from the set (twin
    contraction, invariant profile, probe values); it is not a field, so it
    takes no part in equality, hashing or repr, and it is freed with the set.
    """

    functions: Tuple[ConstraintFunction, ...]
    weights: Optional[Tuple[Scalar, ...]] = None

    def __post_init__(self):
        functions = tuple(self.functions)
        object.__setattr__(self, "functions", functions)
        if not functions:
            raise InstanceError("a constraint function set needs at least one function")
        q = functions[0].q
        if any(f.q != q for f in functions):
            raise InstanceError("all functions in a set must share the domain size")
        if self.weights is not None:
            weights = tuple(self.weights)
            object.__setattr__(self, "weights", weights)
            if len(weights) != q:
                raise InstanceError(f"expected {q} domain weights, got {len(weights)}")
            if any(w == 0 for w in weights):
                raise InstanceError("domain weights must be nonzero")
        # the weights as a unary table, which keeps their integer form
        weight_fn = None if self.weights is None else ConstraintFunction(q, 1, self.weights)
        object.__setattr__(self, "_weight_fn", weight_fn)
        object.__setattr__(self, "_arities", tuple(f.arity for f in functions))
        object.__setattr__(self, "_q", q)
        object.__setattr__(self, "_hash", hash((functions, self.weights)))
        object.__setattr__(self, "_memo", {})

    def __hash__(self):
        return self._hash

    @property
    def q(self) -> int:
        return self._q

    @property
    def t(self) -> int:
        return len(self.functions)

    def arities(self) -> Tuple[int, ...]:
        return self._arities

    def weight(self, i: int) -> Scalar:
        return 1 if self.weights is None else self.weights[i]


def compatible(fset: CFSet, gset: CFSet) -> bool:
    """Same count and equal-indexed arities (domains may differ)."""
    return fset._arities == gset._arities


def require_compatible(fset: CFSet, gset: CFSet) -> None:
    if not compatible(fset, gset):
        raise CompatibilityError(
            f"incompatible sets: arities {fset.arities()} vs {gset.arities()}"
        )


@dataclass(frozen=True)
class LabeledInstance:
    """A #CSP instance with ``k`` distinguished labeled variables.

    ``variables`` fixes a stable ordering, ``labels[i]`` is the variable
    labeled ``i+1``, and ``constraints`` is a multiset (sorted tuple) of
    ``(function index, variable tuple)`` pairs.
    """

    variables: Tuple[Variable, ...]
    constraints: Tuple[Constraint, ...]
    labels: Tuple[Variable, ...] = ()

    def __post_init__(self):
        variables = tuple(self.variables)
        labels = tuple(self.labels)
        if len(set(variables)) != len(variables):
            raise InstanceError("duplicate variable names")
        var_set = set(variables)
        if len(set(labels)) != len(labels):
            raise InstanceError("a variable cannot be labeled more than once")
        if any(v not in var_set for v in labels):
            raise InstanceError("label refers to an unknown variable")
        pos = {v: i for i, v in enumerate(variables)}
        normalized = []
        for j, vs in self.constraints:
            vs = tuple(vs)
            if any(v not in var_set for v in vs):
                raise InstanceError(f"constraint {j} uses unknown variables {vs}")
            normalized.append((j, vs))
        normalized.sort(key=lambda c: (c[0], tuple(pos[v] for v in c[1])))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "constraints", tuple(normalized))
        object.__setattr__(
            self, "_hash", hash((variables, self.constraints, labels))
        )

    def __hash__(self):
        return self._hash

    @property
    def k(self) -> int:
        return len(self.labels)

    def unlabeled_variables(self) -> Tuple[Variable, ...]:
        labeled = set(self.labels)
        return tuple(v for v in self.variables if v not in labeled)

    def validate_against(self, fset: CFSet) -> None:
        for j, vs in self.constraints:
            if not 0 <= j < fset.t:
                raise InstanceError(f"function index {j} out of range")
            if len(vs) != fset.functions[j].arity:
                raise InstanceError(
                    f"constraint on F_{j} has {len(vs)} variables, arity is "
                    f"{fset.functions[j].arity}"
                )


def unit_instance(k: int) -> LabeledInstance:
    """``U_k``: k labeled variables and no constraints."""
    variables = tuple(("u", i + 1) for i in range(k))
    return LabeledInstance(variables, (), variables)


def product(k1: LabeledInstance, k2: LabeledInstance) -> LabeledInstance:
    """Glue two k-labeled instances along their labels.

    Variables get fresh integer ids; the provenance is 0..|V1|-1 for the
    (merged) variables of ``k1`` in order, then the remaining ``k2`` ones.
    """
    if k1.k != k2.k:
        raise InstanceError(f"label count mismatch: {k1.k} vs {k2.k}")
    fresh: Dict[Tuple[int, Variable], int] = {}
    next_id = 0
    for v in k1.variables:
        fresh[(0, v)] = next_id
        next_id += 1
    for i, v in enumerate(k2.labels):
        fresh[(1, v)] = fresh[(0, k1.labels[i])]
    for v in k2.variables:
        if (1, v) not in fresh:
            fresh[(1, v)] = next_id
            next_id += 1
    variables = tuple(range(next_id))
    labels = tuple(fresh[(0, v)] for v in k1.labels)
    constraints = [(j, tuple(fresh[(0, v)] for v in vs)) for j, vs in k1.constraints]
    constraints += [(j, tuple(fresh[(1, v)] for v in vs)) for j, vs in k2.constraints]
    return LabeledInstance(variables, tuple(constraints), labels)


def power(k: LabeledInstance, exponent: int) -> LabeledInstance:
    """``K^h`` in the k-labeled product monoid (``K^0 = U_k``)."""
    if exponent < 0:
        raise InstanceError("negative power")
    result = unit_instance(k.k)
    for _ in range(exponent):
        result = product(result, k)
    return result


def is_simple(inst: LabeledInstance) -> bool:
    """Distinct variables per constraint, multiplicity one up to argument
    order, and no constraint on labeled variables only."""
    labeled = set(inst.labels)
    seen = set()
    for j, vs in inst.constraints:
        if len(set(vs)) != len(vs):
            return False
        if all(v in labeled for v in vs):
            return False
        key = (j, tuple(sorted(vs, key=lambda v: inst.variables.index(v))))
        if key in seen:
            return False
        seen.add(key)
    return True


def replace_functions(inst: LabeledInstance, fset: CFSet, gset: CFSet) -> LabeledInstance:
    """``K_{F->G}``: validate and reinterpret; the structure is unchanged."""
    require_compatible(fset, gset)
    inst.validate_against(fset)
    return inst


def forget_labels(inst: LabeledInstance, k_prime: int) -> LabeledInstance:
    if k_prime > inst.k:
        raise InstanceError(f"cannot keep {k_prime} labels, instance has {inst.k}")
    return LabeledInstance(inst.variables, inst.constraints, inst.labels[:k_prime])


# ---------------------------------------------------------------------------
# Equality up to variable renaming (test support)
# ---------------------------------------------------------------------------

def canonical_encoding(inst: LabeledInstance):
    """A renaming-invariant encoding: labels keep their identity, unlabeled
    variables are minimized over all orderings.  Exponential in the number of
    unlabeled variables; intended for small test instances."""
    labeled_index = {v: i for i, v in enumerate(inst.labels)}
    free = inst.unlabeled_variables()
    best = None
    for perm in itertools.permutations(range(len(free))):
        names = dict(labeled_index)
        for pos, v in enumerate(free):
            names[v] = len(inst.labels) + perm[pos]
        enc = tuple(sorted((j, tuple(names[v] for v in vs)) for j, vs in inst.constraints))
        key = (enc, len(inst.variables), inst.k)
        if best is None or key < best:
            best = key
    if best is None:
        best = ((), len(inst.variables), inst.k)
    return best


def same_up_to_renaming(a: LabeledInstance, b: LabeledInstance) -> bool:
    if len(a.variables) != len(b.variables) or a.k != b.k:
        return False
    return canonical_encoding(a) == canonical_encoding(b)
