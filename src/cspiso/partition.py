"""Exact evaluation of partition functions by a depth-first sum-product.

``_sum_product`` is the one exact sum-product kernel behind ``Z``, ``Z^psi``
and signature matrices (``holant.signature_matrix`` calls it too, over
equality classes).  ``pinned_partition`` fixes the labeled variables and sums
over their extensions, with domain weights as unary factors on the unlabeled
variables; ``partition_function`` pins nothing.  The kernel reads each factor
once its last variable has a value and skips the subtree below every zero
partial product.  The term cap counts all ``q**free`` assignments, skipped
or not, so #P-hardness cannot turn into a hang; ``_check_terms`` is its one
check, shared with the Holant side.

Rational and Gaussian tables enter the kernel in integer form: every
``ConstraintFunction`` (the weights too, which a ``CFSet`` keeps as a unary
one) keeps its entries times the lcm of their denominators, and that lcm (1
for a table of integers, which passes its own tuple).  The kernel then
multiplies integers (or Gaussian integers) only, and the sum is divided once
by the product of the denominators its factors used (``_integer_factors``,
``algebra.exact_quotient``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .algebra import ConstraintFunction, Scalar, exact_quotient
from .instances import CFSet, LabeledInstance, PinMap

DEFAULT_TERM_CAP = 10_000_000

Factor = Tuple[Sequence[Scalar], Tuple[int, ...]]  # (entries, positions)


class TermCapExceeded(RuntimeError):
    def __init__(self, terms: int, cap: int):
        super().__init__(f"enumeration needs {terms} terms, cap is {cap}")
        self.terms = terms
        self.cap = cap


def _check_terms(terms: int, cap: Optional[int]) -> None:
    """The one term-cap policy: ``None`` means ``DEFAULT_TERM_CAP``, a
    negative cap is a ``ValueError``, and more than ``cap`` terms raise
    ``TermCapExceeded``."""
    cap = DEFAULT_TERM_CAP if cap is None else cap
    if cap < 0:
        raise ValueError(f"term cap must be at least 0, got {cap}")
    if terms > cap:
        raise TermCapExceeded(terms, cap)


def _sum_product(
    q: int,
    factors: Sequence[Factor],
    values: List[int],
    n_fixed: int,
    scalar: Scalar = 1,
) -> Scalar:
    """Sum, over every assignment of the free suffix ``values[n_fixed:]``, of
    ``scalar`` times the product over factors of the entry at the base-q
    index of their positions.  Pinned-only factors fold into one prefix; each
    other factor is read at the depth of its last position, one partial
    product per depth, and a zero partial product skips its subtree.  The
    free suffix must start at zeros and is left at zeros."""
    n_free = len(values) - n_fixed
    prefix = scalar
    placed: List[List[Factor]] = [[] for _ in range(n_free)]
    for entries, positions in factors:
        last = max(positions, default=-1)
        if last >= n_fixed:
            placed[last - n_fixed].append((entries, positions))
            continue
        idx = 0
        for p in positions:
            idx = idx * q + values[p]
        prefix = prefix * entries[idx]
    if not prefix or not n_free:
        return prefix
    partial = [prefix] * n_free  # partial[d]: prefix times factors above depth d
    total: Scalar = 0
    depth, top = 0, n_free - 1
    while True:
        term = partial[depth]
        for entries, positions in placed[depth]:
            idx = 0
            for p in positions:
                idx = idx * q + values[p]
            term = term * entries[idx]
            if not term:
                break
        if term:
            if depth < top:
                depth += 1
                partial[depth] = term
                continue
            total = total + term
        # next value at this depth; an exhausted depth resets and backs up
        pos = n_fixed + depth
        while values[pos] == q - 1:
            values[pos] = 0
            pos -= 1
            depth -= 1
            if depth < 0:
                return total
        values[pos] += 1


def _integer_factors(
    tables: Sequence[Tuple[ConstraintFunction, Tuple[int, ...]]],
) -> Tuple[List[Factor], int]:
    """``(function, positions)`` tables as ``_sum_product`` factors over the
    functions' integer forms, and the product of their denominators, by
    which the kernel's sum is divided once (``algebra.exact_quotient``)."""
    factors, den = [], 1
    for fn, positions in tables:
        factors.append((fn._int_entries, positions))
        den *= fn._den
    return factors, den


def pinned_partition(
    fset: CFSet,
    inst: LabeledInstance,
    psi: PinMap,
    cap: Optional[int] = None,
) -> Scalar:
    """``Z^psi``: sum over extensions of the pinning, already normalized by
    the pinned weights (only unlabeled variables contribute weight factors).
    The kernel sums the integer tables; the sum is divided once by one
    denominator per constraint and one per weighted free variable."""
    inst.validate_against(fset)
    q = fset.q
    if len(psi) != inst.k:
        raise ValueError(f"pin map has {len(psi)} values, instance has k={inst.k}")
    if any(not 0 <= x < q for x in psi):
        raise ValueError("pin value out of domain range")

    free = inst.unlabeled_variables()
    _check_terms(q ** len(free), cap)

    # Variable order: labeled first (fixed), then free in stable order.
    order = list(inst.labels) + list(free)
    position = {v: i for i, v in enumerate(order)}
    tables = [
        (fset.functions[j], tuple(position[v] for v in vs)) for j, vs in inst.constraints
    ]
    # weights never vanish: after the constraints, a zero term skips them
    if fset.weights is not None:
        tables += [(fset._weight_fn, (i,)) for i in range(len(psi), len(order))]
    factors, den = _integer_factors(tables)
    return exact_quotient(_sum_product(q, factors, list(psi) + [0] * len(free), len(psi)), den)


def partition_function(fset: CFSet, inst: LabeledInstance, cap: Optional[int] = None) -> Scalar:
    """``Z_{F,alpha}``: labels are ignored; every variable is summed."""
    unlabeled = LabeledInstance(inst.variables, inst.constraints, ())
    return pinned_partition(fset, unlabeled, (), cap=cap)
