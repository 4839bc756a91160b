"""Exact evaluation of partition functions by exhaustive enumeration.

``_sum_product`` is the one exact sum-product enumerator behind ``Z``,
``Z^psi`` and signature matrices (``holant.signature_matrix`` builds its
factors over equality classes and calls it too).  ``partition_function``
sums over all ``q**|V|`` assignments; ``pinned_partition`` fixes the labeled
variables and sums over the ``q**|unlabeled|`` extensions; domain weights
enter as unary factors on the unlabeled variables.  Evaluation order is
lexicographic over the instance's stable variable ordering, and a hard term
cap (``DEFAULT_TERM_CAP``, ``TermCapExceeded``, shared with the Holant
side) keeps #P-hardness from turning into a hang.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .algebra import Scalar
from .instances import CFSet, LabeledInstance, PinMap

DEFAULT_TERM_CAP = 10_000_000

Factor = Tuple[Sequence[Scalar], Tuple[int, ...]]  # (entries, positions)


class TermCapExceeded(RuntimeError):
    def __init__(self, terms: int, cap: int):
        super().__init__(f"enumeration needs {terms} terms, cap is {cap}")
        self.terms = terms
        self.cap = cap


def _sum_product(
    q: int,
    factors: Sequence[Factor],
    values: List[int],
    n_fixed: int,
    scalar: Scalar = 1,
) -> Scalar:
    """Sum, over the free suffix ``values[n_fixed:]`` in lexicographic order,
    of ``scalar`` times the product over factors of the entry at the base-q
    index of their positions.  A term stops at its first zero factor.  The
    free suffix must start at zeros and is left at zeros."""
    n = len(values)
    total: Scalar = 0
    while True:
        term = scalar
        for entries, positions in factors:
            idx = 0
            for p in positions:
                idx = idx * q + values[p]
            value = entries[idx]
            if value == 0:
                term = 0
                break
            term = term * value
        total = total + term
        # next assignment over the free suffix, lexicographic
        pos = n - 1
        while pos >= n_fixed and values[pos] == q - 1:
            values[pos] = 0
            pos -= 1
        if pos < n_fixed:
            return total
        values[pos] += 1


def pinned_partition(
    fset: CFSet,
    inst: LabeledInstance,
    psi: PinMap,
    cap: Optional[int] = None,
) -> Scalar:
    """``Z^psi``: sum over extensions of the pinning, already normalized by
    the pinned weights (only unlabeled variables contribute weight factors)."""
    inst.validate_against(fset)
    q = fset.q
    if len(psi) != inst.k:
        raise ValueError(f"pin map has {len(psi)} values, instance has k={inst.k}")
    if any(not 0 <= x < q for x in psi):
        raise ValueError("pin value out of domain range")
    cap = DEFAULT_TERM_CAP if cap is None else cap

    free = inst.unlabeled_variables()
    terms = q ** len(free)
    if terms > cap:
        raise TermCapExceeded(terms, cap)

    # Variable order: labeled first (fixed), then free in stable order.
    order = list(inst.labels) + list(free)
    position = {v: i for i, v in enumerate(order)}
    factors: List[Factor] = [
        (fset.functions[j].entries, tuple(position[v] for v in vs))
        for j, vs in inst.constraints
    ]
    # weights never vanish: after the constraints, a zero term skips them
    if fset.weights is not None:
        factors += [(fset.weights, (i,)) for i in range(len(psi), len(order))]
    return _sum_product(q, factors, list(psi) + [0] * len(free), len(psi))


def partition_function(fset: CFSet, inst: LabeledInstance, cap: Optional[int] = None) -> Scalar:
    """``Z_{F,alpha}``: labels are ignored; every variable is summed."""
    unlabeled = LabeledInstance(inst.variables, inst.constraints, ())
    return pinned_partition(fset, unlabeled, (), cap=cap)
