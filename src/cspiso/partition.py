"""Exact evaluation of partition functions by a depth-first sum-product.

``_sum_product`` is the one exact sum-product kernel behind ``Z``, ``Z^psi``
and signature matrices (``holant.signature_matrix`` calls it too, over
equality classes).  ``pinned_partition`` fixes the labeled variables and sums
over their extensions, with domain weights as unary factors on the unlabeled
variables; ``partition_function`` pins nothing.  The term cap counts all
``q**free`` assignments, skipped or not, so #P-hardness cannot turn into a
hang; ``_check_terms`` is its one check, shared with the Holant side.

The kernel walks the free variables in order and works a row at a time.  A
factor is read at the depth of its last variable, and the q entries it
offers that variable form one strided slice of its table, taken in C.  The
factors whose other slots are all pinned make one constant q-vector per
depth, computed once per call and multiplied into the table of the depth's
first row factor.  At each node the rows multiply into one q-vector: the
last free variable is summed in one pass, and every other variable descends
only into its nonzero values, so a zero partial product skips its subtree.

Rational and Gaussian tables enter the kernel as integers: every
``ConstraintFunction`` (the weights too, which a ``CFSet`` keeps as a unary
one) keeps its entries times the lcm of their denominators, and that lcm (1
for a table of integers, which passes its own tuple).  Gaussian integers
``a + b*i`` are packed into the ints ``a + b*M`` (Kronecker substitution):
``i -> M`` is a ring homomorphism onto the integers mod ``M**2 + 1``, so the
sum's balanced residue is ``x + y*M`` for its value ``x + y*i`` whenever the
power of two ``M`` exceeds twice a bound on ``|x|`` and ``|y|``, fixed before
the run.  The sum is then divided once by the product of the denominators
its factors used (``_integer_factors``, ``algebra.exact_quotient``).
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .algebra import ConstraintFunction, GaussianRational, Scalar, exact_quotient, gaussian
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
    index of their positions.

    Pinned-only factors fold into one prefix.  Every other factor belongs to
    the depth of its last position ``x``: the place values of the slots that
    hold ``x`` add up to its stride, so at a node its entries for
    ``x = 0 .. q-1`` are ``entries[base : base + (q-1)*stride + 1 : stride]``,
    where ``base`` adds the place values of its other slots.  A factor whose
    other slots are all pinned (a weight, f(x, x)) is such a slice once per
    call; those of a depth multiply into one constant vector, which is then
    multiplied into the table of the depth's first row factor if it has
    one.  At a node the rows multiply into one q-vector; the last depth adds
    the partial product times its sum, and every other depth descends only
    into the values whose entry is nonzero.  The free suffix must start at
    zeros and is left at zeros."""
    n_free = len(values) - n_fixed
    prefix = scalar
    const: List[Optional[Sequence[Scalar]]] = [None] * n_free
    rows: List[List[list]] = [[] for _ in range(n_free)]
    for entries, positions in factors:
        last = max(positions) if positions else -1
        if last < n_fixed:
            idx = 0
            for p in positions:
                idx = idx * q + values[p]
            prefix = prefix * entries[idx]
            continue
        base = stride = unit = 0  # unit: the place value of one slot of ``last``
        other = []
        place = 1
        for p in reversed(positions):
            if p == last:
                stride += place
                unit = unit or place
            elif p < n_fixed:
                base += values[p] * place
            else:
                other.append((p, place))
            place *= q
        span = (q - 1) * stride + 1
        depth = last - n_fixed
        if other:
            rows[depth].append([entries, base, span, stride, other, unit])
            continue
        row = entries[base:base + span:stride]
        vec = const[depth]
        const[depth] = row if vec is None else list(map(mul, vec, row))
    if not prefix or not n_free:
        return prefix
    for depth, vec in enumerate(const):
        if vec is not None and rows[depth]:
            first = rows[depth][0]
            unit = first[5]
            first[0] = [x * vec[i // unit % q] for i, x in enumerate(first[0])]
            const[depth] = None
    ones = [1] * q
    partial = [prefix] * n_free  # partial[d]: prefix times the entries chosen above depth d
    branches: List[Optional[Iterator[Tuple[int, Scalar]]]] = [None] * n_free
    total: Scalar = 0
    depth, top = 0, n_free - 1
    while True:
        vec = const[depth]
        for entries, base, span, stride, other, _ in rows[depth]:
            for p, place in other:
                base += values[p] * place
            row = entries[base:base + span:stride]
            vec = row if vec is None else list(map(mul, vec, row))
        if vec is None:
            vec = ones
        if depth < top:
            branches[depth] = enumerate(vec)
        else:
            total = total + partial[depth] * sum(vec)
            depth -= 1
        # the next nonzero value of the deepest open depth; an exhausted
        # depth resets its variable and backs up
        while depth >= 0:
            for v, x in branches[depth]:
                if x:
                    values[n_fixed + depth] = v
                    partial[depth + 1] = partial[depth] * x
                    depth += 1
                    break
            else:
                values[n_fixed + depth] = 0
                depth -= 1
                continue
            break
        else:
            return total


def _integer_factors(
    tables: Sequence[Tuple[ConstraintFunction, Tuple[int, ...]]],
    terms: int,
    scalar: int = 1,
) -> Tuple[List[Factor], Callable[[int], Scalar]]:
    """``(function, positions)`` tables as ``_sum_product`` factors over the
    functions' integer forms, and the map from the kernel's sum to the value:
    it divides once by the product of the functions' denominators
    (``algebra.exact_quotient``).

    If a table is Gaussian, every Gaussian integer ``a + b*i`` is packed as
    ``a + b*M`` and the map decodes the sum's balanced residue mod
    ``M**2 + 1`` first.  ``M`` is the least power of two above ``2*B``, where
    ``B = terms * |scalar| * prod(max |a| + |b| of each table)`` bounds both
    parts of a sum of ``terms`` products, ``scalar`` times one entry of each
    table.  Unless ``B = 0``, which makes every term 0, each part of an
    entry is below ``M/2``, so a nonzero entry packs to a nonzero int and
    the kernel skips the same zeros."""
    den = 1
    for fn, _ in tables:
        den *= fn._den
    functions = {fn for fn, _ in tables}
    if all(fn.is_rational() for fn in functions):
        return [(fn._int_entries, positions) for fn, positions in tables], (
            lambda total: exact_quotient(total, den))
    bound = terms * abs(scalar)
    for fn, _ in tables:
        bound *= max(abs(x.re) + abs(x.im) if type(x) is GaussianRational else abs(x)
                     for x in fn._int_entries)
    m = 1 << (2 * bound).bit_length()
    packed = {fn: tuple(x.re + x.im * m if type(x) is GaussianRational else x
                        for x in fn._int_entries) for fn in functions}
    modulus = m * m + 1

    def decode(total: int) -> Scalar:
        r = total % modulus
        if 2 * r > modulus:
            r -= modulus
        re = (r + m // 2) % m - m // 2
        return exact_quotient(gaussian(re, (r - re) // m), den)

    return [(packed[fn], positions) for fn, positions in tables], decode


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
    # weights are unary: each joins the constant vector of its variable's depth
    if fset.weights is not None:
        tables += [(fset._weight_fn, (i,)) for i in range(len(psi), len(order))]
    factors, finish = _integer_factors(tables, q ** len(free))
    return finish(_sum_product(q, factors, list(psi) + [0] * len(free), len(psi)))


def partition_function(fset: CFSet, inst: LabeledInstance, cap: Optional[int] = None) -> Scalar:
    """``Z_{F,alpha}``: labels are ignored; every variable is summed."""
    unlabeled = LabeledInstance(inst.variables, inst.constraints, ())
    return pinned_partition(fset, unlabeled, (), cap=cap)
