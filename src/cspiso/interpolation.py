"""Interpolation machinery: the power-sum class checker, well-balanced pin
maps, the three witness-instance families of the first proof with their
closed-form values, and the distinguisher returning an isomorphism or a
verified counterexample.

The distinguisher follows the constructive route: contract twins, search the
contracted sets for isomorphisms (``structure.isomorphisms``) and lift one
to the original domain, and otherwise search size-ordered candidate
instances for one whose pinned partition values differ (verified exactly
before returning).  ``intertwiners.witness_sigma`` takes its witness from
the same probe search, on one set with two pin maps.  Each set keeps its
probe values per pin map on itself; the probes come from one stream per
(arities, k, q), kept for the life of the process as far as any call has
read it and shared by every thread under one lock.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebra import GaussianRational, Scalar, _norm_rational, all_tuples, tuple_to_index
from .instances import CFSet, LabeledInstance, PinMap, require_compatible
from .partition import pinned_partition
from .structure import (
    Permutation,
    TwinContraction,
    _slot_value,
    contract_twins,
    is_isomorphism,
    isomorphisms,
)
from .witnesses import probe_stream


DEFAULT_MAX_PROBES = 4000


class InterpolationError(ValueError):
    pass


class VandermondePremiseError(ValueError):
    """The power-sum premise fails; carries the failing exponent tuple."""

    def __init__(self, exponents: Tuple[int, ...], value: Scalar):
        super().__init__(f"premise sum is {value!r} != 0 at exponents {exponents}")
        self.exponents = exponents
        self.value = value


class BucketCapacityError(RuntimeError):
    pass


class DistinguishInconclusive(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Vandermonde class sums
# ---------------------------------------------------------------------------

def vandermonde_class_sums(a: Sequence[Scalar], b: Sequence[Sequence[Scalar]]):
    """Verify the power-sum premise, then return the row-equality classes
    with their (necessarily zero) coefficient sums.

    Premise: ``sum_i a_i prod_j b[i][j]**p_j == 0`` for every exponent tuple
    with entries below ``len(a)``.  On failure raises
    :class:`VandermondePremiseError` with the offending tuple.
    """
    n = len(a)
    if len(b) != n:
        raise InterpolationError("coefficient table must be |I| x |J|")
    n_j = len(b[0]) if b else 0
    if any(len(row) != n_j for row in b):
        raise InterpolationError("coefficient table must be |I| x |J|")
    for exps in itertools.product(range(n), repeat=n_j):
        total: Scalar = 0
        for i in range(n):
            term = a[i]
            for j, p in enumerate(exps):
                if p:
                    term = term * b[i][j] ** p
            total = total + term
        if total != 0:
            raise VandermondePremiseError(exps, total)
    groups: Dict[Tuple, List[int]] = {}
    for i in range(n):
        groups.setdefault(tuple(b[i]), []).append(i)
    classes = []
    for key in sorted(groups, key=lambda rows: groups[rows][0]):
        members = groups[key]
        total = 0
        for i in members:
            total = total + a[i]
        if total != 0:
            raise AssertionError(
                f"class {members} sums to {total!r}; the premise held, so this "
                "contradicts the interpolation lemma"
            )
        classes.append((tuple(members), total))
    return classes


# ---------------------------------------------------------------------------
# Well-balanced pin maps and bucket structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellBalancedMap:
    """A pin map on ``(n-1) * k_block`` labels arranged in ``n-1`` blocks;
    index ``a + d*k_block`` is coordinate ``d`` of block slot ``a``."""

    q: int
    n: int
    k_orig: int
    k_block: int
    phi: Tuple[int, ...]

    @property
    def total_labels(self) -> int:
        return (self.n - 1) * self.k_block

    def pattern(self, a: int) -> Tuple[int, ...]:
        return tuple(self.phi[a + d * self.k_block] for d in range(self.n - 1))

    def bucket(self, pattern: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(a for a in range(self.k_block) if self.pattern(a) == pattern)

    def buckets(self) -> Dict[Tuple[int, ...], Tuple[int, ...]]:
        out: Dict[Tuple[int, ...], List[int]] = {
            x: [] for x in all_tuples(self.q, self.n - 1)
        }
        for a in range(self.k_block):
            out[self.pattern(a)].append(a)
        return {x: tuple(v) for x, v in out.items()}

    def extend_pattern(self, x: Tuple[int, ...]) -> Tuple[int, ...]:
        # pad with the (arbitrary) first domain element
        return tuple(x) + (0,) * (self.n - 1 - len(x))


def required_multiplicity(q: int, n: int) -> int:
    return 2 * n * q ** n


def well_balanced_extension(
    phi: Sequence[int],
    q: int,
    n: int,
    multiplicity: Optional[int] = None,
) -> WellBalancedMap:
    """Extend a pin map so every (n-1)-pattern bucket holds at least
    ``multiplicity`` block slots (default is the proof bound ``2 n q**n``).

    Original pins keep their positions inside the first block; their upper
    block coordinates are padded with the first domain element.
    """
    if n < 2:
        raise InterpolationError("well-balancing needs a function of arity >= 2")
    phi = tuple(phi)
    if any(not 0 <= x < q for x in phi):
        raise InterpolationError("pin value out of range")
    mult = required_multiplicity(q, n) if multiplicity is None else multiplicity
    k = len(phi)
    if k and k % (n - 1) == 0:
        # a map already carrying the block structure and the bucket bound
        # is returned as is
        blocked = WellBalancedMap(q, n, k, k // (n - 1), phi)
        if is_well_balanced(blocked, mult):
            return blocked
    patterns = list(all_tuples(q, n - 1))
    k_block = k + mult * len(patterns)
    values = [0] * ((n - 1) * k_block)
    for a, value in enumerate(phi):
        values[a] = value
    slot = k
    for x in patterns:
        for _ in range(mult):
            for d in range(n - 1):
                values[slot + d * k_block] = x[d]
            slot += 1
    return WellBalancedMap(q, n, k, k_block, tuple(values))


def is_well_balanced(wb: WellBalancedMap, multiplicity: Optional[int] = None) -> bool:
    mult = required_multiplicity(wb.q, wb.n) if multiplicity is None else multiplicity
    return all(len(v) >= mult for v in wb.buckets().values())


@dataclass(frozen=True)
class BucketStructure:
    """Pigeonhole data tying a second pin map to the buckets: the selected
    image pattern ``s`` and, per bucket, the slots realizing it."""

    selection: Dict[Tuple[int, ...], Tuple[int, ...]]
    refined: Dict[Tuple[int, ...], Tuple[int, ...]]


def bucket_structure(wb: WellBalancedMap, psi: Sequence[int], q_psi: int) -> BucketStructure:
    """For each bucket pick the most common psi-image pattern (lexicographic
    smallest among ties) and the slots carrying it."""
    if len(psi) != wb.total_labels:
        raise InterpolationError("psi must cover all extended labels")
    selection = {}
    refined = {}
    for x, slots in wb.buckets().items():
        images: Dict[Tuple[int, ...], List[int]] = {}
        for a in slots:
            img = tuple(psi[a + d * wb.k_block] for d in range(wb.n - 1))
            images.setdefault(img, []).append(a)
        best = max(sorted(images), key=lambda img: len(images[img]))
        selection[x] = best
        refined[x] = tuple(images[best])
    return BucketStructure(selection, refined)


# ---------------------------------------------------------------------------
# The three instance families
# ---------------------------------------------------------------------------

def _u_var(a: int, d: int):
    return ("u", a, d)


def _family_scaffold(wb: WellBalancedMap):
    # label index of u(a, d) is a + d*k_block, matching wb.phi
    ordered = [None] * wb.total_labels
    for d in range(wb.n - 1):
        for a in range(wb.k_block):
            ordered[a + d * wb.k_block] = _u_var(a, d)
    return tuple(ordered)


def _allocate(wb: WellBalancedMap, exponents: Mapping, arities: Sequence[int]):
    """Slots per (j, x, r): consecutive runs inside the bucket of ext(x),
    disjoint across the argument positions of one (j, x)."""
    taken: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    allocation = {}
    buckets = wb.buckets()
    for (j, x, r), count in sorted(exponents.items()):
        if count == 0:
            continue
        if not 0 <= r < arities[j]:
            raise InterpolationError(f"argument position {r} out of range for F_{j}")
        bucket = buckets[wb.extend_pattern(x)]
        start = taken.get((j, x), 0)
        if start + count > len(bucket):
            raise BucketCapacityError(
                f"bucket {wb.extend_pattern(x)} holds {len(bucket)} slots, "
                f"need {start + count} for (j={j}, x={x})"
            )
        allocation[(j, x, r)] = bucket[start:start + count]
        taken[(j, x)] = start + count
    return allocation


def _claw_constraints(fset: CFSet, wb: WellBalancedMap, exponents: Mapping, center):
    arities = fset.arities()
    constraints = []
    for (j, x, r), slots in _allocate(wb, exponents, arities).items():
        n_j = arities[j]
        for a in slots:
            args = (
                tuple(_u_var(a, d) for d in range(r))
                + (center,)
                + tuple(_u_var(a, d) for d in range(r, n_j - 1))
            )
            constraints.append((j, args))
    return constraints


def build_family_one(fset: CFSet, wb: WellBalancedMap, exponents: Mapping) -> LabeledInstance:
    """One free variable with claw constraints placed per the exponents."""
    labels = _family_scaffold(wb)
    center = ("w", 1)
    constraints = _claw_constraints(fset, wb, exponents, center)
    return LabeledInstance(labels + (center,), tuple(constraints), labels)


def _center_value(fset: CFSet, exponents: Mapping, i: int) -> Scalar:
    """What a claw center at ``i`` contributes: its weight times every
    claw slot's value to the slot's exponent."""
    term: Scalar = fset.weight(i)
    for (j, x, r), p in exponents.items():
        if p:
            term = term * _slot_value(fset.functions[j], tuple(x), r, i) ** p
    return term


def _as_pinned(value: Scalar) -> Scalar:
    """``value`` in ``pinned_partition``'s form: a whole number is an ``int``."""
    return value if isinstance(value, GaussianRational) else _norm_rational(value)


def family_one_value(fset: CFSet, exponents: Mapping) -> Scalar:
    """The closed form the pinned partition value must equal."""
    return _as_pinned(sum(_center_value(fset, exponents, i) for i in range(fset.q)))


def build_family_two(
    fset: CFSet,
    anchor: int,
    wb: WellBalancedMap,
    exponent_list: Sequence[Mapping],
) -> LabeledInstance:
    """Anchor constraint on fresh free variables, each carrying its claws."""
    n_f = fset.functions[anchor].arity
    if len(exponent_list) != n_f:
        raise InterpolationError(f"need {n_f} exponent maps, got {len(exponent_list)}")
    labels = _family_scaffold(wb)
    centers = tuple(("w", h + 1) for h in range(n_f))
    constraints = [(anchor, centers)]
    for h, exponents in enumerate(exponent_list):
        constraints.extend(_claw_constraints(fset, wb, exponents, centers[h]))
    return LabeledInstance(labels + centers, tuple(constraints), labels)


def family_two_value(fset: CFSet, anchor: int, exponent_list: Sequence[Mapping]) -> Scalar:
    n_f = fset.functions[anchor].arity
    total: Scalar = 0
    for assignment in all_tuples(fset.q, n_f):
        term: Scalar = fset.functions[anchor].entries[tuple_to_index(assignment, fset.q)]
        if term == 0:
            continue
        for h, i in enumerate(assignment):
            term = term * _center_value(fset, exponent_list[h], i)
        total = total + term
    return _as_pinned(total)


def build_family_three(
    fset: CFSet,
    anchor: int,
    wb: WellBalancedMap,
    c_label: int,
    exponent_list: Sequence[Mapping],
) -> LabeledInstance:
    """Anchor constraint whose first argument is the labeled slot ``c``.

    For a unary anchor this degenerates to the single pinned constraint."""
    n_f = fset.functions[anchor].arity
    labels = _family_scaffold(wb)
    if not 0 <= c_label < wb.total_labels:
        raise InterpolationError(f"labeled index {c_label} out of range")
    pinned_var = labels[c_label]
    if n_f == 1:
        if exponent_list:
            raise InterpolationError("unary anchor takes no claw exponents")
        return LabeledInstance(labels, ((anchor, (pinned_var,)),), labels)
    if len(exponent_list) != n_f - 1:
        raise InterpolationError(f"need {n_f - 1} exponent maps, got {len(exponent_list)}")
    centers = tuple(("w", h + 1) for h in range(n_f - 1))
    constraints = [(anchor, (pinned_var,) + centers)]
    for h, exponents in enumerate(exponent_list):
        constraints.extend(_claw_constraints(fset, wb, exponents, centers[h]))
    return LabeledInstance(labels + centers, tuple(constraints), labels)


def family_three_value(
    fset: CFSet,
    anchor: int,
    pinned_value: int,
    exponent_list: Sequence[Mapping],
) -> Scalar:
    n_f = fset.functions[anchor].arity
    if n_f == 1:
        return _as_pinned(fset.functions[anchor].entries[pinned_value])
    total: Scalar = 0
    for assignment in all_tuples(fset.q, n_f - 1):
        term: Scalar = fset.functions[anchor].entries[
            tuple_to_index((pinned_value,) + assignment, fset.q)
        ]
        if term == 0:
            continue
        for h, i in enumerate(assignment):
            term = term * _center_value(fset, exponent_list[h], i)
        total = total + term
    return _as_pinned(total)


# ---------------------------------------------------------------------------
# The distinguisher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishResult:
    """Either an isomorphism (possibly only matching the pins up to twins)
    or a verified witness instance with both pinned values."""

    sigma: Optional[Permutation] = None
    twins_adjusted: bool = False
    witness: Optional[LabeledInstance] = None
    z_f: Optional[Scalar] = None
    z_g: Optional[Scalar] = None

    @property
    def isomorphic(self) -> bool:
        return self.sigma is not None


# One probe list and its stream per (arities, k, q_hint), shared by every
# set; _GROW is held while a probe list or a profile list grows, so two
# threads never resume one stream or append one value twice.
_PROBES: Dict[Tuple, Tuple[List[LabeledInstance], Iterator[LabeledInstance]]] = {}
_GROW = threading.Lock()


def _extend_profile(values, fset: CFSet, phi: PinMap, probe_key: Tuple, index: int) -> bool:
    """Grow the profile to cover ``index``, reading the shared probe stream
    as far as needed; False once the stream ends first."""
    with _GROW:
        if probe_key not in _PROBES:
            _PROBES[probe_key] = ([], probe_stream(*probe_key))
        probes, stream = _PROBES[probe_key]
        while len(values) <= index:
            if len(values) == len(probes):
                probe = next(stream, None)
                if probe is None:
                    return False
                probes.append(probe)
            values.append(pinned_partition(fset, probes[len(values)], phi))
    return True


def _lift(
    sigma_t: Permutation,
    contraction_f: TwinContraction,
    contraction_g: TwinContraction,
    fset: CFSet,
    gset: CFSet,
    pins: Sequence[Tuple[int, int]],
) -> Optional[Permutation]:
    """Extend a contracted-level isomorphism to the original domain,
    honoring required element mappings and per-element weights."""
    classes_f = contraction_f.classes
    classes_g = contraction_g.classes
    class_of_f = contraction_f.class_of
    class_of_g = contraction_g.class_of
    mapping: Dict[int, int] = {}
    taken = set()
    for a, b in pins:
        if class_of_g[b] != sigma_t[class_of_f[a]]:
            return None
        if mapping.get(a, b) != b:
            return None
        if a not in mapping and b in taken:
            return None
        if fset.weight(a) != gset.weight(b):
            return None
        mapping[a] = b
        taken.add(b)
    for label, cls in enumerate(classes_f):
        target = list(classes_g[sigma_t[label]])
        if len(cls) != len(target):
            return None
        remaining_src = [a for a in cls if a not in mapping]
        remaining_dst = [b for b in target if b not in taken]
        by_weight: Dict = {}
        for b in remaining_dst:
            by_weight.setdefault(gset.weight(b), []).append(b)
        for a in remaining_src:
            pool = by_weight.get(fset.weight(a))
            if not pool:
                return None
            mapping[a] = pool.pop()
    return tuple(mapping[i] for i in range(fset.q))


def distinguish(
    fset: CFSet,
    gset: CFSet,
    phi: Sequence[int] = (),
    psi: Sequence[int] = (),
    max_probes: int = DEFAULT_MAX_PROBES,
) -> DistinguishResult:
    """Return an isomorphism aligning the pin maps, or a concrete instance
    whose pinned partition values differ (computed exactly before returning).

    Sets over domains of different sizes are never isomorphic.  Their probes
    come from the stream of the larger domain, so the witness found does not
    depend on the order of the arguments.
    """
    require_compatible(fset, gset)
    phi, psi = tuple(phi), tuple(psi)
    if len(phi) != len(psi):
        raise InterpolationError("pin maps must have equal length")
    if max_probes < 0:
        raise InterpolationError(f"max_probes must be at least 0, got {max_probes}")
    if any(not 0 <= x < fset.q for x in phi) or any(not 0 <= y < gset.q for y in psi):
        raise InterpolationError("pin value out of range")

    k = len(phi)
    if fset.q == gset.q:
        contraction_f = contract_twins(fset)
        contraction_g = contract_twins(gset)
        if contraction_f.contracted.q == contraction_g.contracted.q:
            class_of_f = contraction_f.class_of
            class_of_g = contraction_g.class_of
            adjusted_candidate = None
            for sigma_t in isomorphisms(
                contraction_f.contracted, contraction_g.contracted
            ):
                if any(
                    class_of_g[psi[i]] != sigma_t[class_of_f[phi[i]]] for i in range(k)
                ):
                    continue
                pins = [(phi[i], psi[i]) for i in range(k)]
                lifted = _lift(sigma_t, contraction_f, contraction_g, fset, gset, pins)
                if lifted is not None and is_isomorphism(lifted, fset, gset):
                    return DistinguishResult(sigma=lifted)
                if adjusted_candidate is None:
                    lifted = _lift(sigma_t, contraction_f, contraction_g, fset, gset, [])
                    if lifted is not None and is_isomorphism(lifted, fset, gset):
                        adjusted_candidate = lifted
            if adjusted_candidate is not None:
                return DistinguishResult(sigma=adjusted_candidate, twins_adjusted=True)

    return _probe_witness(fset, gset, phi, psi, max_probes)


def _probe_witness(
    fset: CFSet, gset: CFSet, phi: PinMap, psi: PinMap, max_probes: int
) -> DistinguishResult:
    """The first of ``max_probes`` probes, from the larger domain's stream,
    whose pinned values differ; :class:`DistinguishInconclusive` if none."""
    probe_key = (fset.arities(), len(phi), max(fset.q, gset.q))
    profile_f = fset._memo.setdefault((phi, probe_key), [])
    profile_g = gset._memo.setdefault((psi, probe_key), [])
    index = 0
    while index < max_probes:
        shared = min(len(profile_f), len(profile_g), max_probes)
        while index < shared:
            if profile_f[index] != profile_g[index]:
                return DistinguishResult(
                    witness=_PROBES[probe_key][0][index],
                    z_f=profile_f[index],
                    z_g=profile_g[index],
                )
            index += 1
        if index >= max_probes:
            break
        if not (
            _extend_profile(profile_f, fset, phi, probe_key, index)
            and _extend_profile(profile_g, gset, psi, probe_key, index)
        ):
            break
    raise DistinguishInconclusive(
        f"no isomorphism and no witness within {max_probes} probes"
    )
