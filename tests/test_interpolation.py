import dataclasses
import gc
import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest

from cspiso.algebra import (
    all_tuples,
    binary_from_rows,
    constant_function,
    equality_function,
    unary_function,
)
from cspiso.corpus import random_cfset, random_rational
from cspiso.instances import CFSet, forget_labels, is_simple
from cspiso.linalg import rank
from cspiso.partition import pinned_partition
from cspiso.structure import (
    ContractionError,
    automorphisms,
    configuration_index,
    contract_twins,
    find_isomorphisms,
    is_isomorphism,
)
from cspiso.intertwiners import gadget_span, witness_sigma
from cspiso import interpolation
from cspiso.interpolation import (
    BucketCapacityError,
    InterpolationError,
    VandermondePremiseError,
    bucket_structure,
    build_family_one,
    build_family_three,
    build_family_two,
    distinguish,
    family_one_value,
    family_three_value,
    family_two_value,
    is_well_balanced,
    required_multiplicity,
    vandermonde_class_sums,
    well_balanced_extension,
)

EQ2 = CFSet((equality_function(2, 2),))
DIAG12 = CFSet((binary_from_rows([[1, 0], [0, 2]]),))
DIAG21 = CFSet((binary_from_rows([[2, 0], [0, 1]]),))


# ---------------------------------------------------------------------------
# Vandermonde checker
# ---------------------------------------------------------------------------

def test_vandermonde_single_point():
    # one coefficient: the degree-0 premise already forces it to vanish
    classes = vandermonde_class_sums([0], [[Fraction(5)]])
    assert classes == [((0,), 0)]
    with pytest.raises(VandermondePremiseError):
        vandermonde_class_sums([1], [[Fraction(5)]])


def test_vandermonde_cancellation():
    classes = vandermonde_class_sums([1, -1], [[2, 3], [2, 3]])
    assert classes == [((0, 1), 0)]


def test_vandermonde_premise_reports_failing_tuple():
    a = [1, 1]
    b = [[1], [2]]
    with pytest.raises(VandermondePremiseError) as err:
        vandermonde_class_sums(a, b)
    exps = err.value.exponents
    # recompute: the reported tuple really does violate the premise
    total = sum(ai * bi[0] ** exps[0] for ai, bi in zip(a, b))
    assert total != 0 and total == err.value.value


def test_vandermonde_distinct_rows_force_zero_coefficients():
    # independent oracle: with pairwise distinct rows the moment matrix has
    # full column rank, so the premise admits only the zero solution
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 4)
        while True:
            rows = [
                tuple(random_rational(rng) for _ in range(2)) for _ in range(n)
            ]
            if len(set(rows)) == n:
                break
        moment_rows = []
        for exps in itertools.product(range(n), repeat=2):
            moment_rows.append(
                [rows[i][0] ** exps[0] * rows[i][1] ** exps[1] for i in range(n)]
            )
        assert rank(moment_rows) == n
        classes = vandermonde_class_sums([0] * n, rows)
        assert all(total == 0 for _, total in classes)


# ---------------------------------------------------------------------------
# Well-balanced maps and buckets
# ---------------------------------------------------------------------------

def test_well_balanced_extension_bounds():
    wb = well_balanced_extension((), 2, 2)
    assert wb.k_block == 2 * 2 * 2 ** 2 * 2  # multiplicity per pattern times patterns
    assert wb.total_labels <= (2 - 1) * (0 + 2 * 2 * 2 ** 3)
    assert is_well_balanced(wb)
    for bucket in wb.buckets().values():
        assert len(bucket) >= required_multiplicity(2, 2)


def test_well_balanced_preserves_original_pins():
    phi = (1, 0, 1)
    wb = well_balanced_extension(phi, 2, 3)
    assert wb.phi[: len(phi)] == phi
    assert is_well_balanced(wb)


def test_well_balanced_needs_arity_two():
    with pytest.raises(InterpolationError):
        well_balanced_extension((), 2, 1)


def test_well_balanced_map_is_returned_unchanged():
    wb = well_balanced_extension((1, 0), 2, 2)
    again = well_balanced_extension(wb.phi, 2, 2)
    assert again.phi == wb.phi
    assert again.k_block == wb.k_block


def test_bucket_structure_pigeonhole():
    wb = well_balanced_extension((), 2, 2, multiplicity=4)
    psi = tuple((a * 7 + 3) % 2 for a in range(wb.total_labels))
    structure = bucket_structure(wb, psi, 2)
    for x, slots in structure.refined.items():
        image = structure.selection[x]
        for a in slots:
            assert tuple(psi[a + d * wb.k_block] for d in range(wb.n - 1)) == image


# ---------------------------------------------------------------------------
# The three families
# ---------------------------------------------------------------------------

def _small_wb(fset, phi=()):
    n = max(fset.arities())
    return well_balanced_extension(phi, fset.q, n, multiplicity=3)


def test_family_one_empty_exponents():
    wb = _small_wb(EQ2)
    inst = build_family_one(EQ2, wb, {})
    assert inst.constraints == ()
    # one free variable, empty product of constraints
    assert pinned_partition(EQ2, inst, wb.phi) == 2


def test_family_one_single_cell():
    wb = _small_wb(EQ2)
    exps = {(0, (1,), 0): 1}
    inst = build_family_one(EQ2, wb, exps)
    value = pinned_partition(EQ2, inst, wb.phi)
    # sum over the free variable of E2(i, 1)
    assert value == sum(1 for i in range(2) if i == 1)
    assert value == family_one_value(EQ2, exps)


def test_family_formula_match_random():
    # the closed forms return the value and the type pinned_partition does:
    # a whole number is an int, not Fraction(n, 1)
    def typed(value):
        return type(value), value

    rng = random.Random(42)
    for _ in range(8):
        q = rng.randint(1, 2)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True, positive_weights=True)
        if max(fset.arities()) < 2:
            continue
        wb = _small_wb(fset)
        jc = [
            (j, x, r)
            for j, fn in enumerate(fset.functions)
            for x in all_tuples(q, fn.arity - 1)
            for r in range(fn.arity)
        ]
        exps = {key: rng.randint(0, 1) for key in jc if rng.random() < 0.5}
        inst = build_family_one(fset, wb, exps)
        assert typed(pinned_partition(fset, inst, wb.phi)) == typed(family_one_value(fset, exps))

        anchor = rng.randrange(fset.t)
        n_f = fset.functions[anchor].arity
        exp_list = [
            {key: rng.randint(0, 1) for key in jc if rng.random() < 0.4}
            for _ in range(n_f)
        ]
        inst2 = build_family_two(fset, anchor, wb, exp_list)
        assert typed(pinned_partition(fset, inst2, wb.phi)) == typed(
            family_two_value(fset, anchor, exp_list)
        )

        c = rng.randrange(wb.total_labels)
        exp_list3 = [
            {key: rng.randint(0, 1) for key in jc if rng.random() < 0.4}
            for _ in range(n_f - 1)
        ]
        inst3 = build_family_three(fset, anchor, wb, c, exp_list3)
        assert typed(pinned_partition(fset, inst3, wb.phi)) == typed(
            family_three_value(fset, anchor, wb.phi[c], exp_list3)
        )


def test_family_two_equality_anchor():
    wb = _small_wb(EQ2)
    inst = build_family_two(EQ2, 0, wb, [{}, {}])
    assert pinned_partition(EQ2, inst, wb.phi) == 2


def test_family_three_unary_anchor_reads_the_pin():
    fset = CFSet((unary_function((3, 5)), equality_function(2, 2)))
    wb = _small_wb(fset)
    for c in (0, 1):
        inst = build_family_three(fset, 0, wb, c, [])
        assert pinned_partition(fset, inst, wb.phi) == fset.functions[0].entries[wb.phi[c]]


def test_family_three_binary_anchor_sums_free_argument():
    fn = binary_from_rows([[1, 2], [3, 4]])
    fset = CFSet((fn,))
    wb = _small_wb(fset)
    c = 0
    inst = build_family_three(fset, 0, wb, c, [{}])
    pinned = wb.phi[c]
    assert pinned_partition(fset, inst, wb.phi) == sum(
        fn.entries[pinned * 2 + i] for i in range(2)
    )


def test_family_instances_with_nonunary_cells_are_simple():
    rng = random.Random(43)
    for _ in range(6):
        fset = random_cfset(rng, 2, 2, max_arity=2)
        if max(fset.arities()) < 2:
            continue
        wb = _small_wb(fset)
        jc = [
            (j, x, r)
            for j, fn in enumerate(fset.functions)
            if fn.arity >= 2
            for x in all_tuples(2, fn.arity - 1)
            for r in range(fn.arity)
        ]
        exps = {key: rng.randint(0, 2) for key in rng.sample(jc, min(2, len(jc)))}
        try:
            inst = build_family_one(fset, wb, exps)
        except BucketCapacityError:
            continue
        assert is_simple(inst)


def test_bucket_capacity_error():
    wb = well_balanced_extension((), 2, 2, multiplicity=1)
    with pytest.raises(BucketCapacityError):
        build_family_one(EQ2, wb, {(0, (0,), 0): 5})


# ---------------------------------------------------------------------------
# The first proof's families as witnesses
# ---------------------------------------------------------------------------

def test_family_one_members_distinguish_equality_from_diag():
    """EQ2 and DIAG12 are not isomorphic, so some product of the proof's
    family instances separates them; a single family-one member with all
    labels forgotten already does."""
    wb = well_balanced_extension((), 2, 2, multiplicity=1)
    jc = configuration_index(EQ2)
    found = False
    for powers in itertools.product(range(2), repeat=len(jc)):
        exps = {key: p for key, p in zip(jc, powers) if p}
        inst = forget_labels(build_family_one(EQ2, wb, exps), 0)
        assert len(inst.variables) <= 8
        if pinned_partition(EQ2, inst, ()) != pinned_partition(DIAG12, inst, ()):
            found = True
            break
    assert found


# ---------------------------------------------------------------------------
# distinguish
# ---------------------------------------------------------------------------

def test_distinguish_identity_coset():
    result = distinguish(EQ2, EQ2)
    assert result.sigma is not None
    assert is_isomorphism(result.sigma, EQ2, EQ2)


def test_distinguish_witness_for_equality_vs_diag():
    result = distinguish(EQ2, DIAG12)
    assert result.sigma is None
    assert result.z_f == 2 and result.z_g == 3
    assert is_simple(result.witness)
    assert pinned_partition(EQ2, result.witness, ()) == 2
    assert pinned_partition(DIAG12, result.witness, ()) == 3


def test_distinguish_finds_the_swap():
    result = distinguish(DIAG12, DIAG21)
    assert result.sigma == (1, 0)
    assert is_isomorphism(result.sigma, DIAG12, DIAG21)


def test_distinguish_swaps_for_larger_second_domain():
    small = CFSet((unary_function((1, 1)), equality_function(2, 2)))
    # compatible pair over q = 1
    tiny = CFSet((unary_function((2,)), equality_function(1, 2)))
    result = distinguish(tiny, small)
    assert result.sigma is None
    assert result.z_f != result.z_g
    reverse = distinguish(small, tiny)
    assert result == dataclasses.replace(reverse, z_f=reverse.z_g, z_g=reverse.z_f)


def test_distinguish_does_not_contract_twins_across_domain_sizes():
    """Sets over different domains are never isomorphic, so their twin
    contractions are not needed; a vanishing twin-class weight in one of
    them must not stop the one-variable instance from separating them."""
    small = CFSet((unary_function((1, 3)),), weights=(1, 2))
    cancelling = CFSet((unary_function((1, 1, 3)),), weights=(1, -1, 1))
    with pytest.raises(ContractionError):
        contract_twins(cancelling)
    for fset, gset, values in ((small, cancelling, (3, 1)), (cancelling, small, (1, 3))):
        result = distinguish(fset, gset)
        assert result.sigma is None
        assert result.witness.constraints == () and len(result.witness.variables) == 1
        assert (result.z_f, result.z_g) == values
        assert pinned_partition(fset, result.witness, ()) == values[0]
        assert pinned_partition(gset, result.witness, ()) == values[1]


def test_distinguish_rejects_negative_max_probes():
    # isomorphic sets and non-isomorphic ones alike: the bound is checked first
    for gset in (EQ2, DIAG12):
        with pytest.raises(ValueError, match="max_probes"):
            distinguish(EQ2, gset, max_probes=-1)
    assert distinguish(EQ2, DIAG12, max_probes=2).witness is not None


def test_distinguish_pins():
    result = distinguish(DIAG12, DIAG12, (0,), (0,))
    assert result.sigma == (0, 1)
    result = distinguish(DIAG12, DIAG12, (0,), (1,))
    assert result.sigma is None
    assert pinned_partition(DIAG12, result.witness, (0,)) == result.z_f
    assert pinned_partition(DIAG12, result.witness, (1,)) == result.z_g


def test_distinguish_twin_adjusted_pins():
    allones = CFSet((constant_function(2, 2),))
    result = distinguish(allones, allones, (0, 0), (0, 1))
    assert result.sigma is not None
    assert result.twins_adjusted


def test_distinguish_agrees_with_oracle_on_random_sets():
    rng = random.Random(44)
    for _ in range(40):
        q = rng.randint(1, 2)
        t = rng.randint(1, 2)
        arities = [rng.randint(1, 2) for _ in range(t)]
        from cspiso.corpus import random_function

        fset = CFSet(tuple(random_function(rng, q, n) for n in arities))
        gset = CFSet(tuple(random_function(rng, q, n) for n in arities))
        result = distinguish(fset, gset)
        oracle = find_isomorphisms(fset, gset)
        assert (result.sigma is not None) == bool(oracle)
        if result.sigma is not None:
            assert result.sigma in oracle
        else:
            assert pinned_partition(fset, result.witness, ()) == result.z_f
            assert pinned_partition(gset, result.witness, ()) == result.z_g
            assert result.z_f != result.z_g


def test_sets_are_freed_after_use():
    """What the library derives from a set lives on the set, so a set that
    no caller holds any more is freed, whichever routine has seen it."""
    refs = []

    def run(call, *args):
        call(*args)
        refs.extend(weakref.ref(a) for a in args if isinstance(a, CFSet))

    def weighted(w):
        return CFSet((binary_from_rows([[1, 2], [2, 0]]), unary_function((1, 3))), (1, w))

    def swap():
        return CFSet((binary_from_rows([[0, 1], [1, 0]]),))

    run(distinguish, weighted(2), weighted(3))
    run(distinguish, weighted(2), weighted(2), (0,), (1,))
    run(distinguish, weighted(2), weighted(2))
    run(automorphisms, weighted(5))
    run(contract_twins, CFSet((constant_function(2, 2),)))
    run(witness_sigma, swap(), (0,), (1,))
    run(gadget_span, swap(), 1, 1, 3)
    gc.collect()
    assert len(refs) == 10
    assert [r() for r in refs] == [None] * 10


def _cycles(q, lengths):
    rows = [[0] * q for _ in range(q)]
    start = 0
    for n in lengths:
        for i in range(n):
            a, b = start + i, start + (i + 1) % n
            rows[a][b] = rows[b][a] = 1
        start += n
    return CFSet((binary_from_rows(rows),))


def test_distinguish_shares_a_cold_probe_stream_across_threads(monkeypatch):
    """Four threads resume one probe stream and grow the same two profile
    lists; every value must land at its probe's index exactly once."""
    monkeypatch.setattr(interpolation, "_PROBES", {})
    c8, c4c4 = _cycles(8, [8]), _cycles(8, [4, 4])
    results, errors = [], []

    def work():
        try:
            results.append(distinguish(c8, c4c4))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    serial = distinguish(_cycles(8, [8]), _cycles(8, [4, 4]))
    assert results == [serial] * 4
    for result in results:
        assert pinned_partition(c8, result.witness, ()) == result.z_f
        assert pinned_partition(c4c4, result.witness, ()) == result.z_g
