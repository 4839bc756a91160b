"""Acceptance suite.

Each numbered requirement below runs at its stated scale, exactly (no
tolerances anywhere), and prints one PASS/FAIL line.  Requirement 1 sweeps
the full corpus of compatible function-set pairs with q <= 2, t <= 2,
arities <= 2 and entries in {0, 1, 2}; it takes several minutes and uses
both cores.  Set CSPISO_C1_LIMIT to subsample during development (the
default is the full corpus).

The simplicity clause of requirement 1 (1c) asks for a simple witness
wherever one exists.  Pairs whose difference is only visible through
repeated unary constraints (for example {(0,2)} against {(1,1)}, whose
simple-instance values all coincide) have none, so there the witness must
be non-simple, and 1c requires a machine-checked certificate that no simple
witness exists.  The full sweep reports 60 such non-simple witnesses, all
60 certified.  See tests below for the exact accounting.
"""

import itertools
import math
import multiprocessing as mp
import os
import random
from fractions import Fraction

import pytest

from cspiso.algebra import (
    ConstraintFunction,
    Matrix,
    all_tuples,
    binary_from_rows,
    equality_function,
    flatten,
    tuple_to_index,
)
from cspiso.corpus import (
    random_bipartite_gadget,
    random_cfset,
    random_function,
    random_gadget,
    random_instance,
    random_rational,
)
from cspiso.expressions import decompose, evaluate_expression
from cspiso.holant import (
    EQ,
    Gadget,
    adjoint,
    compose,
    crossing_gadget,
    csp_to_grid,
    holant_value,
    signature_matrix,
    tensor,
)
from cspiso.instances import (
    CFSet,
    forget_labels,
    is_simple,
    product,
    replace_functions,
)
from cspiso.interpolation import (
    VandermondePremiseError,
    distinguish,
    vandermonde_class_sums,
)
from cspiso.intertwiners import (
    PermutationGroup,
    WitnessSearchExhausted,
    all_subgroups,
    gadget_span,
    intertwiner_basis,
    is_intertwiner,
    orbits_of_tuples,
    same_orbit,
    same_orbit_via_intertwiners,
    witness_sigma,
)
from cspiso.partition import partition_function, pinned_partition
from cspiso.structure import (
    automorphisms,
    augment_universal,
    contract_twins,
    direct_sum_sets,
    find_isomorphisms,
    instance_connected,
    restrict_instance,
    twin_classes,
)

ENTRY_POOL = (0, 1, 2)
SIGNATURES = [(1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


# ---------------------------------------------------------------------------
# 1. Main-theorem round trip over the exhaustive small corpus
# ---------------------------------------------------------------------------

def _signature_sets(signature):
    sets = []
    for q in (1, 2):
        pools = []
        for n in signature:
            pools.append([
                ConstraintFunction(q, n, entries)
                for entries in itertools.product(ENTRY_POOL, repeat=q ** n)
            ])
        for combo in itertools.product(*pools):
            sets.append(CFSet(combo))
    return sets


def _simple_value_key(fset: CFSet):
    """What the value of every simple closed instance under ``fset`` depends
    on, or None when some non-unary member is not constant.

    On a simple instance with k = 0 a variable carries each unary member at
    most once.  If every non-unary member j is a constant c_j, the value then
    factors as prod_j c_j^(uses of j) times, for each variable v carrying the
    unary members S_v, the subset sum sum_x w(x) prod_{j in S_v} f_j(x) (the
    empty subset gives the total weight).  The key lists q, the constants by
    position and every such subset sum.
    """
    constants = []
    unary = []
    for fn in fset.functions:
        if fn.arity == 1:
            unary.append(fn.entries)
        elif len(set(fn.entries)) == 1:
            constants.append(fn.entries[0])
        else:
            return None
    sums = tuple(
        sum(fset.weight(x) * math.prod(entries[x] for entries in subset)
            for x in range(fset.q))
        for size in range(len(unary) + 1)
        for subset in itertools.combinations(unary, size)
    )
    return fset.q, tuple(constants), sums


def _no_simple_witness_certificate(fset: CFSet, gset: CFSet) -> bool:
    """Proof that NO simple instance separates the compatible pair: equal
    keys from ``_simple_value_key`` give equal values on every simple
    instance, factor by factor."""
    key = _simple_value_key(fset)
    return key is not None and key == _simple_value_key(gset)


def _criterion1_worker(task):
    signature, start, stop = task
    sets = _signature_sets(signature)
    keys = [_simple_value_key(s) for s in sets]
    n_pairs = 0
    n_iso = 0
    agreement_failures = []
    value_failures = []
    n_nonsimple = 0
    n_certified = 0
    # a non-simple witness where a simple one may exist is a search
    # deficiency; a simple witness on a certified pair refutes the certificate
    uncertified_nonsimple = []
    certified_simple = []
    inconclusive = []
    z_cache = {}
    simple_cache = {}
    for fi in range(start, stop):
        fset = sets[fi]
        fq = fset.q
        for gi, gset in enumerate(sets):
            n_pairs += 1
            try:
                result = distinguish(fset, gset)
            except Exception as exc:  # inconclusive or unexpected
                inconclusive.append((signature, fi, gi, repr(exc)))
                continue
            isos = find_isomorphisms(fset, gset) if fq == gset.q else ()
            if (result.sigma is not None) != bool(isos):
                agreement_failures.append((signature, fi, gi))
                continue
            if result.sigma is not None:
                n_iso += 1
                if result.sigma not in isos:
                    agreement_failures.append((signature, fi, gi))
            else:
                witness = result.witness
                wid = id(witness)
                key_f = (fi, wid)
                if key_f not in z_cache:
                    z_cache[key_f] = pinned_partition(fset, witness, ())
                key_g = (gi, wid, "g")
                if key_g not in z_cache:
                    z_cache[key_g] = pinned_partition(
                        gset, replace_functions(witness, fset, gset), ()
                    )
                z_f, z_g = z_cache[key_f], z_cache[key_g]
                if z_f == z_g or z_f != result.z_f or z_g != result.z_g:
                    value_failures.append((signature, fi, gi))
                if wid not in simple_cache:
                    simple_cache[wid] = is_simple(witness)
                simple = simple_cache[wid]
                certified = keys[fi] is not None and keys[fi] == keys[gi]
                n_nonsimple += not simple
                n_certified += certified
                if not simple and not certified:
                    uncertified_nonsimple.append((signature, fi, gi))
                elif simple and certified:
                    certified_simple.append((signature, fi, gi))
    return {
        "pairs": n_pairs,
        "iso": n_iso,
        "agreement": agreement_failures[:10],
        "agreement_count": len(agreement_failures),
        "values": value_failures[:10],
        "values_count": len(value_failures),
        "nonsimple_count": n_nonsimple,
        "certified_count": n_certified,
        "uncertified_nonsimple": uncertified_nonsimple[:10],
        "uncertified_nonsimple_count": len(uncertified_nonsimple),
        "certified_simple": certified_simple[:10],
        "certified_simple_count": len(certified_simple),
        "inconclusive": inconclusive[:10],
        "inconclusive_count": len(inconclusive),
    }


@pytest.fixture(scope="module")
def round_trip_report():
    limit = os.environ.get("CSPISO_C1_LIMIT")
    limit = int(limit) if limit else None
    tasks = []
    sets_per_row = {}
    for signature in SIGNATURES:
        n_sets = len(_signature_sets(signature))
        sets_per_row[signature] = n_sets
        if limit is not None:
            n_sets = min(n_sets, limit)
        chunk = max(1, min(250, n_sets // 2 + 1))
        for start in range(0, n_sets, chunk):
            tasks.append((signature, start, min(start + chunk, n_sets)))
    # most distinguish calls first, for better load balance: every row of a
    # chunk meets every set of its signature
    tasks.sort(key=lambda t: (t[1] - t[2]) * sets_per_row[t[0]])
    merged = {}
    ctx = mp.get_context("fork")
    with ctx.Pool(processes=2) as pool:
        for part in pool.imap_unordered(_criterion1_worker, tasks):
            for key, value in part.items():
                if isinstance(value, list):  # samples
                    merged[key] = (merged.get(key, []) + value)[:10]
                else:
                    merged[key] = merged.get(key, 0) + value
    return merged


def test_1_round_trip_sigma_agreement(round_trip_report):
    r = round_trip_report
    ok = r["agreement_count"] == 0 and r["inconclusive_count"] == 0
    _report(
        "1a main-theorem round trip (sigma iff brute force)",
        ok,
        f"{r['pairs']} pairs, {r['iso']} isomorphic",
    )
    assert r["inconclusive_count"] == 0, r["inconclusive"]
    assert r["agreement_count"] == 0, r["agreement"]


def test_1_witness_values_exact(round_trip_report):
    r = round_trip_report
    ok = r["values_count"] == 0
    _report("1b witnesses verify Z_F != Z_G exactly", ok)
    assert ok, r["values"]


def test_1_nonsimple_witnesses_are_certified_impossible(round_trip_report):
    """Every witness that fails is_simple must come from a pair admitting no
    simple witness at all; anything else would be a search deficiency."""
    r = round_trip_report
    uncertified = r["uncertified_nonsimple_count"]
    _report(
        "1c' every non-simple witness is provably unavoidable",
        uncertified == 0,
        f"{r['nonsimple_count'] - uncertified} pairs certified",
    )
    assert uncertified == 0, r["uncertified_nonsimple"]


def test_1_witness_simplicity(round_trip_report):
    """distinguish returns a simple witness whenever one exists: its witness
    is non-simple exactly on the pairs certified to admit no simple witness.

    Such pairs do occur (unary (0,2) against (1,1) agree on every simple
    instance), so the non-simple count is a property of the corpus, 60 on the
    full sweep, and the test pins it to the certified count."""
    r = round_trip_report
    mismatch_count = r["uncertified_nonsimple_count"] + r["certified_simple_count"]
    ok = mismatch_count == 0 and r["nonsimple_count"] == r["certified_count"]
    _report(
        "1c witnesses are simple wherever a simple witness exists",
        ok,
        f"{r['nonsimple_count']} non-simple, {r['certified_count']} certified "
        f"unavoidable, {mismatch_count} mismatches",
    )
    assert r["uncertified_nonsimple_count"] == 0, (
        "non-simple witnesses on pairs with no certificate",
        r["uncertified_nonsimple"],
    )
    assert r["certified_simple_count"] == 0, (
        "simple witnesses on pairs certified to have none",
        r["certified_simple"],
    )
    assert r["nonsimple_count"] == r["certified_count"]


def test_1_witness_simplicity_fixed_pairs(monkeypatch):
    """Both directions of the 1c accounting on fixed pairs, without the
    sweep (which reaches no unary pair at small CSPISO_C1_LIMIT)."""
    def unary(*entries):
        return ConstraintFunction(2, 1, entries)

    cases = [
        # (F, G, whether no simple witness exists)
        (CFSet((unary(0, 2),)), CFSet((unary(1, 1),)), True),
        (CFSet((unary(0, 2),)),
         CFSet((unary(4, 0),), (Fraction(1, 2), Fraction(3, 2))), True),
        (CFSet((equality_function(2, 2),)),
         CFSet((binary_from_rows([[1, 0], [0, 2]]),)), False),
        # unweighted subset sums agree, but the weights separate the sets
        # already on the empty instance
        (CFSet((unary(1, 2),)), CFSet((unary(2, 1),), (1, 2)), False),
    ]
    for fset, gset, certified in cases:
        assert _no_simple_witness_certificate(fset, gset) == certified
        result = distinguish(fset, gset)
        assert result.witness is not None
        z_f = pinned_partition(fset, result.witness, ())
        z_g = pinned_partition(gset, result.witness, ())
        assert z_f != z_g and (z_f, z_g) == (result.z_f, result.z_g)
        assert is_simple(result.witness) != certified

    # the sweep's accounting on the row of (0,2): only (1,1) is certified
    assert _signature_sets((1,))[5] == CFSet((unary(0, 2),))
    r = _criterion1_worker(((1,), 5, 6))
    assert r["nonsimple_count"] == r["certified_count"] == 1
    assert r["uncertified_nonsimple_count"] == r["certified_simple_count"] == 0

    # a certificate that contradicts the witnesses is flagged either way:
    # certifying nothing leaves the (1,1) witness unexplained, certifying
    # everything is refuted by the row's 9 simple witnesses
    monkeypatch.setitem(globals(), "_simple_value_key", lambda fset: None)
    assert _criterion1_worker(((1,), 5, 6))["uncertified_nonsimple_count"] == 1
    monkeypatch.setitem(globals(), "_simple_value_key", lambda fset: ())
    assert _criterion1_worker(((1,), 5, 6))["certified_simple_count"] == 9


# ---------------------------------------------------------------------------
# 2. Pinned multiplicativity
# ---------------------------------------------------------------------------

def test_2_pinned_multiplicativity():
    rng = random.Random(1002)
    failures = 0
    for _ in range(500):
        q = rng.randint(1, 3)
        k = rng.randint(0, 2)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=rng.random() < 0.4,
                            positive_weights=True)
        k1 = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        k2 = random_instance(rng, fset, rng.randint(max(k, 1), 4), k)
        glued = product(k1, k2)
        for psi in all_tuples(q, k):
            lhs = pinned_partition(fset, glued, psi)
            rhs = pinned_partition(fset, k1, psi) * pinned_partition(fset, k2, psi)
            if lhs != rhs:
                failures += 1
    _report("2 pinned multiplicativity", failures == 0, "500 pairs, all pins")
    assert failures == 0


# ---------------------------------------------------------------------------
# 3. Twin contraction
# ---------------------------------------------------------------------------

def test_3_twin_contraction():
    rng = random.Random(1003)
    failures = 0
    for _ in range(200):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2), weighted=True,
                            positive_weights=True)
        contraction = contract_twins(fset)
        if len(twin_classes(contraction.contracted)) != contraction.contracted.q:
            failures += 1
        inst = random_instance(rng, fset, rng.randint(1, 4))
        replaced = replace_functions(inst, fset, contraction.contracted)
        if partition_function(contraction.contracted, replaced) != partition_function(fset, inst):
            failures += 1
    _report("3 twin contraction", failures == 0, "200 weighted sets")
    assert failures == 0


# ---------------------------------------------------------------------------
# 4. Gadget functoriality
# ---------------------------------------------------------------------------

def test_4_gadget_functoriality():
    rng = random.Random(1004)
    failures = 0
    for _ in range(300):
        q = rng.randint(2, 3)
        mid = rng.randint(0, 2)
        g1 = random_gadget(rng, q, rng.randint(0, 2), mid,
                           max_internal_edges=2, max_vertices=3)
        g2 = random_gadget(rng, q, mid, rng.randint(0, 2),
                           max_internal_edges=2, max_vertices=3)
        t1, t2 = signature_matrix(g1), signature_matrix(g2)
        if signature_matrix(compose(g1, g2)) != t1.mul(t2):
            failures += 1
        if signature_matrix(tensor(g1, g2)) != t1.kron(t2):
            failures += 1
        if signature_matrix(adjoint(g1)) != t1.conjugate_transpose():
            failures += 1
    _report("4 gadget functoriality", failures == 0, "300 composable pairs")
    assert failures == 0


# ---------------------------------------------------------------------------
# 5. Generator decomposition
# ---------------------------------------------------------------------------

def test_5_generator_decomposition():
    rng = random.Random(1005)
    failures = 0
    for index in range(100):
        q = 2 if index % 5 else 3
        fset = random_cfset(rng, q, rng.randint(1, 2), max_arity=2)
        gadget = random_bipartite_gadget(
            rng, fset,
            n_eq=rng.randint(1, 3),
            n_constraints=rng.randint(0, 3 if q == 2 else 2),
            n_outputs=rng.randint(0, 2),
            n_inputs=rng.randint(0, 2 if q == 2 else 1),
        )
        expr = decompose(gadget, fset)
        if evaluate_expression(expr, q, fset.functions) != signature_matrix(gadget):
            failures += 1

    # the illustrated 5-vertex, 3-output/2-input shape
    ternary = random_function(rng, 2, 3)
    binary = random_function(rng, 2, 2)
    fset = CFSet((ternary, binary))
    gadget = Gadget(
        2,
        (EQ, EQ, EQ, ternary, binary),
        (((1, 0), (4, 0)), ((0, 0), (4, 1)), ((2, 0), (3, 0)),
         ((0, 1), (3, 1)), ((1, 1), (3, 2))),
        outputs=((1, 2), (0, 2), (1, 3)),
        inputs=((2, 1), (2, 2)),
    )
    expr = decompose(gadget, fset)
    if evaluate_expression(expr, 2, fset.functions) != signature_matrix(gadget):
        failures += 1
    _report("5 generator decomposition", failures == 0, "100 gadgets + figure shape")
    assert failures == 0


# ---------------------------------------------------------------------------
# 6. #CSP <-> Holant bridge
# ---------------------------------------------------------------------------

def test_6_holant_bridge():
    rng = random.Random(1006)
    failures = 0
    for _ in range(200):
        q = rng.randint(1, 3)
        fset = random_cfset(rng, q, rng.randint(1, 2))
        total = rng.randint(0, 3)
        inst = random_instance(rng, fset, rng.randint(max(total, 1), 4), total)
        closed = forget_labels(inst, 0)
        if holant_value(csp_to_grid(closed, fset)) != partition_function(fset, inst):
            failures += 1
            continue
        n_out = rng.randint(0, total)
        matrix = signature_matrix(csp_to_grid(inst, fset, n_out))
        for xs in all_tuples(q, n_out):
            for ys in all_tuples(q, total - n_out):
                expected = pinned_partition(fset, inst, xs + ys)
                if matrix.data[tuple_to_index(xs, q)][tuple_to_index(ys, q)] != expected:
                    failures += 1
    _report("6 #CSP-Holant bridge", failures == 0, "200 instances, all pinnings")
    assert failures == 0


# ---------------------------------------------------------------------------
# 7. Intertwiners over every subgroup of S3
# ---------------------------------------------------------------------------

def test_7_intertwiner_orbit_bases():
    failures = []
    crossing = signature_matrix(crossing_gadget(3, (1, 0)))
    if crossing == Matrix.identity(9):
        failures.append(("S22 is the identity",))
    for group in all_subgroups(3):
        for k in range(4):
            for l in range(4 - k):
                space = intertwiner_basis(group, k, l)
                if not all(is_intertwiner(m, group, k, l) for m in space.basis):
                    failures.append(("membership", group.generators, k, l))
                if space.dimension != len(orbits_of_tuples(group, k + l)):
                    failures.append(("dimension", group.generators, k, l))
        for k in (1, 2, 3):
            space = intertwiner_basis(group, k, 0)
            for xs in all_tuples(3, k):
                for ys in all_tuples(3, k):
                    if same_orbit(xs, ys, group) != same_orbit_via_intertwiners(xs, ys, space):
                        failures.append(("orbit-query", group.generators, xs, ys))
        if not is_intertwiner(flatten(equality_function(3, 2), 1, 1), group, 1, 1):
            failures.append(("E11", group.generators))
        if not is_intertwiner(flatten(equality_function(3, 2), 2, 0), group, 2, 0):
            failures.append(("E20", group.generators))
        if not is_intertwiner(crossing, group, 2, 2):
            failures.append(("S22", group.generators))
    _report("7 intertwiner spaces over subgroups of S3", not failures)
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# 8. Gadget span containment and saturation
# ---------------------------------------------------------------------------

def test_8_gadget_span():
    rng = random.Random(1008)
    failures = []
    for index in range(20):
        fset = random_cfset(rng, 2, rng.randint(1, 2), max_arity=2)
        group = PermutationGroup.from_elements(2, automorphisms(fset))
        for (k, l) in ((1, 0), (1, 1)):
            result = gadget_span(fset, k, l, size_bound=4, aut_group=group)
            if not all(is_intertwiner(m, group, k, l) for m in result.basis):
                failures.append(("containment", index, k, l))
            dims = result.dimension_by_size
            if any(a > b for a, b in zip(dims, dims[1:])):
                failures.append(("monotonicity", index, k, l))

    swap_symmetric = CFSet((binary_from_rows([[0, 1], [1, 0]]),))
    group = PermutationGroup.from_elements(2, automorphisms(swap_symmetric))
    for (k, l) in ((1, 0), (1, 1), (2, 0)):
        result = gadget_span(swap_symmetric, k, l, size_bound=6, aut_group=group)
        if not result.certified_equal:
            failures.append(("saturation", k, l, result.dimension_by_size))
    _report("8 gadget span containment and saturation", not failures)
    assert not failures, failures


# ---------------------------------------------------------------------------
# 9. Witness permutation lemma
# ---------------------------------------------------------------------------

def test_9_witness_sigma():
    rng = random.Random(1009)
    corpus = []
    while len(corpus) < 20:
        q = 2 if len(corpus) < 16 else 3
        fset = random_cfset(rng, q, rng.randint(1, 2), max_arity=2)
        if len(twin_classes(fset)) == fset.q:  # twin-free
            corpus.append(fset)
    failures = []
    for fset in corpus:
        auts = automorphisms(fset)
        q = fset.q
        for k in (1, 2):
            for phi in all_tuples(q, k):
                for psi in all_tuples(q, k):
                    expected = any(tuple(s[x] for x in phi) == psi for s in auts)
                    try:
                        result = witness_sigma(fset, phi, psi)
                    except WitnessSearchExhausted:
                        failures.append(("exhausted", fset, phi, psi))
                        continue
                    if (result.sigma is not None) != expected:
                        failures.append(("agreement", fset, phi, psi))
                    elif result.sigma is None:
                        z_phi = pinned_partition(fset, result.witness, phi)
                        z_psi = pinned_partition(fset, result.witness, psi)
                        if z_phi == z_psi or z_phi != result.z_phi or z_psi != result.z_psi:
                            failures.append(("witness", fset, phi, psi))
    _report("9 witness permutation lemma", not failures, "20 twin-free sets, k <= 2")
    assert not failures, failures[:3]


# ---------------------------------------------------------------------------
# 10. Vandermonde checker
# ---------------------------------------------------------------------------

def test_10_vandermonde_checker():
    rng = random.Random(1010)
    failures = 0
    for index in range(200):
        n = rng.randint(2, 5)
        n_cols = rng.randint(1, 2)
        pool = [tuple(random_rational(rng) for _ in range(n_cols)) for _ in range(max(1, n - 1))]
        rows = [pool[rng.randrange(len(pool))] for _ in range(n)]
        groups = {}
        for i, row in enumerate(rows):
            groups.setdefault(row, []).append(i)
        coefficients = [0] * n
        for members in groups.values():
            parts = [random_rational(rng) for _ in members[:-1]]
            for i, value in zip(members[:-1], parts):
                coefficients[i] = value
            coefficients[members[-1]] = -sum(parts)
        if index % 4 == 0:
            # break the premise in a class of size one or by shifting a sum
            victim = rng.randrange(n)
            coefficients[victim] = coefficients[victim] + 1
            try:
                vandermonde_class_sums(coefficients, rows)
                failures += 1
            except VandermondePremiseError as err:
                total = 0
                for a, row in zip(coefficients, rows):
                    term = a
                    for j, p in enumerate(err.exponents):
                        term = term * row[j] ** p
                    total = total + term
                if total == 0 or total != err.value:
                    failures += 1
        else:
            classes = vandermonde_class_sums(coefficients, rows)
            if any(total != 0 for _, total in classes):
                failures += 1
    _report("10 vandermonde checker", failures == 0, "200 exact systems")
    assert failures == 0


# ---------------------------------------------------------------------------
# 11. Universal augmentation sum identity
# ---------------------------------------------------------------------------

def _connected_instance(rng, fset, n_vars):
    for _ in range(200):
        inst = random_instance(rng, fset, n_vars, k=1,
                               n_constraints=rng.randint(n_vars - 1, n_vars + 2))
        if instance_connected(inst):
            return inst
    raise AssertionError("could not sample a connected instance")


def test_11_universal_augmentation():
    rng = random.Random(1011)
    failures = 0
    for _ in range(20):
        q_f = rng.randint(1, 2)
        q_g = rng.randint(1, 2)
        t = rng.randint(1, 2)
        arities = [rng.randint(1, 2) for _ in range(t)]
        fset = CFSet(tuple(random_function(rng, q_f, n) for n in arities))
        gset = CFSet(tuple(random_function(rng, q_g, n) for n in arities))
        summed = direct_sum_sets(augment_universal(fset), augment_universal(gset))
        inst = _connected_instance(rng, summed, rng.randint(2, 4))
        label_var = inst.labels[0]
        lhs = pinned_partition(summed, inst, (q_f,))  # pin to the F-side universal element
        total = 0
        others = [v for v in inst.variables if v != label_var]
        for size in range(len(others) + 1):
            for subset in itertools.combinations(others, size):
                removed = (label_var,) + subset
                total = total + partition_function(
                    fset, restrict_instance(inst, removed, fset)
                )
        if lhs != total:
            failures += 1
    _report("11 universal augmentation sum identity", failures == 0, "20 connected pairs")
    assert failures == 0
