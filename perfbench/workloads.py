"""The four workloads: seeded inputs, the ops of one round, and their checks.

An op is one call a user would make (one ``distinguish``, one ``Z``, one
automorphism group, ...).  A workload builds its inputs from the seed once,
then hands out rounds: fixed lists of ops that the worker times one by one
and checks after the round, outside the timed region.  Every round of a
workload attempts the same operations, so the share of failed ops is the
same in every run.

``P`` is the imported ``cspiso`` package.  Program functions are looked up
on it when the ops are built, after tracing (if any) has wrapped them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracles as O


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    known_fault: bool = False


# ---------------------------------------------------------------------------
# sweep: one signature-(2,2) row of acceptance requirement 1 per round
# ---------------------------------------------------------------------------

def signature_sets(P, signature: Sequence[int], pool=(0, 1, 2)):
    """Every set of the given arities with q <= 2 and entries from the pool,
    in the order acceptance requirement 1 uses."""
    sets = []
    for q in (1, 2):
        pools = [
            [P.ConstraintFunction(q, n, e) for e in itertools.product(pool, repeat=q ** n)]
            for n in signature
        ]
        sets.extend(P.CFSet(combo) for combo in itertools.product(*pools))
    return sets


class Sweep:
    """Rows of the signature-(2,2) corpus in a seeded order, each paired with
    all sets of that signature.  The first row fills the per-set caches in
    set-up, so rounds measure the steady per-pair path."""

    def __init__(self, P, seed: int, smoke: bool):
        self.P = P
        sets = signature_sets(P, (2, 2))
        if smoke:
            sets = sets[::40]
        self.sets = sets
        self.rows = random.Random(seed).sample(range(len(sets)), len(sets))
        for g in sets:
            P.distinguish(sets[self.rows[0]], g)
        self._canon: Dict[int, Tuple] = {}
        self._values: Dict[Tuple[int, int], object] = {}

    def canon(self, i: int):
        if i not in self._canon:
            self._canon[i] = O.canonical_form(self.sets[i])
        return self._canon[i]

    def value(self, i: int, witness):
        # keyed by id: witnesses are the program's cached probe objects; the
        # entry keeps its witness alive so that the id is not reused
        key = (i, id(witness))
        if key not in self._values:
            self._values[key] = (witness, O.naive_pinned(self.sets[i], witness))
        return self._values[key][1]

    def check(self, fi: int, gi: int, result) -> Optional[str]:
        fset, gset = self.sets[fi], self.sets[gi]
        if self.canon(fi) == self.canon(gi):
            return O.check_isomorphism_verdict(result, fset, gset, True)
        if result.sigma is not None:
            return f"sets {fi} and {gi} are not isomorphic, got sigma {result.sigma}"
        own = (self.value(fi, result.witness), self.value(gi, result.witness))
        if own[0] == own[1]:
            return f"witness values are equal ({own[0]!r})"
        if own != (result.z_f, result.z_g):
            return f"witness values {(result.z_f, result.z_g)!r}, naive {own!r}"
        return None

    def round(self, i: int) -> List[Op]:
        fi = self.rows[1 + i % (len(self.rows) - 1)]
        fset = self.sets[fi]
        return [
            Op("distinguish", functools.partial(self.P.distinguish, fset, g),
               functools.partial(self.check, fi, gi))
            for gi, g in enumerate(self.sets)
        ]


# ---------------------------------------------------------------------------
# deep: certified pairs whose only witnesses are non-simple
# ---------------------------------------------------------------------------

def deep_pairs(P, seed: int, smoke: bool, n_weighted: int = 24):
    """The 12 unweighted certified pairs of signature (1,2) from the corpus
    (unary (0,2) or (2,0) against (1,1), with the same constant binary
    member), then seeded pairs with small integer weights, equal total
    weight and equal weighted unary sum, but different weighted sums of
    squares.  Those pairs are first separated by the probe that separates
    the unweighted ones (one variable carrying the unary member twice), so
    the stream depth, and with it the cost of a run, does not depend on the
    seed; no set occurs in two weighted pairs, so each of those ops builds
    two fresh profiles.  Smoke runs drop the binary member, which swaps the
    simple-candidate stream for the cheap all-unary one."""
    rng = random.Random(seed)

    def make(unary, c, weights=None):
        functions = [P.ConstraintFunction(2, 1, tuple(unary))]
        if not smoke:
            functions.append(P.ConstraintFunction(2, 2, (c,) * 4))
        return P.CFSet(tuple(functions), weights)

    pairs = []
    for c in (0, 1, 2):
        for u in ((0, 2), (2, 0)):
            pairs.append((make(u, c), make((1, 1), c)))
            pairs.append((make((1, 1), c), make(u, c)))

    def moment(unary, weights, power):
        return sum(w * x ** power for x, w in zip(unary, weights))

    by_key: Dict[Tuple[int, int], List] = {}
    for u in itertools.permutations(range(4), 2):
        for w in itertools.product(range(1, 5), repeat=2):
            by_key.setdefault((moment(u, w, 0), moment(u, w, 1)), []).append((u, w))
    candidates = [
        (u, w, v, x)
        for group in by_key.values()
        for (u, w), (v, x) in itertools.permutations(group, 2)
        if moment(u, w, 2) != moment(v, x, 2)
    ]
    rng.shuffle(candidates)
    used = set()
    for u, w, v, x in candidates:
        c = rng.randint(1, 2)
        if (u, w, c) in used or (v, x, c) in used:
            continue
        used |= {(u, w, c), (v, x, c)}
        pairs.append((make(u, c, w), make(v, c, x)))
        if len(pairs) == 12 + n_weighted:
            break
    rng.shuffle(pairs)
    return pairs


class Deep:
    def __init__(self, P, seed: int, smoke: bool):
        self.P = P
        self.pairs = deep_pairs(P, seed, smoke)

    @staticmethod
    def check(fset, gset, result) -> Optional[str]:
        key = O.simple_value_key(fset)
        if key is None or key != O.simple_value_key(gset):
            return "pair is not certified"
        if result.sigma is not None:
            return "certified non-isomorphic pair got a sigma"
        if O.is_simple(result.witness):
            return "simple witness on a pair certified to have none"
        return O.check_witness(result.witness, result.z_f, result.z_g, fset, gset)

    def round(self, i: int) -> List[Op]:
        return [
            Op("distinguish", functools.partial(self.P.distinguish, f, g),
               functools.partial(self.check, f, g))
            for f, g in self.pairs
        ]


# ---------------------------------------------------------------------------
# contract: exact partition functions, Holant values and decompositions
# ---------------------------------------------------------------------------

def _entries(P, rng, kind: str, count: int):
    """Nonzero entries, so no enumeration cuts a term short, and rationals
    over one denominator, so the size of the numbers, and with it the cost
    of an op, does not depend on the seed."""
    if kind == "int":
        return tuple(rng.randint(1, 3) for _ in range(count))
    if kind == "fraction":
        return tuple(Fraction(rng.choice((1, 2, 4, 5)), 3) for _ in range(count))
    return tuple(P.gaussian(rng.randint(1, 3), rng.choice((-2, -1, 1, 2))) for _ in range(count))


class Contract:
    """Low-width instances (paths, cycles, trees) with transfer-matrix or
    tree-message answers, dense instances checked by the pinning identity
    and the Holant route, and bipartite gadgets checked against a naive
    signature matrix.  The weighted Holant ops are fixed, not seeded: the
    grid drops the domain weights, so they fail on every run.  Every round
    repeats the same inputs, so each oracle answer is computed once, at the
    first check, and every later round is checked against it."""

    def __init__(self, P, seed: int, smoke: bool):
        self.P = P
        rng = random.Random(seed)
        shrink = 4 if smoke else 0
        ops: List[Op] = []

        def cfset(q, kind, weights=None):
            functions = []
            for arity in (2, 1, 3):
                functions.append(P.ConstraintFunction(q, arity, _entries(P, rng, kind, q ** arity)))
            return P.CFSet(tuple(functions), weights)

        sets = {
            "int3": cfset(3, "int"),
            "int4": cfset(4, "int"),
            "fraction3": cfset(3, "fraction"),
            "weighted3": cfset(3, "int", tuple(Fraction(rng.choice((1, 2, 4, 5)), 3) for _ in range(3))),
            "gaussian3": cfset(3, "gaussian"),
        }
        for name, set_key, n in (
            ("path", "int3", 10), ("path", "int4", 8), ("path", "fraction3", 8),
            ("path", "weighted3", 8), ("cycle", "int3", 9), ("cycle", "gaussian3", 7),
            ("tree", "int3", 9), ("tree", "weighted3", 8),
        ):
            ops.append(self.low_width_op(name, sets[set_key], n - shrink, rng))
        ops.append(self.path_matrix_op(sets["int3"], 9 - shrink))
        # 25 of the round's 46 ops pin two variables of a dense instance; the
        # 16 at q = 4 take the middle ranks, so the median op is one of them
        for set_key, n, n_labels in (("int3", 8, 2), ("int4", 7, 2), ("weighted3", 7, 1)):
            ops.extend(self.dense_ops(sets[set_key], n - shrink, n_labels, rng))
        for arities, n_out, n_in in (((2, 1), 1, 1), ((2, 2), 2, 1)):
            ops.append(self.decompose_op(sets["int3"], arities, n_out, n_in))
        ops.extend(self.weighted_holant_ops())
        self.ops = ops

    def instance(self, n: int, constraints, labels=()):
        names = tuple(f"x{i}" for i in range(n))
        return self.P.LabeledInstance(
            names, tuple((j, tuple(names[v] for v in vs)) for j, vs in constraints),
            tuple(names[v] for v in labels),
        )

    def low_width_op(self, shape: str, fset, n: int, rng) -> Op:
        if shape == "cycle":
            edges = [(i, (i + 1) % n) for i in range(n)]
            expected = functools.cache(functools.partial(O.cycle_partition, fset, n, 0, 1))
        else:
            edges = [(i - 1 if shape == "path" else rng.randrange(i), i) for i in range(1, n)]
            expected = functools.cache(functools.partial(O.tree_partition, fset, n, edges, 0, 1))
        inst = self.instance(n, [(0, e) for e in edges] + [(1, (v,)) for v in range(n)])
        return Op(f"Z:{shape}", functools.partial(self.P.partition_function, fset, inst),
                  lambda got: O.check_value(got, expected(), f"Z of a {shape} on {n} variables"))

    def path_matrix_op(self, fset, n: int) -> Op:
        """Signature matrix of a path grid whose two ends are the labels."""
        edges = [(i - 1, i) for i in range(1, n)]
        inst = self.instance(n, [(0, e) for e in edges] + [(1, (v,)) for v in range(n)], (0, n - 1))

        @functools.cache
        def expected():
            return [[O.tree_partition(fset, n, edges, 0, 1, {0: x, n - 1: y}) for y in range(fset.q)]
                    for x in range(fset.q)]

        P = self.P
        return Op("signature_matrix", lambda: P.signature_matrix(P.csp_to_grid(inst, fset, 1)),
                  lambda got: O.check_matrix(got, expected(), "path signature matrix"))

    def dense_ops(self, fset, n: int, n_labels: int, rng) -> List[Op]:
        """Z, Z pinned at every value tuple of the first ``n_labels``
        variables, and (for an unweighted set) the Holant value of the
        instance's grid; the pinning identity sum_psi w(psi) Z^psi = Z and
        Holant = Z tie them together."""
        constraints = [(2, tuple(rng.sample(range(n), 3))) for _ in range(n // 2)]
        constraints += [(0, tuple(rng.sample(range(n), 2))) for _ in range(n // 2)]
        constraints += [(1, (v,)) for v in range(n)]
        inst = self.instance(n, constraints, tuple(range(n_labels)))
        P = self.P
        pins = list(itertools.product(range(fset.q), repeat=n_labels))
        values: Dict[object, object] = {}

        def keep(key, got):
            values[key] = got
            if key != pins[-1]:
                return None
            # pinned variables carry their unary members, but not their weights
            total = O.sum_scalars(
                math.prod(O.weight(fset, x) for x in psi) * values[psi] for psi in pins
            )
            return O.check_value(total, values["Z"], "pinning identity")

        ops = [Op("Z:dense", functools.partial(P.partition_function, fset, inst),
                  functools.partial(keep, "Z"))]
        ops += [
            Op("pinned:dense", functools.partial(P.pinned_partition, fset, inst, psi),
               functools.partial(keep, psi))
            for psi in pins
        ]
        if fset.weights is None:
            closed = P.LabeledInstance(inst.variables, inst.constraints, ())
            ops.append(Op("holant:dense", lambda: P.holant_value(P.csp_to_grid(closed, fset)),
                          lambda got: O.check_value(got, values["Z"], "Holant value against Z")))
        return ops

    def decompose_op(self, fset, arities, n_out: int, n_in: int) -> Op:
        """A bipartite gadget with two equality vertices and a fixed wiring;
        the seed moves only the function values through ``fset``."""
        P = self.P
        ports = [0, 0]

        def port(v):
            ports[v] += 1
            return (v, ports[v] - 1)

        signatures = [P.EQ, P.EQ]
        edges = []
        for c, arity in enumerate(arities):
            j = 0 if arity == 2 else 1
            vertex = len(signatures)
            signatures.append(fset.functions[j])
            for pos in range(arity):
                edges.append((port((c + pos) % 2), (vertex, pos)))
        outputs = tuple(port(i % 2) for i in range(n_out))
        inputs = tuple(port((i + 1) % 2) for i in range(n_in))
        gadget = P.Gadget(fset.q, tuple(signatures), tuple(edges), outputs, inputs)

        def run():
            return P.evaluate_expression(P.decompose(gadget, fset), fset.q, fset.functions)

        expected = functools.cache(functools.partial(O.naive_signature_matrix, gadget))
        return Op("decompose", run, lambda got: O.check_matrix(got, expected(), "decompose value"))

    def weighted_holant_ops(self) -> List[Op]:
        """Seed-independent weighted sets through the Holant route."""
        P = self.P
        ones = P.CFSet((P.ConstraintFunction(2, 2, (1, 1, 1, 1)),), (1, 2))
        path = P.CFSet((P.ConstraintFunction(3, 2, (1, 2, 1, 2, 1, 3, 1, 1, 2)),
                        P.ConstraintFunction(3, 1, (2, 1, 3))), (1, 2, 3))
        cases = [(ones, self.instance(2, [(0, (0, 1))]))]
        cases.append((path, self.instance(4, [(0, (i, i + 1)) for i in range(3)] + [(1, (v,)) for v in range(4)])))
        def check(fset, inst, got):
            return O.check_value(got, O.naive_pinned(fset, inst), "weighted Holant value against Z")

        return [
            Op("holant:weighted", functools.partial(lambda f, k: P.holant_value(P.csp_to_grid(k, f)), fset, inst),
               functools.partial(check, fset, inst), known_fault=True)
            for fset, inst in cases
        ]

    def round(self, i: int) -> List[Op]:
        return self.ops


# ---------------------------------------------------------------------------
# symmetry: automorphism groups and the intertwiner route at q = 6..8
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    name: str
    q: int
    edges: Tuple[Tuple[int, int], ...]
    generators: Tuple[Tuple[int, ...], ...]
    order: int


def cycles(lengths: Sequence[int]) -> Graph:
    """Disjoint cycles; Aut is generated by a rotation and a reflection of
    each cycle and swaps of equal-length cycles, order prod(2n) * prod(m!)."""
    q = sum(lengths)
    edges, gens, starts = [], [], []
    start = 0
    for n in lengths:
        starts.append(start)
        block = list(range(start, start + n))
        edges += [(block[i], block[(i + 1) % n]) for i in range(n)]
        for image in ([block[(i + 1) % n] for i in range(n)], [block[-i % n] for i in range(n)]):
            g = list(range(q))
            g[start:start + n] = image
            gens.append(tuple(g))
        start += n
    order = 1
    for n in lengths:
        order *= 2 * n
    for a, b in itertools.combinations(range(len(lengths)), 2):
        if lengths[a] == lengths[b] and b == a + 1:
            g = list(range(q))
            for i in range(lengths[a]):
                g[starts[a] + i], g[starts[b] + i] = starts[b] + i, starts[a] + i
            gens.append(tuple(g))
    for n in set(lengths):
        for m in range(2, lengths.count(n) + 1):
            order *= m
    name = "C" + "+C".join(map(str, lengths))
    return Graph(name, q, tuple(edges), tuple(gens), order)


def cube() -> Graph:
    """The 3-cube: Aut is the hyperoctahedral group of order 48, generated
    by one bit flip and two coordinate swaps."""
    edges = tuple((a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1)

    def swap_bits(x, i, j):
        bi, bj = (x >> i) & 1, (x >> j) & 1
        return x & ~((1 << i) | (1 << j)) | (bi << j) | (bj << i)

    gens = (tuple(x ^ 1 for x in range(8)),
            tuple(swap_bits(x, 0, 1) for x in range(8)),
            tuple(swap_bits(x, 1, 2) for x in range(8)))
    return Graph("cube", 8, edges, gens, 48)


def relabel(graph: Graph, pi: Sequence[int]) -> Graph:
    inverse = [0] * graph.q
    for i, x in enumerate(pi):
        inverse[x] = i
    edges = tuple((pi[a], pi[b]) for a, b in graph.edges)
    gens = tuple(tuple(pi[g[inverse[x]]] for x in range(graph.q)) for g in graph.generators)
    return Graph(graph.name, graph.q, edges, gens, graph.order)


def distance_two(graph: Graph, a: int) -> int:
    """The first vertex at distance 2 from ``a``: the pin pair (a, far) lies
    in another orbit than any edge, since automorphisms keep adjacency."""
    near = {a} | {y for x, y in graph.edges if x == a} | {x for x, y in graph.edges if y == a}
    for x, y in graph.edges:
        for u, v in ((x, y), (y, x)):
            if u in near and u != a and v not in near:
                return v
    raise ValueError(f"no vertex at distance 2 from {a} in {graph.name}")


def spread(*groups: Sequence[Op]) -> List[Op]:
    """The ops of all groups, each group spread evenly over the result and
    kept in its own order."""
    keyed = [((i + 0.5) / len(g), n, op) for n, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


class Symmetry:
    """Regular graphs, so the per-element invariants prune nothing, as
    0/1 binary constraint functions.  Every use relabels a graph afresh, with
    a generator seeded by the seed and the round, so every automorphism walk
    starts cold; the runner gives every round a fresh interpreter, so that
    no walk finds another round's permutations in ``permute_domain``'s cache
    and memory does not grow with the run length."""

    def __init__(self, P, seed: int, smoke: bool):
        self.P = P
        self.seed = seed
        self.smoke = smoke

    def cfset(self, graph: Graph):
        q = graph.q
        entries = [0] * (q * q)
        for a, b in graph.edges:
            entries[a * q + b] = entries[b * q + a] = 1
        return self.P.CFSet((self.P.ConstraintFunction(q, 2, tuple(entries)),))

    def copy(self, graph: Graph) -> Tuple[Graph, object]:
        """A relabelled copy unlike any other of this round, so that no walk
        finds its permutations already in ``permute_domain``'s cache."""
        while True:
            g = relabel(graph, self.rng.sample(range(graph.q), graph.q))
            fset = self.cfset(g)
            if fset not in self.seen:
                self.seen.add(fset)
                return g, fset

    def round(self, i: int) -> List[Op]:
        P = self.P
        self.rng = random.Random(self.seed * 100_003 + i)
        self.seen = set()
        if self.smoke:
            base = {"big": cycles([6]), "c8": cycles([6]), "c44": cycles([3, 3]),
                    "c34": cycles([3, 3]), "odd": cycles([6]), "c6": cycles([5]), "c33": cycles([4])}
            tiers = [[base["big"]], [base["c6"]], [base["c33"]]]
        else:
            base = {"big": cube(), "c8": cycles([8]), "c44": cycles([4, 4]),
                    "c34": cycles([3, 4]), "odd": cycles([7]), "c6": cycles([6]), "c33": cycles([3, 3])}
            # one S_8 walk tops the round; ten S_7 walks, the same work each,
            # and the first witness_sigma (an S_7 walk for its group) hold the
            # next ranks, so the 90th percentile falls among them; twenty S_6
            # walks hold the middle ranks, so the median op is one of them
            tiers = [[base["big"]], [base["c34"], base["odd"]] * 5, [base["c6"], base["c33"]] * 10]
        copies = [[self.copy(graph) for graph in tier] for tier in tiers]
        top, middle, low = (
            [Op("automorphisms", functools.partial(P.automorphisms, fset),
                functools.partial(self.check_group, fset, g.order)) for g, fset in tier]
            for tier in copies
        )
        cube_graph, cube_set = copies[0][0]
        ops: List[Op] = []
        for graph in (base["big"], base["c44"]):
            (_, f), (_, h) = self.copy(graph), self.copy(graph)
            ops.append(self.distinguish_op(f, h, True))
        for a, b in ((base["c8"], base["c44"]), (base["c34"], base["odd"])):
            ops.append(self.distinguish_op(self.copy(a)[1], self.copy(b)[1], False))

        g, fset = self.copy(base["odd"])
        elements = O.closure(g.q, g.generators)
        a, b = g.edges[0]
        tau = self.rng.choice(elements)
        far = distance_two(g, a)
        for psi, same in (((tau[a], tau[b]), True), ((a, far), False)):
            ops.append(Op("witness_sigma", functools.partial(P.witness_sigma, fset, (a, b), psi),
                          functools.partial(self.check_witness_sigma, fset, (a, b), psi, same)))
        group = P.PermutationGroup(cube_graph.q, cube_graph.generators)
        cube_elements = O.closure(cube_graph.q, cube_graph.generators)
        for k, l in ((1, 1), (2, 1)):
            ops.append(Op("intertwiner_basis", functools.partial(P.intertwiner_basis, group, k, l),
                          functools.partial(self.check_basis, cube_graph, cube_elements, k, l)))
        # both spans reuse a group walked earlier in the round: the cube copy's
        # and the witness_sigma copy's
        for graph, s, k, l in ((cube_graph, cube_set, 1, 1), (g, fset, 2, 0)):
            ops.append(Op("gadget_span", functools.partial(P.gadget_span, s, k, l, 3),
                          functools.partial(self.check_span, graph, k, l)))
        # the S_8 walk first, then every group spread over the round, so that
        # each group samples the host's speed over the whole run, not in one
        # burst per round
        return top + spread(middle, low, ops)

    def distinguish_op(self, fset, gset, isomorphic: bool) -> Op:
        return Op("distinguish", functools.partial(self.P.distinguish, fset, gset),
                  functools.partial(O.check_isomorphism_verdict, fset=fset, gset=gset, isomorphic=isomorphic))

    @staticmethod
    def check_group(fset, order: int, elements) -> Optional[str]:
        return O.check_group(elements, fset, order)

    @staticmethod
    def check_witness_sigma(fset, phi, psi, same: bool, result) -> Optional[str]:
        if same:
            if result.sigma is None:
                return "pins in one orbit got a witness"
            if not O.is_isomorphism(result.sigma, fset, fset):
                return f"{result.sigma} is not an automorphism"
            if tuple(result.sigma[x] for x in phi) != tuple(psi):
                return f"{result.sigma} does not carry {phi} to {psi}"
            return None
        if result.sigma is not None:
            return "pins in different orbits got a sigma"
        return O.check_witness(result.witness, result.z_phi, result.z_psi, fset, fset, phi, psi)

    @staticmethod
    def check_basis(graph: Graph, elements, k: int, l: int, space) -> Optional[str]:
        expected = O.burnside_orbits(graph.q, elements, k + l)
        if space.dimension != expected:
            return f"dimension {space.dimension}, Burnside count {expected}"
        total = [[0] * graph.q ** l for _ in range(graph.q ** k)]
        for mat in space.basis:
            if not O.is_invariant(mat.data, graph.q, k, l, graph.generators):
                return "a basis matrix is not an intertwiner"
            for r, row in enumerate(mat.data):
                for c, x in enumerate(row):
                    total[r][c] += x
        if any(x != 1 for row in total for x in row):
            return "basis indicators do not partition the index set"
        return None

    @staticmethod
    def check_span(graph: Graph, k: int, l: int, result) -> Optional[str]:
        elements = O.closure(graph.q, graph.generators)
        expected = O.burnside_orbits(graph.q, elements, k + l)
        if result.orbit_dimension != expected:
            return f"orbit dimension {result.orbit_dimension}, Burnside count {expected}"
        if len(result.basis) != result.dimension or result.dimension > expected:
            return f"span dimension {result.dimension} against orbit dimension {expected}"
        for mat in result.basis:
            if not O.is_invariant(mat.data, graph.q, k, l, graph.generators):
                return "a span matrix is not an intertwiner"
        return None


WORKLOADS = {"sweep": Sweep, "deep": Deep, "contract": Contract, "symmetry": Symmetry}
