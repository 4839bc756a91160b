"""The benchmark's own answers, computed apart from the program.

Nothing here imports ``cspiso``: the functions read the plain fields of the
program's objects (``CFSet.functions``/``weights``, ``LabeledInstance``
variables/constraints/labels, ``Gadget`` ports) and compute with Python
integers, ``Fraction`` and whatever scalar type the entries already have.
Each ``check_*`` function returns ``None`` when an output is right and a
one-line reason when it is wrong.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple


def _entry(fn, args: Sequence[int]):
    idx = 0
    for x in args:
        idx = idx * fn.q + x
    return fn.entries[idx]


def weight(fset, x: int):
    return 1 if fset.weights is None else fset.weights[x]


def naive_pinned(fset, inst, psi: Sequence[int] = ()):
    """Z^psi by plain enumeration: labels fixed to ``psi``, every other
    variable summed with its domain weight."""
    labels = list(inst.labels)
    free = [v for v in inst.variables if v not in set(labels)]
    total = 0
    for values in itertools.product(range(fset.q), repeat=len(free)):
        assignment = dict(zip(labels, psi))
        assignment.update(zip(free, values))
        term = 1
        for v in free:
            term = term * weight(fset, assignment[v])
        for j, vs in inst.constraints:
            term = term * _entry(fset.functions[j], [assignment[v] for v in vs])
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Isomorphism by walking S_q
# ---------------------------------------------------------------------------

def permute_set(fset, sigma: Sequence[int]) -> Tuple:
    """The value tables of ``x -> F_j(sigma(x))`` and the weights of
    ``sigma``, as one comparable tuple."""
    q = fset.q
    tables = tuple(
        tuple(_entry(fn, [sigma[x] for x in xs]) for xs in itertools.product(range(q), repeat=fn.arity))
        for fn in fset.functions
    )
    weights = tuple(weight(fset, sigma[x]) for x in range(q))
    return tables, weights


def canonical_form(fset) -> Tuple:
    """Least relabelled table over all of S_q; two sets are isomorphic
    exactly when their forms are equal."""
    return (fset.q, min(permute_set(fset, s) for s in itertools.permutations(range(fset.q))))


def is_isomorphism(sigma, fset, gset) -> bool:
    """F_j(x) == G_j(sigma(x)) for every j and x, and w_F(x) == w_G(sigma(x))."""
    if sigma is None or sorted(sigma) != list(range(fset.q)) or fset.q != gset.q:
        return False
    identity = tuple(range(fset.q))
    return permute_set(fset, identity) == permute_set(gset, sigma)


def is_simple(inst) -> bool:
    labels = set(inst.labels)
    seen = set()
    for j, vs in inst.constraints:
        if len(set(vs)) != len(vs) or all(v in labels for v in vs):
            return False
        key = (j, frozenset(vs))
        if key in seen:
            return False
        seen.add(key)
    return True


def simple_value_key(fset):
    """What every simple closed instance's value depends on when each
    non-unary member is constant (None otherwise): q, the constants and the
    weighted subset sums of the unary members.  Equal keys certify that no
    simple instance separates two sets."""
    constants, unary = [], []
    for fn in fset.functions:
        if fn.arity == 1:
            unary.append(fn.entries)
        elif len(set(fn.entries)) == 1:
            constants.append(fn.entries[0])
        else:
            return None
    sums = tuple(
        sum(weight(fset, x) * math.prod(entries[x] for entries in subset) for x in range(fset.q))
        for size in range(len(unary) + 1)
        for subset in itertools.combinations(unary, size)
    )
    return fset.q, tuple(constants), sums


# ---------------------------------------------------------------------------
# Low-width partition functions: transfer matrices and tree messages
# ---------------------------------------------------------------------------

def _site(fset, unary_j: int, x: int, pinned: bool):
    value = _entry(fset.functions[unary_j], [x])
    return value if pinned else value * weight(fset, x)


def tree_partition(fset, n: int, edges: Sequence[Tuple[int, int]], binary_j: int, unary_j: int,
                   pins: Optional[Dict[int, int]] = None):
    """Z (or Z with some variables pinned) of a forest instance: the binary
    member on each edge ``(parent, child)``, the unary member on every
    variable.  Messages flow from the leaves to the roots."""
    pins = pins or {}
    q = fset.q
    binary = fset.functions[binary_j]
    children: Dict[int, List[int]] = {v: [] for v in range(n)}
    has_parent = set()
    for a, b in edges:
        children[a].append(b)
        has_parent.add(b)

    def message(v) -> List:
        out = []
        for x in range(q):
            if v in pins and pins[v] != x:
                out.append(0)
                continue
            value = _site(fset, unary_j, x, v in pins)
            for c in children[v]:
                sub = message(c)
                value = value * sum_scalars(_entry(binary, [x, y]) * sub[y] for y in range(q))
            out.append(value)
        return out

    total = 1
    for root in range(n):
        if root not in has_parent:
            total = total * sum_scalars(message(root))
    return total


def cycle_partition(fset, n: int, binary_j: int, unary_j: int):
    """Z of the cycle x0 - x1 - ... - x(n-1) - x0: the trace of (D B)^n."""
    q = fset.q
    binary = fset.functions[binary_j]
    total = 0
    for start in range(q):
        vec = [_site(fset, unary_j, x, False) if x == start else 0 for x in range(q)]
        for _ in range(n - 1):
            vec = [
                sum_scalars(vec[x] * _entry(binary, [x, y]) for x in range(q)) * _site(fset, unary_j, y, False)
                for y in range(q)
            ]
        total = total + sum_scalars(vec[x] * _entry(binary, [x, start]) for x in range(q))
    return total


def sum_scalars(values):
    total = 0
    for v in values:
        total = total + v
    return total


# ---------------------------------------------------------------------------
# Gadgets
# ---------------------------------------------------------------------------

def naive_signature_matrix(gadget) -> List[List]:
    """Signature matrix by enumerating one value per edge and per dangling
    port: equality vertices need all their ports equal (a bare one counts
    q), function vertices read their entry in port order."""
    q = gadget.q
    wires: List[Tuple] = [tuple(e) for e in gadget.edges]
    wires += [(p,) for p in gadget.outputs] + [(p,) for p in gadget.inputs]
    wire_of = {}
    for w, ports in enumerate(wires):
        for port in ports:
            wire_of[tuple(port)] = w
    ports_at: Dict[int, List[Tuple[int, int]]] = {v: [] for v in range(len(gadget.signatures))}
    for port in wire_of:
        ports_at[port[0]].append(port)
    bare = 0
    for v, sig in enumerate(gadget.signatures):
        ports_at[v].sort()
        if not ports_at[v] and not hasattr(sig, "entries"):
            bare += 1
    k, l = len(gadget.outputs), len(gadget.inputs)
    first_out = len(gadget.edges)
    table = [[0] * (q ** l) for _ in range(q ** k)]
    for values in itertools.product(range(q), repeat=len(wires)):
        term = q ** bare
        for v, sig in enumerate(gadget.signatures):
            args = [values[wire_of[p]] for p in ports_at[v]]
            if hasattr(sig, "entries"):
                term = term * _entry(sig, args)
            elif len(set(args)) > 1:
                term = 0
            if term == 0:
                break
        if term == 0:
            continue
        outs = values[first_out:first_out + k]
        ins = values[first_out + k:]
        r = sum(x * q ** (k - 1 - i) for i, x in enumerate(outs))
        c = sum(y * q ** (l - 1 - i) for i, y in enumerate(ins))
        table[r][c] = table[r][c] + term
    return table


# ---------------------------------------------------------------------------
# Permutation groups
# ---------------------------------------------------------------------------

def compose(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(a[b[i]] for i in range(len(a)))


def closure(q: int, generators: Sequence[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    identity = tuple(range(q))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for gen in generators:
                h = compose(tuple(gen), g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen))


def burnside_orbits(q: int, elements: Sequence[Sequence[int]], length: int) -> int:
    """Orbits of the diagonal action on [q]^length: the mean over the group
    of (fixed points)^length."""
    total = sum(sum(1 for i in range(q) if g[i] == i) ** length for g in elements)
    if total % len(elements):
        raise ValueError("Burnside count is not an integer")
    return total // len(elements)


def is_invariant(data: Sequence[Sequence], q: int, k: int, l: int, generators) -> bool:
    """T[sigma x, sigma y] == T[x, y] for every generator sigma."""
    def index(xs):
        idx = 0
        for x in xs:
            idx = idx * q + x
        return idx

    for sigma in generators:
        for xs in itertools.product(range(q), repeat=k):
            r1, r2 = index(xs), index([sigma[x] for x in xs])
            for ys in itertools.product(range(q), repeat=l):
                if data[r1][index(ys)] != data[r2][index([sigma[y] for y in ys])]:
                    return False
    return True


# ---------------------------------------------------------------------------
# Checks of single outputs
# ---------------------------------------------------------------------------

def check_isomorphism_verdict(result, fset, gset, isomorphic: bool) -> Optional[str]:
    """A ``DistinguishResult`` against the known verdict: a returned sigma is
    verified entrywise, a returned witness by the naive evaluator."""
    if isomorphic:
        if result.sigma is None:
            return "isomorphic pair got a witness"
        if not is_isomorphism(result.sigma, fset, gset):
            return f"sigma {result.sigma} is not an isomorphism"
        return None
    if result.sigma is not None:
        return "non-isomorphic pair got a sigma"
    return check_witness(result.witness, result.z_f, result.z_g, fset, gset)


def check_witness(witness, z_f, z_g, fset, gset, phi=(), psi=()) -> Optional[str]:
    own_f = naive_pinned(fset, witness, phi)
    own_g = naive_pinned(gset, witness, psi)
    if own_f == own_g:
        return f"witness values are equal ({own_f!r})"
    if (own_f, own_g) != (z_f, z_g):
        return f"witness values {(z_f, z_g)!r}, naive {(own_f, own_g)!r}"
    return None


def check_value(got, expected, what: str) -> Optional[str]:
    return None if got == expected else f"{what}: got {got!r}, expected {expected!r}"


def check_matrix(got, expected: Sequence[Sequence], what: str) -> Optional[str]:
    rows = [list(r) for r in got.data]
    return None if rows == [list(r) for r in expected] else f"{what}: matrices differ"


def check_group(elements, fset, order: int) -> Optional[str]:
    if len(elements) != order:
        return f"group order {len(elements)}, closed form {order}"
    if len(set(map(tuple, elements))) != len(elements):
        return "repeated group elements"
    bad = [s for s in elements if not is_isomorphism(s, fset, fset)]
    return f"{bad[0]} is not an automorphism" if bad else None
