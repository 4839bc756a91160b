"""Signature grids and gadgets: Holant values, signature matrices, and the
compose / tensor / adjoint calculus.

Dangling-edge convention (single source of truth)
-------------------------------------------------
A gadget stores its output and input dangling ports top-to-bottom.  The
signature matrix ``T`` is indexed by

* row: output values ``(x_1, ..., x_k)`` base-q, ``x_1`` most significant;
* column: input values ``(y_1, ..., y_l)`` base-q, ``y_1`` most significant,
  where ``y_a`` is assigned to the a-th *stored* input port.

Storing inputs top-to-bottom bakes in the reversed-input reading of the
drawn cyclic order, which is exactly what makes the calculus functorial:
``compose`` merges the a-th stored input of the left gadget with the a-th
output of the right gadget and satisfies ``T(A o B) = T(A) T(B)``; tensor
stacks both lists in order and gives a Kronecker product; adjoint swaps the
two lists (no reversal) and conjugates, giving the conjugate transpose.

Equality vertices are symbolic (the ``EQ`` sentinel): their arity is their
degree, and a degree-0 equality vertex contributes the scalar ``q``.
Composition contracts in one union-find pass: the equality vertices joined
by equality-equality edges (self-loops included) form classes, each class
becomes one equality vertex carrying the ports the others left, and the
joining edges go.  A class left with no port is the scalar ``q``, so the
Holant value never changes and bipartite gadgets compose into bipartite
gadgets.

Evaluation
----------
``signature_matrix`` unites the edge slots of every equality vertex into
classes and sums over the values of the free classes with
``partition._sum_product``, the kernel behind ``pinned_partition``: it walks
the free classes depth first, reads a function vertex's q entries for a
class as one strided row of its table, sums the last class in one pass and
skips every subtree below a zero partial product.  By the #CSP-Holant bridge
(``csp_to_grid``) the two compute one sum.  Like ``pinned_partition`` it
passes the tables through ``partition._integer_factors``: every function
vertex's table in integer form, Gaussian integers packed as ints ``a + b*M``
with one ``M`` per matrix, sized from the terms of one pinning, the scalar
of the degree-0 equality vertices and the tables' largest entries; each
entry is decoded and divided once by the product of the denominators.  Its
term cap counts every assignment and follows the one policy of
``partition._check_terms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .algebra import (
    ConstraintFunction,
    Matrix,
    Scalar,
    all_tuples,
    conjugate_function,
    union_find,
)
from .instances import CFSet, LabeledInstance
from .partition import _check_terms, _integer_factors, _sum_product


class GadgetError(ValueError):
    pass


class _EqualitySignature:
    """Sentinel for an equality vertex of whatever degree it ends up with."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "EQ"


EQ = _EqualitySignature()
Signature = Union[_EqualitySignature, ConstraintFunction]
Port = Tuple[int, int]  # (vertex index, port index)


@dataclass(frozen=True)
class Gadget:
    """A signature grid with ordered output/input dangling ports."""

    q: int
    signatures: Tuple[Signature, ...]
    edges: Tuple[Tuple[Port, Port], ...]
    outputs: Tuple[Port, ...] = ()
    inputs: Tuple[Port, ...] = ()

    def __post_init__(self):
        if self.q < 1:
            raise GadgetError(f"domain size must be >= 1, got {self.q}")
        object.__setattr__(self, "signatures", tuple(self.signatures))
        object.__setattr__(self, "edges", tuple(
            (tuple(a), tuple(b)) for a, b in self.edges
        ))
        object.__setattr__(self, "outputs", tuple(tuple(p) for p in self.outputs))
        object.__setattr__(self, "inputs", tuple(tuple(p) for p in self.inputs))
        n = len(self.signatures)
        seen: Dict[Port, bool] = {}
        for (a, b) in self.edges:
            for port in (a, b):
                self._check_port(port, n, seen)
        for port in self.outputs + self.inputs:
            self._check_port(port, n, seen)
        degrees = [0] * n
        for (v, p) in seen:
            degrees[v] = max(degrees[v], p + 1)
        for v, sig in enumerate(self.signatures):
            deg = degrees[v]
            used = sum(1 for (w, _) in seen if w == v)
            if used != deg:
                raise GadgetError(f"vertex {v} has port gaps")
            if isinstance(sig, ConstraintFunction):
                if sig.q != self.q:
                    raise GadgetError(f"vertex {v} signature has domain {sig.q}, grid has {self.q}")
                if sig.arity != deg:
                    raise GadgetError(
                        f"vertex {v} has degree {deg} but signature arity {sig.arity}"
                    )

    @staticmethod
    def _check_port(port: Port, n_vertices: int, seen: Dict[Port, bool]):
        v, p = port
        if not 0 <= v < n_vertices:
            raise GadgetError(f"port {port} references unknown vertex")
        if p < 0:
            raise GadgetError(f"negative port index in {port}")
        if port in seen:
            raise GadgetError(f"port {port} used twice")
        seen[port] = True

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    def is_bipartite_over(self, fset: CFSet) -> bool:
        """All edges join an equality vertex and a function vertex drawn from
        the set, and all dangling ports sit on equality vertices."""
        for fn in self.signatures:
            if isinstance(fn, ConstraintFunction) and fn not in fset.functions:
                return False
        for (a, b) in self.edges:
            kinds = {isinstance(self.signatures[a[0]], _EqualitySignature),
                     isinstance(self.signatures[b[0]], _EqualitySignature)}
            if kinds != {True, False}:
                return False
        for (v, _) in self.outputs + self.inputs:
            if not isinstance(self.signatures[v], _EqualitySignature):
                return False
        return True


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def signature_matrix(g: Gadget, cap: Optional[int] = None) -> Matrix:
    """Tabulate Holant values over all boundary pinnings (see module doc).

    Edges through a common equality vertex must carry one value in every
    nonzero term, so the sum runs over equality classes of edge slots rather
    than raw edges, through the same kernel as ``pinned_partition``; on an
    instance grid this is exactly the cost of the pinned partition function.
    Pinnings that give one class two values are 0.  Raises
    ``TermCapExceeded`` past ``cap`` terms, ``q^(k+l) * q^(free classes)``,
    and ``ValueError`` if ``cap`` is negative.
    """
    q = g.q
    k, l, n_edges = g.n_outputs, g.n_inputs, len(g.edges)

    # slots: one per edge, then one per dangling port (outputs, inputs)
    slot_of: Dict[Port, int] = {}
    for e_idx, (a, b) in enumerate(g.edges):
        slot_of[a] = e_idx
        slot_of[b] = e_idx
    for i, port in enumerate(g.outputs + g.inputs):
        slot_of[port] = n_edges + i

    n_free_eq = 0  # degree-0 equality vertices contribute a free loop each
    links: List[Tuple[int, int]] = []
    fn_vertices: List[Tuple[ConstraintFunction, List[int]]] = []
    for v, sig in enumerate(g.signatures):
        slots = [slot_of[(v, p)] for p in sorted(p for (w, p) in slot_of if w == v)]
        if isinstance(sig, _EqualitySignature):
            n_free_eq += not slots
            links += [(slots[0], s) for s in slots[1:]]
        else:
            fn_vertices.append((sig, slots))
    root = union_find(range(n_edges + k + l), links)

    # number the classes: boundary classes first, free classes after
    number: Dict[int, int] = {}
    for i in range(k + l):
        number.setdefault(root[n_edges + i], len(number))
    n_fixed = len(number)
    for r in sorted(set(root.values())):
        number.setdefault(r, len(number))

    _check_terms(q ** (k + l) * q ** (len(number) - n_fixed), cap)

    scalar = q ** n_free_eq
    factors, finish = _integer_factors(
        [(fn, tuple(number[root[s]] for s in slots)) for fn, slots in fn_vertices],
        q ** (len(number) - n_fixed), scalar,
    )
    port_class = [number[root[n_edges + i]] for i in range(k + l)]
    values = [0] * len(number)
    flat: List[Scalar] = []
    for xy in all_tuples(q, k + l):  # outputs then inputs: row-major order
        pins: Dict[int, int] = {}
        if any(pins.setdefault(c, x) != x for c, x in zip(port_class, xy)):
            flat.append(0)
            continue
        for c, x in pins.items():
            values[c] = x
        flat.append(finish(_sum_product(q, factors, values, n_fixed, scalar)))
    cols = q ** l
    return Matrix(tuple(tuple(flat[i:i + cols]) for i in range(0, len(flat), cols)))


def holant_value(g: Gadget, cap: Optional[int] = None) -> Scalar:
    if g.outputs or g.inputs:
        raise GadgetError("holant value is defined for closed grids only")
    return signature_matrix(g, cap=cap)[0, 0]


# ---------------------------------------------------------------------------
# Gadget operations
# ---------------------------------------------------------------------------

def compose(g1: Gadget, g2: Gadget) -> Gadget:
    """Merge the a-th stored input of ``g1`` with the a-th output of ``g2``.

    Read in the drawn cyclic numbering (inputs bottom-to-top) this merges
    the i-th input onto the (k-i+1)-th output; the stored top-to-bottom
    order turns the same rule into a plain zip.  Equality vertices that the
    new edges join are then merged (``_merge_equalities``), so bipartite
    gadgets compose into bipartite gadgets.
    """
    if g1.q != g2.q:
        raise GadgetError("domain size mismatch")
    if g1.n_inputs != g2.n_outputs:
        raise GadgetError(
            f"cannot compose: left has {g1.n_inputs} inputs, right has {g2.n_outputs} outputs"
        )
    offset = len(g1.signatures)
    shift = lambda port: (port[0] + offset, port[1])
    edges = list(g1.edges) + [(shift(a), shift(b)) for a, b in g2.edges]
    edges += [(g1.inputs[a], shift(g2.outputs[a])) for a in range(g1.n_inputs)]
    inputs = [shift(p) for p in g2.inputs]
    return _merge_equalities(g1.q, g1.signatures + g2.signatures, edges, g1.outputs, inputs)


def _merge_equalities(q, signatures, edges, outputs, inputs) -> Gadget:
    """One equality vertex per class of equality vertices joined by edges.

    Equality-equality edges, self-loops included, are united and dropped;
    each class keeps its root's vertex and numbers its surviving ports by
    original ``(vertex, port)``, which leaves function vertices as they
    were.  Every dropped edge carries its class's value, so the Holant value
    is unchanged, and a class left without ports is a degree-0 equality
    vertex, the scalar ``q``.
    """
    joins = lambda edge: all(signatures[v] is EQ for v, _ in edge)
    root = union_find(range(len(signatures)), ((e[0][0], e[1][0]) for e in edges if joins(e)))
    kept = {r: i for i, r in enumerate(sorted(set(root.values())))}
    edges = [e for e in edges if not joins(e)]
    new_port: Dict[Port, Port] = {}
    used = [0] * len(signatures)
    for v, p in sorted([port for e in edges for port in e] + list(outputs) + list(inputs)):
        new_port[(v, p)] = (kept[root[v]], used[root[v]])
        used[root[v]] += 1
    remap = new_port.__getitem__
    return Gadget(
        q,
        tuple(signatures[v] for v in kept),
        tuple((remap(a), remap(b)) for a, b in edges),
        tuple(map(remap, outputs)),
        tuple(map(remap, inputs)),
    )


def tensor(g1: Gadget, g2: Gadget) -> Gadget:
    """Disjoint union, first gadget on top: both port lists concatenate."""
    if g1.q != g2.q:
        raise GadgetError("domain size mismatch")
    offset = len(g1.signatures)
    shift = lambda port: (port[0] + offset, port[1])
    return Gadget(
        g1.q,
        tuple(g1.signatures) + tuple(g2.signatures),
        tuple(g1.edges) + tuple((shift(a), shift(b)) for a, b in g2.edges),
        tuple(g1.outputs) + tuple(shift(p) for p in g2.outputs),
        tuple(g1.inputs) + tuple(shift(p) for p in g2.inputs),
    )


def adjoint(g: Gadget) -> Gadget:
    """Horizontal reflection with entrywise conjugation: swap the stored
    output and input lists and conjugate every signature."""
    return Gadget(
        g.q,
        tuple(
            sig if isinstance(sig, _EqualitySignature) else conjugate_function(sig)
            for sig in g.signatures
        ),
        g.edges,
        g.inputs,
        g.outputs,
    )


# ---------------------------------------------------------------------------
# Stock gadgets
# ---------------------------------------------------------------------------

def empty_gadget(q: int) -> Gadget:
    return Gadget(q, (), (), (), ())


def equality_gadget(q: int, m: int, d: int) -> Gadget:
    """Single equality vertex with m outputs and d inputs."""
    if m < 0 or d < 0:
        raise GadgetError("negative dangling counts")
    outputs = tuple((0, p) for p in range(m))
    inputs = tuple((0, m + p) for p in range(d))
    return Gadget(q, (EQ,), (), outputs, inputs)


def identity_gadget(q: int) -> Gadget:
    return equality_gadget(q, 1, 1)


def function_gadget(fn: ConstraintFunction) -> Gadget:
    """All-output gadget whose i-th dangling edge is the i-th argument."""
    outputs = tuple((0, p) for p in range(fn.arity))
    return Gadget(fn.q, (fn,), (), outputs, ())


def crossing_gadget(q: int, sigma: Sequence[int]) -> Gadget:
    """Wire permutation: output i and stored input ``sigma[i]`` share a wire
    (an E_2 vertex).  ``sigma = (1, 0)`` is the elementary crossing."""
    k = len(sigma)
    if sorted(sigma) != list(range(k)):
        raise GadgetError(f"{sigma} is not a permutation")
    outputs = tuple((i, 0) for i in range(k))
    inputs: List[Port] = [(0, 0)] * k
    for i in range(k):
        inputs[sigma[i]] = (i, 1)
    return Gadget(q, (EQ,) * k, (), outputs, tuple(inputs))


# ---------------------------------------------------------------------------
# #CSP <-> Holant bridge
# ---------------------------------------------------------------------------

def csp_to_grid(inst: LabeledInstance, fset: CFSet, n_output_labels: Optional[int] = None) -> Gadget:
    """The bipartite grid of an instance: an equality vertex per variable, a
    constraint vertex per constraint, edges per occurrence in constraint
    order.  Labels 1..n_output_labels become outputs, the rest inputs, both
    in label order (so T matches pinned partition values entrywise).

    With domain weights, the equality vertex of every unlabeled variable
    also meets a unary vertex carrying the weights; labeled variables stay
    unweighted, as in ``pinned_partition``."""
    inst.validate_against(fset)
    k = inst.k
    n_out = k if n_output_labels is None else n_output_labels
    if not 0 <= n_out <= k:
        raise GadgetError(f"cannot expose {n_out} of {k} labels as outputs")
    var_vertex = {v: i for i, v in enumerate(inst.variables)}
    signatures: List[Signature] = [EQ] * len(inst.variables)
    next_port = [0] * len(inst.variables)
    edges = []
    for j, vs in inst.constraints:
        c_vertex = len(signatures)
        signatures.append(fset.functions[j])
        for pos, v in enumerate(vs):
            u = var_vertex[v]
            edges.append(((u, next_port[u]), (c_vertex, pos)))
            next_port[u] += 1
    if fset.weights is not None:
        weight = fset._weight_fn
        for v in inst.unlabeled_variables():
            u = var_vertex[v]
            edges.append(((u, next_port[u]), (len(signatures), 0)))
            next_port[u] += 1
            signatures.append(weight)
    outputs = []
    inputs = []
    for i, v in enumerate(inst.labels):
        u = var_vertex[v]
        port = (u, next_port[u])
        next_port[u] += 1
        if i < n_out:
            outputs.append(port)
        else:
            inputs.append(port)
    return Gadget(fset.q, tuple(signatures), tuple(edges), tuple(outputs), tuple(inputs))
