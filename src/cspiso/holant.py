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
degree, a degree-0 equality vertex contributes the scalar ``q``, and
composition contracts equality-equality edges, which never changes the
Holant value.

Evaluation
----------
``signature_matrix`` unites the edge slots of every equality vertex into
classes and sums over the values of the free classes with
``partition._sum_product``, the depth-first kernel behind
``pinned_partition``, which skips every subtree below a zero partial
product; by the #CSP-Holant bridge (``csp_to_grid``) the two compute one
sum.  Its term cap, ``partition.DEFAULT_TERM_CAP``, counts every assignment,
and it raises ``partition.TermCapExceeded``.
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
from .partition import DEFAULT_TERM_CAP, TermCapExceeded, _sum_product


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

    def degree(self, v: int) -> int:
        deg = 0
        for (a, b) in self.edges:
            deg += (a[0] == v) + (b[0] == v)
        for (w, _) in self.outputs + self.inputs:
            deg += w == v
        return deg

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
    cap = DEFAULT_TERM_CAP if cap is None else cap
    if cap < 0:
        raise ValueError(f"term cap must be at least 0, got {cap}")
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

    terms = q ** (k + l) * q ** (len(number) - n_fixed)
    if terms > cap:
        raise TermCapExceeded(terms, cap)

    factors = [
        (fn.entries, tuple(number[root[s]] for s in slots)) for fn, slots in fn_vertices
    ]
    port_class = [number[root[n_edges + i]] for i in range(k + l)]
    scalar = q ** n_free_eq
    values = [0] * len(number)
    flat: List[Scalar] = []
    for xy in all_tuples(q, k + l):  # outputs then inputs: row-major order
        pins: Dict[int, int] = {}
        if any(pins.setdefault(c, x) != x for c, x in zip(port_class, xy)):
            flat.append(0)
            continue
        for c, x in pins.items():
            values[c] = x
        flat.append(_sum_product(q, factors, values, n_fixed, scalar))
    cols = q ** l
    return Matrix(tuple(tuple(flat[i:i + cols]) for i in range(0, len(flat), cols)))


def holant_value(g: Gadget, cap: Optional[int] = None) -> Scalar:
    if g.outputs or g.inputs:
        raise GadgetError("holant value is defined for closed grids only")
    return signature_matrix(g, cap=cap)[0, 0]


# ---------------------------------------------------------------------------
# Gadget operations
# ---------------------------------------------------------------------------

def _remap(port_map: Dict[Port, Port], port: Port) -> Port:
    return port_map.get(port, port)


def _contract_equalities(
    q: int,
    signatures: List[Signature],
    edges: List[Tuple[Port, Port]],
    outputs: List[Port],
    inputs: List[Port],
) -> Gadget:
    """Contract equality-equality edges and drop equality self-loops.

    Neither step changes the Holant value: merging two equality vertices
    along an edge enforces the same all-equal constraint, and a self-loop on
    an equality vertex either fixes nothing new (degree > 2 remains) or
    leaves a free loop worth ``q`` (the degree-0 equality scalar).
    """

    def is_eq(v: int) -> bool:
        return isinstance(signatures[v], _EqualitySignature)

    changed = True
    while changed:
        changed = False
        for idx, (a, b) in enumerate(edges):
            u, v = a[0], b[0]
            if u == v and is_eq(u):
                # equality self-loop: remove the two ports
                del edges[idx]
                port_map = _loop_removal_map(a, b, edges, outputs, inputs)
                edges[:] = [(_remap(port_map, x), _remap(port_map, y)) for x, y in edges]
                outputs[:] = [_remap(port_map, p) for p in outputs]
                inputs[:] = [_remap(port_map, p) for p in inputs]
                changed = True
                break
            if u != v and is_eq(u) and is_eq(v):
                del edges[idx]
                port_map, vertex_map = _merge_map(u, a[1], v, b[1], len(signatures), edges, outputs, inputs)
                edges[:] = [(port_map[x], port_map[y]) for x, y in edges]
                outputs[:] = [port_map[p] for p in outputs]
                inputs[:] = [port_map[p] for p in inputs]
                signatures[:] = [signatures[w] for w in vertex_map]
                changed = True
                break
    return Gadget(q, tuple(signatures), tuple(edges), tuple(outputs), tuple(inputs))


def _loop_removal_map(a: Port, b: Port, edges, outputs, inputs) -> Dict[Port, Port]:
    # The loop edge is already deleted; compact the surviving ports of its vertex.
    v = a[0]
    used_ports = sorted(p for (w, p) in _all_ports(edges, outputs, inputs) if w == v)
    return {(v, p): (v, rank) for rank, p in enumerate(used_ports)}


def _all_ports(edges, outputs, inputs):
    for (a, b) in edges:
        yield a
        yield b
    yield from outputs
    yield from inputs


def _merge_map(u: int, pu: int, v: int, pv: int, n_vertices: int, edges, outputs, inputs):
    """Merge vertex v into u; the shared edge must already be deleted."""
    u_ports = sorted(p for (w, p) in _all_ports(edges, outputs, inputs) if w == u)
    v_ports = sorted(p for (w, p) in _all_ports(edges, outputs, inputs) if w == v)
    vertex_map = [w for w in range(n_vertices) if w != v]
    new_index = {w: i for i, w in enumerate(vertex_map)}
    port_map: Dict[Port, Port] = {}
    for rank, p in enumerate(u_ports):
        port_map[(u, p)] = (new_index[u], rank)
    offset = len(u_ports)
    for rank, p in enumerate(v_ports):
        port_map[(v, p)] = (new_index[u], offset + rank)
    for w in range(n_vertices):
        if w in (u, v):
            continue
        for p in sorted(p for (x, p) in _all_ports(edges, outputs, inputs) if x == w):
            port_map[(w, p)] = (new_index[w], p)
    return port_map, vertex_map


def compose(g1: Gadget, g2: Gadget, contract: bool = True) -> Gadget:
    """Merge the a-th stored input of ``g1`` with the a-th output of ``g2``.

    Read in the drawn cyclic numbering (inputs bottom-to-top) this merges
    the i-th input onto the (k-i+1)-th output; the stored top-to-bottom
    order turns the same rule into a plain zip.
    """
    if g1.q != g2.q:
        raise GadgetError("domain size mismatch")
    if g1.n_inputs != g2.n_outputs:
        raise GadgetError(
            f"cannot compose: left has {g1.n_inputs} inputs, right has {g2.n_outputs} outputs"
        )
    offset = len(g1.signatures)
    signatures = list(g1.signatures) + list(g2.signatures)
    shift = lambda port: (port[0] + offset, port[1])
    edges = list(g1.edges) + [(shift(a), shift(b)) for a, b in g2.edges]
    edges += [
        (g1.inputs[a], shift(g2.outputs[a])) for a in range(g1.n_inputs)
    ]
    outputs = list(g1.outputs)
    inputs = [shift(p) for p in g2.inputs]
    if not contract:
        return Gadget(g1.q, tuple(signatures), tuple(edges), tuple(outputs), tuple(inputs))
    return _contract_equalities(g1.q, signatures, edges, outputs, inputs)


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
# Wire normalization (structural comparisons only)
# ---------------------------------------------------------------------------

def strip_wire_vertices(g: Gadget) -> Gadget:
    """Remove degree-2 equality vertices by splicing their two attachments.

    Value-preserving; used before structural equality checks.  A wire whose
    both ends dangle (the bare identity) is kept, as a gadget needs the
    vertex.
    """
    current = g
    while True:
        sources: Dict[Port, Tuple[str, int]] = {}
        for e_idx, (a, b) in enumerate(current.edges):
            sources[a] = ("e", e_idx)
            sources[b] = ("e", e_idx)
        target = None
        for v, sig in enumerate(current.signatures):
            if not isinstance(sig, _EqualitySignature):
                continue
            ports = [(v, 0), (v, 1)]
            if current.degree(v) != 2:
                continue
            attach = [sources.get(p) for p in ports]
            if all(a is not None and a[0] == "e" for a in attach):
                e1, e2 = attach[0][1], attach[1][1]
                if e1 == e2:
                    continue  # loop through the wire vertex; leave it
                target = (v, "splice", e1, e2)
                break
            if any(a is not None and a[0] == "e" for a in attach):
                target = (v, "pull", None, None)
                break
        if target is None:
            return current
        v = target[0]
        if target[1] == "splice":
            _, _, e1, e2 = target
            other1 = _other_end(current.edges[e1], v)
            other2 = _other_end(current.edges[e2], v)
            edges = [e for i, e in enumerate(current.edges) if i not in (e1, e2)]
            edges.append((other1, other2))
        else:
            # one edge, one dangling: move the dangling to the far end
            (e_idx,) = [i for i, (a, b) in enumerate(current.edges) if a[0] == v or b[0] == v]
            far = _other_end(current.edges[e_idx], v)
            edges = [e for i, e in enumerate(current.edges) if i != e_idx]
            dangling_port = next(p for p in current.outputs + current.inputs if p[0] == v)
            outputs = [far if p == dangling_port else p for p in current.outputs]
            inputs = [far if p == dangling_port else p for p in current.inputs]
            current = _drop_vertex(current.q, list(current.signatures), edges, outputs, inputs, v)
            continue
        current = _drop_vertex(
            current.q, list(current.signatures), edges, list(current.outputs), list(current.inputs), v
        )


def _other_end(edge: Tuple[Port, Port], v: int) -> Port:
    a, b = edge
    return b if a[0] == v else a


def _drop_vertex(q, signatures, edges, outputs, inputs, v) -> Gadget:
    vertex_map = [w for w in range(len(signatures)) if w != v]
    new_index = {w: i for i, w in enumerate(vertex_map)}
    remap = lambda p: (new_index[p[0]], p[1])
    return Gadget(
        q,
        tuple(signatures[w] for w in vertex_map),
        tuple((remap(a), remap(b)) for a, b in edges),
        tuple(remap(p) for p in outputs),
        tuple(remap(p) for p in inputs),
    )


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
        weight = ConstraintFunction(fset.q, 1, fset.weights)
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
