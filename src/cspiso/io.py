"""JSON (de)serialization for function sets, instances, and gadgets.

External format conventions: scalars are exact strings ("3/7", "1/2+2/3i"),
domain elements and function indices are 1-based, variables are names;
gadget vertex/port numbers are plain 0-based array indices.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import (
    AlgebraError,
    ConstraintFunction,
    format_scalar,
    parse_scalar,
)
from .holant import EQ, Gadget, _EqualitySignature
from .instances import CFSet, InstanceError, LabeledInstance


class FormatError(ValueError):
    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise FormatError(f"expected a list, got {type(value).__name__}", path)
    return value


def function_from_obj(obj, path: str = "$") -> ConstraintFunction:
    try:
        q = int(obj["q"])
        arity = int(obj["arity"])
        raw = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad constraint function object: {exc}", path)
    try:
        entries = tuple(parse_scalar(e) for e in _as_list(raw, path + ".entries"))
    except AlgebraError as exc:
        raise FormatError(str(exc), path + ".entries")
    try:
        return ConstraintFunction(q, arity, entries)
    except AlgebraError as exc:
        raise FormatError(str(exc), path)


def function_to_obj(fn: ConstraintFunction) -> dict:
    return {
        "q": fn.q,
        "arity": fn.arity,
        "entries": [format_scalar(e) for e in fn.entries],
    }


def cfset_from_obj(obj, path: str = "$") -> CFSet:
    if not isinstance(obj, dict) or "functions" not in obj:
        raise FormatError("missing 'functions'", path)
    functions = tuple(
        function_from_obj(f, f"{path}.functions[{i}]")
        for i, f in enumerate(_as_list(obj["functions"], path + ".functions"))
    )
    weights = None
    if obj.get("weights") is not None:
        try:
            weights = tuple(
                parse_scalar(w) for w in _as_list(obj["weights"], path + ".weights")
            )
        except AlgebraError as exc:
            raise FormatError(str(exc), path + ".weights")
    try:
        return CFSet(functions, weights)
    except InstanceError as exc:
        raise FormatError(str(exc), path)


def cfset_to_obj(fset: CFSet) -> dict:
    obj = {"functions": [function_to_obj(f) for f in fset.functions]}
    if fset.weights is not None:
        obj["weights"] = [format_scalar(w) for w in fset.weights]
    return obj


def instance_from_obj(obj, fset: Optional[CFSet] = None, path: str = "$") -> LabeledInstance:
    try:
        variables = tuple(str(v) for v in obj["variables"])
        labels = tuple(str(v) for v in obj.get("labels", []))
        raw_constraints = obj.get("constraints", [])
        k = int(obj.get("k", len(labels)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad instance object: {exc}", path)
    if k != len(labels):
        raise FormatError(f"k={obj['k']} but {len(labels)} labels", path)
    constraints = []
    for i, c in enumerate(_as_list(raw_constraints, path + ".constraints")):
        where = f"{path}.constraints[{i}]"
        try:
            j = int(c["f"]) - 1
            vs = tuple(str(v) for v in c["vars"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad constraint: {exc}", where)
        if j < 0:
            raise FormatError("function indices are 1-based", where)
        constraints.append((j, vs))
    try:
        inst = LabeledInstance(variables, tuple(constraints), labels)
        if fset is not None:
            inst.validate_against(fset)
    except InstanceError as exc:
        raise FormatError(str(exc), path)
    return inst


def _variable_names(inst: LabeledInstance) -> dict:
    """Readable, collision-free names for possibly-structured variables."""
    names = {}
    taken = set()
    for v in inst.variables:
        if isinstance(v, tuple) and v and all(isinstance(p, (str, int)) for p in v):
            base = "".join(str(p) for p in v)
        else:
            base = str(v)
        name = base
        bump = 1
        while name in taken:
            bump += 1
            name = f"{base}_{bump}"
        taken.add(name)
        names[v] = name
    return names


def instance_to_obj(inst: LabeledInstance) -> dict:
    names = _variable_names(inst)
    return {
        "k": inst.k,
        "variables": [names[v] for v in inst.variables],
        "labels": [names[v] for v in inst.labels],
        "constraints": [
            {"f": j + 1, "vars": [names[v] for v in vs]} for j, vs in inst.constraints
        ],
    }


def gadget_from_obj(obj, fset: Optional[CFSet] = None, path: str = "$") -> Gadget:
    try:
        q = int(obj["q"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad gadget object: {exc}", path)
    signatures = []
    for i, v in enumerate(_as_list(obj.get("vertices", []), path + ".vertices")):
        where = f"{path}.vertices[{i}]"
        sig = v.get("sig") if isinstance(v, dict) else v
        if sig == "eq":
            signatures.append(EQ)
        elif isinstance(sig, dict) and "f" in sig:
            if fset is None:
                raise FormatError("function reference needs a --functions file", where)
            try:
                j = int(sig["f"]) - 1
            except (TypeError, ValueError) as exc:
                raise FormatError(f"bad function reference: {exc}", where)
            if not 0 <= j < fset.t:
                raise FormatError(f"function index {j + 1} out of range", where)
            signatures.append(fset.functions[j])
        elif isinstance(sig, dict):
            signatures.append(function_from_obj(sig, where))
        else:
            raise FormatError(f"bad signature {sig!r}", where)
    as_port = lambda p: (int(p[0]), int(p[1]))
    try:
        edges = tuple((as_port(a), as_port(b)) for a, b in obj.get("edges", []))
        outputs = tuple(as_port(p) for p in obj.get("outputs", []))
        inputs = tuple(as_port(p) for p in obj.get("inputs", []))
        return Gadget(q, tuple(signatures), edges, outputs, inputs)
    except (TypeError, ValueError, IndexError) as exc:
        raise FormatError(f"bad gadget wiring: {exc}", path)


def gadget_to_obj(g: Gadget) -> dict:
    vertices = []
    for sig in g.signatures:
        if isinstance(sig, _EqualitySignature):
            vertices.append({"sig": "eq"})
        else:
            vertices.append({"sig": function_to_obj(sig)})
    return {
        "q": g.q,
        "vertices": vertices,
        "edges": [[list(a), list(b)] for a, b in g.edges],
        "outputs": [list(p) for p in g.outputs],
        "inputs": [list(p) for p in g.inputs],
    }


def parse_pin(text: str, k: int, q: int):
    """Parse ``"1=2,2=1"`` into a 0-based pin tuple, total on [k]."""
    values = {}
    if text.strip():
        for part in text.split(","):
            try:
                label, value = part.split("=")
                label, value = int(label), int(value)
            except ValueError:
                raise FormatError(f"bad pin assignment {part!r}")
            if not 1 <= label <= k:
                raise FormatError(f"label {label} out of range 1..{k}")
            if not 1 <= value <= q:
                raise FormatError(f"value {value} out of range 1..{q}")
            if label in values:
                raise FormatError(f"label {label} pinned twice")
            values[label] = value - 1
    missing = [i for i in range(1, k + 1) if i not in values]
    if missing:
        raise FormatError(f"pin map must cover all labels; missing {missing}")
    return tuple(values[i] for i in range(1, k + 1))


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
