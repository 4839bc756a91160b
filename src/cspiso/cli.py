"""Command-line entry point.

Exit codes: 0 success / positive result, 1 negative result (not isomorphic,
witness found), 2 usage or input error, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import format_scalar
from .holant import signature_matrix
from .instances import InstanceError
from .interpolation import DEFAULT_MAX_PROBES, DistinguishInconclusive, distinguish
from .intertwiners import PermutationGroup, gadget_span, is_intertwiner
from .io import (
    FormatError,
    cfset_from_obj,
    dump_json,
    gadget_from_obj,
    instance_from_obj,
    instance_to_obj,
    load_json,
    parse_pin,
)
from .partition import TermCapExceeded, partition_function, pinned_partition
from .structure import automorphisms, isomorphisms, twin_classes
from . import expressions, selftest as selftest_mod


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(dump_json(payload))
    else:
        for line in text_lines:
            print(line)


def _perm_str(sigma) -> str:
    return "(" + " ".join(str(x + 1) for x in sigma) + ")"


def _cmd_zeval(args) -> int:
    fset = cfset_from_obj(load_json(args.functions))
    inst = instance_from_obj(load_json(args.instance), fset)
    if args.pin is not None:
        psi = parse_pin(args.pin, inst.k, fset.q)
        value = pinned_partition(fset, inst, psi, cap=args.term_cap)
    else:
        value = partition_function(fset, inst, cap=args.term_cap)
    _emit(args, {"value": format_scalar(value)}, [format_scalar(value)])
    return 0


def _cmd_iso(args) -> int:
    fset = cfset_from_obj(load_json(args.f))
    gset = cfset_from_obj(load_json(args.g))
    isos = tuple(isomorphisms(fset, gset))
    payload = {"isomorphisms": [_perm_str(s) for s in isos]}
    if isos:
        _emit(args, payload, [_perm_str(s) for s in isos])
        return 0
    _emit(args, payload, ["none"])
    return 1


def _cmd_twins(args) -> int:
    fset = cfset_from_obj(load_json(args.f))
    classes = twin_classes(fset)
    rendered = [[i + 1 for i in cls] for cls in classes]
    _emit(
        args,
        {"classes": rendered},
        [" ".join("{" + ",".join(map(str, cls)) + "}" for cls in rendered)],
    )
    return 0


def _cmd_distinguish(args) -> int:
    fset = cfset_from_obj(load_json(args.f))
    gset = cfset_from_obj(load_json(args.g))
    phi = parse_pin(args.pin_f, _pin_len(args.pin_f), fset.q) if args.pin_f else ()
    psi = parse_pin(args.pin_g, _pin_len(args.pin_g), gset.q) if args.pin_g else ()
    result = distinguish(fset, gset, phi, psi, max_probes=args.max_probes)
    if result.sigma is not None:
        note = " (pins matched up to twins)" if result.twins_adjusted else ""
        _emit(
            args,
            {"isomorphic": True, "sigma": _perm_str(result.sigma),
             "twins_adjusted": result.twins_adjusted},
            [f"isomorphic via sigma={_perm_str(result.sigma)}{note}"],
        )
        return 0
    payload = {
        "isomorphic": False,
        "witness": instance_to_obj(result.witness),
        "z_f": format_scalar(result.z_f),
        "z_g": format_scalar(result.z_g),
    }
    _emit(
        args,
        payload,
        [
            "not isomorphic; witness instance:",
            dump_json(instance_to_obj(result.witness)),
            f"Z_f = {format_scalar(result.z_f)}",
            f"Z_g = {format_scalar(result.z_g)}",
        ],
    )
    return 1


def _pin_len(text: str) -> int:
    return 0 if not text.strip() else len(text.split(","))


def _cmd_sigmat(args) -> int:
    fset = cfset_from_obj(load_json(args.functions)) if args.functions else None
    gadget = gadget_from_obj(load_json(args.gadget), fset)
    matrix = signature_matrix(gadget, cap=args.term_cap)
    rendered = [[format_scalar(x) for x in row] for row in matrix.data]
    _emit(args, {"rows": matrix.rows, "cols": matrix.cols, "matrix": rendered},
          [" ".join(row) for row in rendered])
    return 0


def _cmd_decompose(args) -> int:
    fset = cfset_from_obj(load_json(args.functions))
    gadget = gadget_from_obj(load_json(args.gadget), fset)
    expr = expressions.decompose(gadget, fset)
    wanted = signature_matrix(gadget, cap=args.term_cap)
    got = expressions.evaluate_expression(expr, fset.q, fset.functions)
    match = wanted == got
    _emit(
        args,
        {"expression": repr(expr), "matches": match},
        [repr(expr), f"signature matrix match: {'yes' if match else 'NO'}"],
    )
    return 0 if match else 1


def _cmd_intertwiners(args) -> int:
    fset = cfset_from_obj(load_json(args.f))
    group = PermutationGroup.from_elements(fset.q, automorphisms(fset))
    span = gadget_span(fset, args.k, args.l, args.span_bound, aut_group=group)
    members = all(
        is_intertwiner(m, group, args.k, args.l) for m in span.basis
    )
    lines = [
        f"orbit basis dimension: {span.orbit_dimension}",
        f"span dimension by size: {span.dimension_by_size}",
        f"span saturated by: {span.saturated_by}",
        f"span inside intertwiner space: {'yes' if members else 'NO'}",
        f"span equals orbit space: {'yes' if span.certified_equal else 'not certified'}",
    ]
    _emit(
        args,
        {
            "orbit_dimension": span.orbit_dimension,
            "span_dimensions": span.dimension_by_size,
            "saturated_by": span.saturated_by,
            "span_contained": members,
            "certified_equal": span.certified_equal,
        },
        lines,
    )
    return 0


def _cmd_selftest(args) -> int:
    report = [(name, not failures, detail) for name, failures, detail in selftest_mod.run()]
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else "")
             for name, ok, detail in report]
    passed = sum(ok for _, ok, _ in report)
    lines.append(f"{passed}/{len(report)} suites passed")
    ok_all = passed == len(report)
    _emit(args, {"results": {name: ok for name, ok, _ in report}, "ok": ok_all}, lines)
    return 0 if ok_all else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspiso",
        description="Exact #CSP partition functions, isomorphism witnesses, "
        "and Holant gadget calculus.",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--term-cap", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeval", help="evaluate a partition function")
    p.add_argument("--functions", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--pin", default=None)

    p = sub.add_parser("iso", help="all isomorphisms, by pruned backtracking search")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = sub.add_parser("twins", help="twin classes of a function set")
    p.add_argument("--f", required=True)

    p = sub.add_parser("distinguish", help="isomorphism or witness instance")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--pin-f", default=None)
    p.add_argument("--pin-g", default=None)
    p.add_argument("--max-probes", type=int, default=DEFAULT_MAX_PROBES)

    p = sub.add_parser("sigmat", help="signature matrix of a gadget")
    p.add_argument("--gadget", required=True)
    p.add_argument("--functions", default=None)

    p = sub.add_parser("decompose", help="generator decomposition of a gadget")
    p.add_argument("--gadget", required=True)
    p.add_argument("--functions", required=True)

    p = sub.add_parser("intertwiners", help="orbit basis vs gadget span")
    p.add_argument("--f", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--span-bound", type=int, default=6)

    sub.add_parser("selftest", help="run acceptance requirements 2-11")
    return parser


_COMMANDS = {
    "zeval": _cmd_zeval,
    "iso": _cmd_iso,
    "twins": _cmd_twins,
    "distinguish": _cmd_distinguish,
    "sigmat": _cmd_sigmat,
    "decompose": _cmd_decompose,
    "intertwiners": _cmd_intertwiners,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (FormatError, InstanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TermCapExceeded, DistinguishInconclusive) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
