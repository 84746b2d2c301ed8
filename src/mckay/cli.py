"""Command line entry point: `mckay <command> [flags] <file>`.

Commands read a group description file and emit a deterministic JSON report
(or DOT text for diagrams).  Rationals are serialized as "p/q" strings.

Exit codes: 0 success, 2 input/parse error, 3 requirement violation,
4 resource cap exceeded, 5 internal invariant failure (always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import age as age_mod
from . import quiver, toric, valuation
from .errors import (
    ClosureCapError,
    GroupFileError,
    InternalInvariantError,
    RequirementError,
)
from .groupfile import GroupFile, parse_group_file
from .matgroup import DEFAULT_CAP, MatrixGroup

SCHEMA_VERSION = 1


def _frac(x) -> str:
    return str(Fraction(x))


def _group_block(group: MatrixGroup) -> dict:
    return {
        "dimension": group.dimension,
        "order": len(group.elements),
        "exponent": group.exponent,
        "in_sl": group.in_sl,
        "class_count": len(group.classes),
        "field_order": group.field.order,
    }


def _report(group: MatrixGroup, body: dict) -> dict:
    out = {"schema_version": SCHEMA_VERSION, "group": _group_block(group)}
    out.update(body)
    return out


def _emit(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(args) -> tuple[GroupFile, MatrixGroup]:
    gf = parse_group_file(args.file)
    group = gf.close(cap=args.max_order, invert=args.choice == "inverse")
    return gf, group


def cmd_info(args) -> str:
    _, group = _load(args)
    return _emit(_report(group, {}))


def _class_entries(group: MatrixGroup, table) -> list[dict]:
    entries = []
    for grading in table.classes:
        expr = grading.expression
        entries.append({
            "id": grading.class_id,
            "representative": group.element_name(grading.representative),
            "size": grading.size,
            "element_order": expr.r,
            "exponents": list(expr.exponents),
            "age": grading.age,
            "fix_dim": expr.fix_dim,
            "primitive": expr.primitive,
            "fractional_expression": str(expr),
            "elementary_symmetric": [
                _frac(v) for v in age_mod.elementary_symmetric_exponents(expr)
            ],
        })
    return entries


def cmd_classes(args) -> str:
    _, group = _load(args)
    table = age_mod.grade(group)
    return _emit(_report(group, {"classes": _class_entries(group, table)}))


def cmd_betti(args) -> str:
    _, group = _load(args)
    if group.dimension != 3:
        raise RequirementError(
            f"betti requires dimension 3, got {group.dimension}"
        )
    table = age_mod.grade(group)
    prediction = age_mod.betti_prediction(group, table)
    pairing = age_mod.inverse_bijection(group, table)
    label = lambda k: group.element_name(group.classes[k].representative)
    return _emit(_report(group, {
        "h0": prediction.h0,
        "h2": prediction.h2,
        "h4": prediction.h4,
        "euler": prediction.euler,
        "gamma1_zero": [label(k) for k in table.gamma1_zero],
        "gamma2": [label(k) for k in sorted(table.buckets.get(2, []))],
        "gamma1_zero_to_gamma2": {
            label(k): label(v) for k, v in sorted(pairing.items())
        },
        "fix_junior_check": age_mod.fix_junior_check(group, table),
    }))


def _toric_lattice(args) -> tuple[toric.OverLattice, GroupFile]:
    gf = parse_group_file(args.file)
    spec = gf.to_spec()
    if args.choice == "inverse":
        spec = toric.DiagonalGroupSpec(spec.n, tuple(
            (r, tuple((r - a) % r for a in exps)) for r, exps in spec.generators
        ))
    return toric.build_lattice(spec), gf


def _point(p) -> str:
    return ",".join(str(c) for c in p)


def cmd_toric(args) -> str:
    lattice, gf = _toric_lattice(args)
    group = gf.close(cap=args.max_order, invert=args.choice == "inverse")
    if args.action == "juniors":
        body = {"junior_points": [_point(p) for p in toric.junior_points(lattice)],
                "crepant_divisor_count": toric.crepant_divisor_count(lattice)}
    elif args.action == "box":
        body = {"box_points": [
            {"point": _point(bp.coords), "age": _frac(bp.age),
             "primitive": bp.primitive}
            for bp in lattice.box_points
        ], "index": lattice.index}
    elif args.action == "resolve":
        tri = toric.resolve(lattice)
        body = {
            "vertices": [_point(v) for v in tri.vertices],
            "simplices": [list(s) for s in tri.simplices],
            "adjacency": [list(e) for e in tri.adjacency],
            "crepant_divisor_count": toric.crepant_divisor_count(lattice),
        }
    else:  # check
        witness = toric.condition_i(lattice)
        body = {
            "condition_i": witness.holds,
            "condition_i_variant": witness.variant,
            "condition_i_witness": _point(witness.witness) if witness.witness else None,
            "junior_count": toric.crepant_divisor_count(lattice),
        }
        if lattice.n == 4:
            body["gamma2_hyperplane_count"] = toric.gamma2_hyperplane_count(lattice)
        if lattice.n in (2, 3):
            tri = toric.resolve(lattice)
            body["condition_ii"] = True
            body["simplex_count"] = len(tri.simplices)
            if not witness.holds:
                raise InternalInvariantError(
                    "resolution exists but condition (i) failed"
                )
    return _emit(_report(group, body))


def cmd_diagram(args) -> str:
    _, group = _load(args)
    graph = quiver.fold(group)
    if args.format == "dot":
        return quiver.to_dot(graph) + "\n"
    return _emit(_report(group, quiver.to_json_dict(graph)))


def cmd_ram(args) -> str:
    gf, group = _load(args)
    if not 0 <= args.class_id < len(group.classes):
        raise RequirementError(
            f"class id {args.class_id} out of range "
            f"[0, {len(group.classes)})"
        )
    rep = group.classes[args.class_id].representative
    if rep == 0:
        raise RequirementError("the identity class carries no monomial valuation")
    v = valuation.monomial_valuation(group, rep)
    expr = v.decomposition.expression
    stab = valuation.stab_group(group, v)
    ram = valuation.ram_group(group, v)
    a_f = sum(expr.exponents) - 1
    a_e = valuation.quotient_discrepancy(a_f, ram.degree)
    body = {
        "class_id": args.class_id,
        "representative": group.element_name(rep),
        "fractional_expression": str(expr),
        "weights": list(v.weights),
        "weights_primitivized": tuple(v.weights) != expr.exponents,
        "stab": [group.element_name(i) for i in stab],
        "stab_size": len(stab),
        "ram": [group.element_name(i) for i in ram.members],
        "ramification_degree": ram.degree,
        "a_F": a_f,
        "a_E": _frac(a_e),
        "experimental": expr.age >= 2,
    }
    if gf.format == "diagonal":
        probe = args.probe if args.probe else group.exponent
        fingerprint = valuation.valuation_fingerprint(group, rep, probe)
        body["probe_degree"] = probe
        body["fingerprint"] = {
            ",".join(map(str, m)): (v if isinstance(v, int) else _frac(v))
            for m, v in sorted(fingerprint.items())
        }
    return _emit(_report(group, body))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Age gradings, crepant divisor counts, toric resolutions "
        "and resolution graphs for finite subgroups of SL(n, C).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="group description file")
        p.add_argument("--max-order", type=int, default=DEFAULT_CAP,
                       help="closure cap on the number of elements")
        p.add_argument("--choice", choices=("standard", "inverse"),
                       default="standard",
                       help="'inverse' inverts every generator, realizing the "
                       "opposite identification of roots of unity")

    common(sub.add_parser("info", help="order, exponent, SL flag, class count"))
    common(sub.add_parser("classes", help="graded conjugacy class table"))
    common(sub.add_parser("betti", help="predicted Betti/Euler numbers (n = 3)"))

    p_toric = sub.add_parser("toric", help="overlattice computations "
                             "(diagonal format only)")
    p_toric.add_argument("action", choices=("juniors", "box", "resolve", "check"))
    common(p_toric)

    p_diag = sub.add_parser("diagram", help="folded resolution graph (n = 2)")
    p_diag.add_argument("--format", choices=("dot", "json"), default="dot")
    common(p_diag)

    p_ram = sub.add_parser("ram", help="stabilizer/ramification groups of the "
                           "monomial valuation of a class")
    p_ram.add_argument("--class", dest="class_id", type=int, required=True,
                       help="conjugacy class id (see `classes`)")
    p_ram.add_argument("--probe", type=int, default=0,
                       help="probe degree for the invariant-monomial "
                       "fingerprint (diagonal groups)")
    common(p_ram)
    return parser


_COMMANDS = {
    "info": cmd_info,
    "classes": cmd_classes,
    "betti": cmd_betti,
    "toric": cmd_toric,
    "diagram": cmd_diagram,
    "ram": cmd_ram,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sys.stdout.write(_COMMANDS[args.command](args))
    except GroupFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError,) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RequirementError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except ClosureCapError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except InternalInvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
