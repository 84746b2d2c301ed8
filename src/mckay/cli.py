"""Command line entry point: `mckay <command> [flags] <file>`.

Commands read a group description file and emit a deterministic JSON report
(or DOT text for diagrams).  Rationals are serialized as "p/q" strings.

Exit codes: 0 success, 2 input/parse error, 3 requirement violation,
4 resource cap exceeded (closure size, cyclotomic field order, or the number
of monomials a `ram` probe degree enumerates), 5 internal invariant failure
(always a bug).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import age as age_mod
from . import quiver, toric, valuation
from .errors import InternalInvariantError, McKayError, RequirementError
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


def _report(block: dict, body: dict) -> str:
    report = {"schema_version": SCHEMA_VERSION, "group": block, **body}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _group_file(args) -> GroupFile:
    gf = parse_group_file(args.file)
    return gf.inverted() if args.choice == "inverse" else gf


def _load(args) -> tuple[GroupFile, MatrixGroup]:
    gf = _group_file(args)
    return gf, gf.close(cap=args.max_order)


def cmd_info(args) -> str:
    _, group = _load(args)
    return _report(_group_block(group), {})


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
    return _report(_group_block(group),
                   {"classes": _class_entries(group, table)})


def cmd_betti(args) -> str:
    _, group = _load(args)
    if group.dimension != 3:
        raise RequirementError(
            f"betti requires dimension 3, got {group.dimension}"
        )
    table = age_mod.grade(group)
    prediction = age_mod.betti_prediction(table)
    pairing = age_mod.inverse_bijection(table)
    label = lambda k: group.element_name(group.classes[k].representative)
    return _report(_group_block(group), {
        "h0": prediction.h0,
        "h2": prediction.h2,
        "h4": prediction.h4,
        "euler": prediction.euler,
        "gamma1_zero": [label(k) for k in table.gamma1_zero],
        "gamma2": [label(k) for k in sorted(table.buckets.get(2, []))],
        "gamma1_zero_to_gamma2": {
            label(k): label(v) for k, v in sorted(pairing.items())
        },
        "fix_junior_check": age_mod.fix_junior_check(table),
    })


def _point(p) -> str:
    return ",".join(str(c) for c in p)


def cmd_toric(args) -> str:
    gf = _group_file(args)
    lattice = toric.build_lattice(gf.to_spec(), cap=args.max_order)
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
            "condition_i_variant": "coefficients >= 1",
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
    # the box points are the elements of the (abelian) diagonal group
    return _report({
        "dimension": lattice.n,
        "order": lattice.index,
        "exponent": lattice.denominator,
        "in_sl": lattice.is_sl,
        "class_count": lattice.index,
        "field_order": gf.cyclotomic_order,
    }, body)


def cmd_diagram(args) -> str:
    _, group = _load(args)
    graph = quiver.fold(group)
    if args.format == "dot":
        return quiver.to_dot(graph) + "\n"
    return _report(_group_block(group), quiver.to_json_dict(graph))


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
    body = {}
    if gf.format == "diagonal":
        # first, so that a probe degree over the limit is refused at once
        probe = args.probe if args.probe else valuation.default_probe_degree(group)
        fingerprint = valuation.valuation_fingerprint(
            gf.to_spec(), group, rep, probe)
        body["probe_degree"] = probe
        body["fingerprint"] = {
            ",".join(map(str, m)): (v if isinstance(v, int) else _frac(v))
            for m, v in fingerprint.items()
        }
    by_generator = {}  # one characteristic polynomial per walk
    v = valuation.monomial_valuation(group, rep, by_generator)
    expr = v.expression
    stab = valuation.stab_group(group, v)
    ram = valuation.ram_group(group, v, by_generator)
    a_f = sum(expr.exponents) - 1
    a_e = valuation.quotient_discrepancy(a_f, ram.degree)
    body.update({
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
    })
    return _report(_group_block(group), body)


def _positive_int(text: str) -> int:
    """A `--max-order` value: an int of at least 1, else argparse's exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckay",
        description="Age gradings, crepant divisor counts, toric resolutions "
        "and resolution graphs for finite subgroups of SL(n, C).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="group description file")
        p.add_argument("--max-order", type=_positive_int, default=DEFAULT_CAP,
                       help="closure cap on the number of elements, at least "
                       "1 (for toric commands, on the overlattice's box points)")
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
                       "fingerprint (diagonal groups; default the group "
                       "exponent, lowered to fit the monomial limit); a "
                       "degree enumerating more than "
                       f"{valuation.MAX_PROBE_MONOMIALS} monomials is exit 4")
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


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built once per process, on the first call
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        sys.stdout.write(_COMMANDS[args.command](args))
    except (McKayError, OSError) as err:
        code = getattr(err, "exit_code", 2)  # an OSError is exit 2
        print(f"{'internal error' if code == 5 else 'error'}: {err}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
