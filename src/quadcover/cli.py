"""Command-line front end: reports for every pipeline stage.

Subcommands cover enumeration, orbit classification, invariants, sheaf
tables, homology, cover equations, the canonical-map analysis, and a
combined reproduction report.  With --verify, computed results are
compared against the embedded reference values and any drift makes the
exit status nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import golden
from .canonical import degree_certificate
from .covers import SixTuple, admissible_array
from .gf import require_prime
from .picard import BASIS_LABELS, CURVE_LABELS, h1_complement, intersection_matrix
from .sheaves import (
    coeffs,
    cover_equations,
    invariants,
    pg_values,
    ram_curve_numbers,
    sheaf_table,
)
from .symmetry import group_closure, orbit_partition


def _reference_label(t: SixTuple) -> str | None:
    for name, res in golden.REFERENCE_TUPLES.items():
        if t.residues == res:
            return name
    return None


def _md_table(headers, rows) -> str:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(out)


def _csv_lines(headers, rows) -> str:
    out = [",".join(headers)]
    out.extend(",".join(str(x) for x in row) for row in rows)
    return "\n".join(out)


# --- per-command builders --------------------------------------------------


def _cmd_enumerate(args):
    rows = admissible_array(args.modulus)
    data = {"modulus": args.modulus, "count": int(len(rows))}
    if args.dump:
        data["tuples"] = [[int(x) for x in row] for row in rows]
    table_rows = [[",".join(str(int(x)) for x in row)] for row in rows] if args.dump else []
    md = [f"# Admissible six-tuples (mod {args.modulus})", "", f"count: {len(rows)}"]
    if args.dump:
        md += [""] + [r[0] for r in table_rows]
    csv = _csv_lines(["tuple"], table_rows) if args.dump else f"count\n{len(rows)}"
    checks = []
    if args.modulus == 5 and len(rows) != golden.ADMISSIBLE_COUNT:
        checks.append(f"count {len(rows)} != {golden.ADMISSIBLE_COUNT}")
    return data, "\n".join(md), csv, checks


def _cmd_orbits(args):
    n = args.modulus
    part = orbit_partition(n)
    rows_arr = admissible_array(n)
    entries = []
    for i, orb in enumerate(part.orbits):
        entry = {
            "id": i,
            "size": orb.size,
            "stabilizer_order": orb.stabilizer_order,
            "representative": orb.representative.format(),
            "reference_label": None,
        }
        if n == 5:
            pg = int(pg_values(rows_arr[orb.member_indices[:1]], n)[0])
            entry["pg"] = pg
            entry["q"] = pg - 4
        entries.append(entry)
    if n == 5:
        for name, res in golden.REFERENCE_TUPLES.items():
            oid = part.orbit_of(SixTuple.from_residues(res), n)
            entries[oid]["reference_label"] = name
            entries[oid]["reference_tuple"] = SixTuple.from_residues(res).format()
    data = {"modulus": n, "orbit_count": len(entries), "orbits": entries}
    headers = ["id", "size", "stabilizer", "lex representative", "label"]
    table = [
        [e["id"], e["size"], e["stabilizer_order"], e["representative"], e["reference_label"] or "-"]
        for e in entries
    ]
    md = f"# Symmetry orbits (mod {n})\n\n" + _md_table(headers, table)
    csv = _csv_lines(headers, table)
    checks = []
    if n == 5:
        sizes = Counter(e["size"] for e in entries)
        if sizes != Counter(golden.ORBIT_SIZES):
            checks.append(f"orbit sizes {sorted(sizes.elements())} != {sorted(golden.ORBIT_SIZES)}")
        labels = [e["reference_label"] for e in entries]
        if sorted(x for x in labels if x) != ["U1", "U2", "U3", "U4"]:
            checks.append("reference tuples do not fall in four distinct orbits")
    return data, md, csv, checks


def _cmd_invariants(args):
    inv = invariants(args.tuple, args.modulus)
    data = {"k2": inv.k2, "chi": inv.chi, "pg": inv.pg, "q": inv.q}
    md = _md_table(["k2", "chi", "pg", "q"], [[inv.k2, inv.chi, inv.pg, inv.q]])
    csv = _csv_lines(["k2", "chi", "pg", "q"], [[inv.k2, inv.chi, inv.pg, inv.q]])
    checks = []
    label = _reference_label(args.tuple)
    if label is None:
        checks.append("no reference invariants for this tuple")
    elif data != golden.INVARIANTS[label]:
        checks.append(f"invariants {data} != reference {golden.INVARIANTS[label]}")
    return data, md, csv, checks


def _cmd_sheaf_table(args):
    n = args.modulus
    table = sheaf_table(args.tuple, n)
    data = {
        "tuple": args.tuple.format(),
        "classes": {f"({a},{b})": list(cls) for (a, b), cls in table},
    }
    grid = {cs.chi: cs.cls for cs in table}
    md_rows = [
        [f"b={b}"] + [grid[(a, b)].format() for a in range(n)] for b in range(n)
    ]
    md = f"# Character sheaves of {args.tuple.format()}\n\n" + _md_table(
        ["L(a,b)"] + [f"a={a}" for a in range(n)], md_rows
    )
    csv = _csv_lines(
        ["a", "b", "h", "e0", "e1", "e2", "e3"],
        [[a, b] + list(grid[(a, b)]) for b in range(n) for a in range(n)],
    )
    checks = []
    if _reference_label(args.tuple) == "U3":
        for (a, b), cls in golden.SHEAF_TABLE_U3.items():
            if tuple(grid[(a, b)]) != cls:
                checks.append(f"sheaf ({a},{b}) = {tuple(grid[(a, b)])} != {cls}")
    else:
        checks.append("no reference sheaf table for this tuple")
    return data, md, csv, checks


def _cmd_homology(args):
    pres = h1_complement()
    matrix = intersection_matrix()
    data = {
        "matrix": matrix,
        "rank": pres.rank,
        "torsion": list(pres.torsion),
        "relations": [list(r) for r in pres.relations],
    }
    md_rows = [[label] + row for label, row in zip(CURVE_LABELS, matrix)]
    md = "\n".join(
        [
            "# Branch configuration pairing and complement homology",
            "",
            _md_table([""] + list(BASIS_LABELS), md_rows),
            "",
            f"free rank: {pres.rank}",
            f"torsion: {list(pres.torsion) or 'none'}",
        ]
    )
    csv = _csv_lines([""] + list(BASIS_LABELS), md_rows)
    checks = []
    if pres.rank != golden.HOMOLOGY_RANK or tuple(pres.torsion) != golden.HOMOLOGY_TORSION:
        checks.append(f"homology ({pres.rank}, {pres.torsion}) != reference")
    return data, md, csv, checks


def _cmd_equations(args):
    rels = cover_equations(args.tuple, args.modulus)
    data = {
        "tuple": args.tuple.format(),
        "count": len(rels),
        "relations": [
            {
                "chi": list(r.chi),
                "chi2": list(r.chi2),
                "sigma_exponents": list(r.sigma_exponents),
                "rhs": list(r.rhs),
                "text": r.format(),
            }
            for r in rels
        ],
    }
    lines = [r.format() for r in rels]
    md = f"# Cover equations of {args.tuple.format()}\n\n" + "\n".join(lines)
    csv = _csv_lines(["relation"], [[line] for line in lines])
    checks = []
    if args.modulus == 5 and len(rels) != golden.COVER_RELATION_COUNT:
        checks.append(f"relation count {len(rels)} != {golden.COVER_RELATION_COUNT}")
    return data, md, csv, checks


def _canonical_markdown(rep) -> str:
    lines = [f"# Canonical system of {rep.tuple.format()}", ""]
    lines.append("basis monomials (exponents on x1..x10):")
    for chi, expo in rep.basis.entries:
        lines.append(f"  chi={chi}: {expo}")
    fixed = [
        f"{m} R{i + 1} ({CURVE_LABELS[i]})"
        for i, m in enumerate(rep.fixed_part)
        if m
    ]
    lines.append("")
    lines.append("fixed part: " + (" + ".join(fixed) if fixed else "none"))
    lines.append("")
    lines.append("base points of the movable part:")
    for bp in rep.base_points:
        lines.append(
            f"  x{bp.pair[0] + 1} . x{bp.pair[1] + 1} ({bp.labels[0]}, {bp.labels[1]}): "
            f"ideal {bp.ideal.format()}, type {bp.type.multiplicities()}"
        )
    lines += [
        "",
        f"movable self-intersection: {rep.moving_selfint}",
        f"sum of squared multiplicities: {rep.type_square_sum}",
        f"(map degree) x (image degree): {rep.degree_product}",
        f"birational: {rep.birational} ({rep.justification})",
    ]
    return "\n".join(lines)


def _check_canonical(rep) -> list[str]:
    ref = golden.CANONICAL_U3
    checks = []
    got_basis = {chi: expo for chi, expo in rep.basis.entries}
    if got_basis != ref["basis"]:
        checks.append("canonical basis exponents differ from reference")
    if rep.fixed_part != ref["fixed_part"]:
        checks.append(f"fixed part {rep.fixed_part} != {ref['fixed_part']}")
    got_points = {bp.pair: bp.type.multiplicities() for bp in rep.base_points}
    if got_points != ref["base_points"]:
        checks.append(f"base points {got_points} != {ref['base_points']}")
    for key in ("moving_selfint", "type_square_sum", "degree_product"):
        if getattr(rep, key) != ref[key]:
            checks.append(f"{key} {getattr(rep, key)} != {ref[key]}")
    return checks


def _cmd_canonical(args):
    rep = degree_certificate(args.tuple, args.modulus)
    data = rep.as_dict()
    md = _canonical_markdown(rep)
    csv = _csv_lines(
        ["key", "value"],
        [
            ["fixed_part", " ".join(map(str, rep.fixed_part))],
            ["moving_selfint", rep.moving_selfint],
            ["type_square_sum", rep.type_square_sum],
            ["degree_product", rep.degree_product],
            ["birational", rep.birational],
        ],
    )
    checks = []
    if _reference_label(args.tuple) == "U3":
        checks = _check_canonical(rep)
    else:
        checks.append("no reference canonical data for this tuple")
    return data, md, csv, checks


def _cmd_report(args):
    n = args.modulus
    closure = group_closure(n)
    sections = {}
    md_parts = []
    all_checks = []

    for name, builder in (
        ("enumerate", _cmd_enumerate),
        ("orbits", _cmd_orbits),
        ("homology", _cmd_homology),
    ):
        data, md, _, checks = builder(args)
        sections[name] = data
        md_parts.append(md)
        all_checks.extend(checks)

    sections["group"] = {
        "s5_order": closure.s5_order,
        "gl2_order": closure.gl2_order,
        "order": closure.order,
    }
    md_parts.append(
        "# Symmetry group\n\n"
        + _md_table(
            ["swap closure", "GL2 order", "full closure"],
            [[closure.s5_order, closure.gl2_order, closure.order]],
        )
    )
    if n == 5 and (closure.s5_order, closure.order) != (golden.S5_ORDER, golden.GROUP_ORDER):
        all_checks.append("group closure orders differ from reference")

    if n == 5:
        inv_rows = []
        for label, res in golden.REFERENCE_TUPLES.items():
            t = SixTuple.from_residues(res)
            inv = invariants(t, n)
            sections.setdefault("invariants", {})[label] = {
                "k2": inv.k2, "chi": inv.chi, "pg": inv.pg, "q": inv.q,
            }
            inv_rows.append([label, t.format(), inv.k2, inv.chi, inv.pg, inv.q])
            if sections["invariants"][label] != golden.INVARIANTS[label]:
                all_checks.append(f"invariants of {label} differ from reference")
        md_parts.append(
            "# Invariants of the representatives\n\n"
            + _md_table(["label", "tuple", "k2", "chi", "pg", "q"], inv_rows)
        )

        u3 = SixTuple.from_residues(golden.REFERENCE_TUPLES["U3"])
        args_u3 = argparse.Namespace(**{**vars(args), "tuple": u3})

        data, md, _, checks = _cmd_sheaf_table(args_u3)
        sections["sheaf_table_u3"] = data
        md_parts.append(md)
        all_checks.extend(checks)

        coeff_rows = {chi: tuple(coeffs(u3, chi, n)) for chi in golden.COEFF_ROWS_U3}
        sections["coeff_rows_u3"] = {f"({a},{b})": list(v) for (a, b), v in coeff_rows.items()}
        md_parts.append(
            "# Branch residues of the canonical characters of U3\n\n"
            + _md_table(
                ["(a,b)", "d1", "d2", "d3", "l1", "l2", "l3", "m0", "m1", "m2", "m3"],
                [[f"({a},{b})"] + list(v) for (a, b), v in sorted(coeff_rows.items())],
            )
        )
        if coeff_rows != golden.COEFF_ROWS_U3:
            all_checks.append("U3 branch residue rows differ from reference")

        rams = ram_curve_numbers(u3, n)
        sections["ram_curves"] = [
            {"label": r.label, "selfint": r.selfint, "kdot": r.kdot, "genus": r.genus}
            for r in rams
        ]
        md_parts.append(
            "# Ramification curves\n\n"
            + _md_table(
                ["curve", "R^2", "K.R", "genus"],
                [[r.label, r.selfint, r.kdot, r.genus] for r in rams],
            )
        )
        if any((r.selfint, r.kdot, r.genus) != golden.RAM_CURVE for r in rams):
            all_checks.append("ramification curve numbers differ from reference")

        data, md, _, checks = _cmd_canonical(args_u3)
        sections["canonical_u3"] = data
        md_parts.append(md)
        all_checks.extend(checks)

    csv = _csv_lines(
        ["section", "json"],
        [[k, json.dumps(v, sort_keys=True)] for k, v in sections.items()],
    )
    return sections, "\n\n".join(md_parts), csv, all_checks


_COMMANDS = {
    "enumerate": (_cmd_enumerate, False),
    "orbits": (_cmd_orbits, False),
    "invariants": (_cmd_invariants, True),
    "sheaf-table": (_cmd_sheaf_table, True),
    "canonical": (_cmd_canonical, True),
    "homology": (_cmd_homology, False),
    "equations": (_cmd_equations, True),
    "report": (_cmd_report, False),
}


def _add_options(parser, top_level):
    # registered on the top parser and again on every subcommand (with
    # suppressed defaults) so flags are accepted on either side
    default = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    parser.add_argument(
        "--modulus", type=int, default=default(5), help="prime modulus (default 5)"
    )
    parser.add_argument("--format", choices=("json", "md", "csv"), default=default("json"))
    parser.add_argument(
        "--output", default=default(None), help="write the report to this path instead of stdout"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        default=default(False),
        help="compare against the embedded reference values; nonzero exit on drift",
    )
    parser.add_argument(
        "--dump", action="store_true", default=default(False),
        help="include full tuple listings",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcover",
        description="Abelian covers of the plane branched on a complete quadrangle",
    )
    _add_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_tuple) in _COMMANDS.items():
        p = sub.add_parser(name)
        if needs_tuple:
            p.add_argument("tuple", help="12 comma-separated residues")
        _add_options(p, top_level=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_prime(args.modulus)
        if hasattr(args, "tuple"):
            args.tuple = SixTuple.parse(args.tuple, args.modulus)
        builder, _ = _COMMANDS[args.command]
        data, md, csv, checks = builder(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.format == "json":
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    elif args.format == "md":
        text = md + "\n"
    else:
        text = csv + "\n"

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    if args.verify:
        for problem in checks:
            print(f"verify: {problem}", file=sys.stderr)
        if checks:
            return 1
        print("verify: all reference checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
