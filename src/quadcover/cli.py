"""Command-line front end: reports for every pipeline stage.

Subcommands cover enumeration, orbit classification, invariants, sheaf
tables, homology, cover equations, the canonical-map analysis, and a
combined reproduction report.  With --verify, computed results are
compared against the embedded reference values and any drift makes the
exit status nonzero.  Each command builds one Section; render writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import NamedTuple

from . import golden
from .canonical import degree_certificate
from .covers import SixTuple, admissible_array
from .gf import require_prime
from .picard import BASIS_LABELS, CURVE_LABELS, h1_complement, intersection_matrix
from .sheaves import (
    coeffs, cover_equations, invariants, pg_values, ram_curve_numbers, sheaf_table,
)
from .symmetry import group_closure, orbit_partition


def _reference_label(t: SixTuple) -> str | None:
    return next((name for name, res in golden.REFERENCE_TUPLES.items() if res == t.residues), None)


class Section(NamedTuple):
    """One command's result, or one part of the report.

    md is a list of blocks joined by blank lines; a block is a text string
    or a (headers, rows) table.  csv is one (headers, rows) table.  checks
    lists the reference mismatches that --verify reports.
    """

    data: object
    md: list
    csv: tuple
    checks: list


def _md_table(headers, rows) -> str:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(out)


def render(section: Section, fmt: str) -> str:
    """The text of a section in json, md or csv, newline-terminated."""
    if fmt == "json":
        return json.dumps(section.data, indent=2, sort_keys=True) + "\n"
    if fmt == "md":
        blocks = (b if isinstance(b, str) else _md_table(*b) for b in section.md)
        return "\n\n".join(blocks) + "\n"
    headers, rows = section.csv
    return "\n".join(",".join(str(x) for x in row) for row in [headers, *rows]) + "\n"


# --- per-command builders --------------------------------------------------


def _cmd_enumerate(args):
    rows = admissible_array(args.modulus)
    data = {"modulus": args.modulus, "count": int(len(rows))}
    lines = []
    if args.dump:
        data["tuples"] = [[int(x) for x in row] for row in rows]
        lines = [",".join(map(str, row)) for row in data["tuples"]]
    # one block, so that a dump without tuples still ends in a blank line
    body = "\n".join([f"count: {len(rows)}", *([""] + lines if args.dump else [])])
    md = [f"# Admissible six-tuples (mod {args.modulus})", body]
    csv = (["tuple"], [[line] for line in lines]) if args.dump else (["count"], [[len(rows)]])
    checks = []
    if args.modulus == 5 and len(rows) != golden.ADMISSIBLE_COUNT:
        checks.append(f"count {len(rows)} != {golden.ADMISSIBLE_COUNT}")
    return Section(data, md, csv, checks)


def _cmd_orbits(args):
    n = args.modulus
    part = orbit_partition(n)
    entries = [
        {
            "id": i,
            "size": orb.size,
            "stabilizer_order": orb.stabilizer_order,
            "representative": orb.representative.format(),
            "reference_label": None,
        }
        for i, orb in enumerate(part.orbits)
    ]
    checks = []
    if n == 5:
        rows = admissible_array(n)
        for entry, orb in zip(entries, part.orbits):
            entry["pg"] = int(pg_values(rows[orb.member_indices[:1]], n)[0])
            entry["q"] = entry["pg"] - 4
        for name, res in golden.REFERENCE_TUPLES.items():
            t = SixTuple.from_residues(res)
            entries[part.orbit_of(t, n)].update(reference_label=name, reference_tuple=t.format())
        sizes = Counter(e["size"] for e in entries)
        if sizes != Counter(golden.ORBIT_SIZES):
            checks.append(f"orbit sizes {sorted(sizes.elements())} != {sorted(golden.ORBIT_SIZES)}")
        labels = sorted(e["reference_label"] for e in entries if e["reference_label"])
        if labels != ["U1", "U2", "U3", "U4"]:
            checks.append("reference tuples do not fall in four distinct orbits")
    data = {"modulus": n, "orbit_count": len(entries), "orbits": entries}
    keys = ("id", "size", "stabilizer_order", "representative")
    table = (
        ["id", "size", "stabilizer", "lex representative", "label"],
        [[e[k] for k in keys] + [e["reference_label"] or "-"] for e in entries],
    )
    return Section(data, [f"# Symmetry orbits (mod {n})", table], table, checks)


def _cmd_invariants(args):
    inv = invariants(args.tuple, args.modulus)
    data = inv._asdict()
    table = (list(data), [list(inv)])
    checks = []
    label = _reference_label(args.tuple)
    if label is None:
        checks.append("no reference invariants for this tuple")
    elif data != golden.INVARIANTS[label]:
        checks.append(f"invariants {data} != reference {golden.INVARIANTS[label]}")
    return Section(data, [table], table, checks)


def _cmd_sheaf_table(args):
    n = args.modulus
    table = sheaf_table(args.tuple, n)
    data = {
        "tuple": args.tuple.format(),
        "classes": {f"({a},{b})": list(cls) for (a, b), cls in table},
    }
    grid = {cs.chi: cs.cls for cs in table}
    md = [
        f"# Character sheaves of {args.tuple.format()}",
        (
            ["L(a,b)"] + [f"a={a}" for a in range(n)],
            [[f"b={b}"] + [grid[(a, b)].format() for a in range(n)] for b in range(n)],
        ),
    ]
    csv = (
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
    return Section(data, md, csv, checks)


def _cmd_homology(args):
    pres = h1_complement()
    matrix = intersection_matrix()
    data = {
        "matrix": matrix,
        "rank": pres.rank,
        "torsion": list(pres.torsion),
        "relations": [list(r) for r in pres.relations],
    }
    table = ([""] + list(BASIS_LABELS), [[label] + row for label, row in zip(CURVE_LABELS, matrix)])
    md = [
        "# Branch configuration pairing and complement homology",
        table,
        f"free rank: {pres.rank}\ntorsion: {list(pres.torsion) or 'none'}",
    ]
    checks = []
    if pres.rank != golden.HOMOLOGY_RANK or tuple(pres.torsion) != golden.HOMOLOGY_TORSION:
        checks.append(f"homology ({pres.rank}, {pres.torsion}) != reference")
    return Section(data, md, table, checks)


def _cmd_equations(args):
    rels = cover_equations(args.tuple, args.modulus)
    data = {
        "tuple": args.tuple.format(),
        "count": len(rels),
        "relations": [{**r._asdict(), "text": r.format()} for r in rels],
    }
    lines = [r.format() for r in rels]
    md = [f"# Cover equations of {args.tuple.format()}", "\n".join(lines)]
    checks = []
    if args.modulus == 5 and len(rels) != golden.COVER_RELATION_COUNT:
        checks.append(f"relation count {len(rels)} != {golden.COVER_RELATION_COUNT}")
    return Section(data, md, (["relation"], [[line] for line in lines]), checks)


def _canonical_markdown(rep) -> list[str]:
    basis = [f"  chi={chi}: {expo}" for chi, expo in rep.basis.entries]
    fixed = [f"{m} R{i + 1} ({CURVE_LABELS[i]})" for i, m in enumerate(rep.fixed_part) if m]
    points = [
        f"  x{bp.pair[0] + 1} . x{bp.pair[1] + 1} ({bp.labels[0]}, {bp.labels[1]}): "
        f"ideal {bp.ideal.format()}, type {bp.type.multiplicities()}"
        for bp in rep.base_points
    ]
    return [
        f"# Canonical system of {rep.tuple.format()}",
        "\n".join(["basis monomials (exponents on x1..x10):", *basis]),
        "fixed part: " + (" + ".join(fixed) or "none"),
        "\n".join(["base points of the movable part:", *points]),
        f"movable self-intersection: {rep.moving_selfint}\n"
        f"sum of squared multiplicities: {rep.type_square_sum}\n"
        f"(map degree) x (image degree): {rep.degree_product}\n"
        f"birational: {rep.birational} ({rep.justification})",
    ]


def _check_canonical(rep) -> list[str]:
    if _reference_label(rep.tuple) != "U3":
        return ["no reference canonical data for this tuple"]
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
    keys = ("moving_selfint", "type_square_sum", "degree_product", "birational")
    rows = [["fixed_part", " ".join(map(str, rep.fixed_part))]]
    rows += [[k, getattr(rep, k)] for k in keys]
    csv = (["key", "value"], rows)
    return Section(rep.as_dict(), _canonical_markdown(rep), csv, _check_canonical(rep))


# --- sections that only the report has ------------------------------------


def _group(args):
    closure = group_closure(args.modulus)
    data = {"s5_order": closure.s5_order, "gl2_order": closure.gl2_order, "order": closure.order}
    table = (["swap closure", "GL2 order", "full closure"], [list(data.values())])
    checks = []
    orders = (closure.s5_order, closure.order)
    if args.modulus == 5 and orders != (golden.S5_ORDER, golden.GROUP_ORDER):
        checks.append("group closure orders differ from reference")
    return Section(data, ["# Symmetry group", table], table, checks)


def _reference_invariants(args):
    data, rows, checks = {}, [], []
    for label, res in golden.REFERENCE_TUPLES.items():
        t = SixTuple.from_residues(res)
        inv = invariants(t, args.modulus)
        data[label] = inv._asdict()
        rows.append([label, t.format(), *inv])
        if data[label] != golden.INVARIANTS[label]:
            checks.append(f"invariants of {label} differ from reference")
    table = (["label", "tuple", "k2", "chi", "pg", "q"], rows)
    return Section(data, ["# Invariants of the representatives", table], table, checks)


def _coeff_rows(args):
    rows = {chi: tuple(coeffs(args.tuple, chi, args.modulus)) for chi in golden.COEFF_ROWS_U3}
    table = (
        ["(a,b)", "d1", "d2", "d3", "l1", "l2", "l3", "m0", "m1", "m2", "m3"],
        [[f"({a},{b})"] + list(v) for (a, b), v in sorted(rows.items())],
    )
    checks = [] if rows == golden.COEFF_ROWS_U3 else ["U3 branch residue rows differ from reference"]
    data = {f"({a},{b})": list(v) for (a, b), v in rows.items()}
    title = "# Branch residues of the canonical characters of U3"
    return Section(data, [title, table], table, checks)


def _ram_curves(args):
    rams = ram_curve_numbers(args.tuple, args.modulus)
    table = (["curve", "R^2", "K.R", "genus"], [list(r) for r in rams])
    checks = []
    if any((r.selfint, r.kdot, r.genus) != golden.RAM_CURVE for r in rams):
        checks.append("ramification curve numbers differ from reference")
    return Section([r._asdict() for r in rams], ["# Ramification curves", table], table, checks)


def _cmd_report(args):
    group = _group(args)  # first, so that an oversized modulus is refused before enumeration
    parts = {
        "enumerate": _cmd_enumerate(args),
        "orbits": _cmd_orbits(args),
        "homology": _cmd_homology(args),
        "group": group,
    }
    if args.modulus == 5:
        u3 = SixTuple.from_residues(golden.REFERENCE_TUPLES["U3"])
        args_u3 = argparse.Namespace(**{**vars(args), "tuple": u3})
        parts |= {
            "invariants": _reference_invariants(args),
            "sheaf_table_u3": _cmd_sheaf_table(args_u3),
            "coeff_rows_u3": _coeff_rows(args_u3),
            "ram_curves": _ram_curves(args_u3),
            "canonical_u3": _cmd_canonical(args_u3),
        }
    data = {name: part.data for name, part in parts.items()}
    return Section(
        data,
        [block for part in parts.values() for block in part.md],
        (["section", "json"], [[k, json.dumps(v, sort_keys=True)] for k, v in data.items()]),
        [problem for part in parts.values() for problem in part.checks],
    )


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
        section = builder(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    text = render(section, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if args.verify:
        for problem in section.checks:
            print(f"verify: {problem}", file=sys.stderr)
        if section.checks:
            return 1
        print("verify: all reference checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
