"""Command-line front end: reports for every pipeline stage.

Commands cover enumeration, orbit classification, the symmetry group,
invariants, sheaf tables, homology, cover equations, the canonical-map
analysis, and a combined reproduction report.  With --verify, computed results are
compared against the embedded reference values and any drift makes the
exit status nonzero.  Each command builds one Section; render writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from itertools import chain, islice
from typing import Iterator, NamedTuple

from . import golden
from .canonical import degree_certificate
from .covers import CHUNK, SixTuple, admissible_array, normal_forms
from .gf import gl2_order, require_prime
from .picard import BASIS_LABELS, CURVE_LABELS, h1_complement, intersection_matrix
from .sheaves import _admitted, _invariants, _pg_chi, check_sheaf_table, coeffs, cover_equations, invariants
from .sheaves import ram_curve_numbers, sheaf_table
from .symmetry import group_closure, orbit_partition


def _reference_label(t: SixTuple) -> str | None:
    return next((name for name, res in golden.REFERENCE_TUPLES.items() if res == t.residues), None)


class Section(NamedTuple):
    """One command's result, or one part of the report.

    data is what json writes, _Rows in it as lists of rows.  md is a list of
    blocks joined by blank lines; a block is a text string, a (headers,
    rows) table or _Rows.  csv is one (headers, rows) table, rows possibly
    lazy lists or ready lines, a list's last cell possibly a generator of
    JSON pieces.  checks lists the mismatches that --verify reports.
    """

    data: object
    md: list
    csv: tuple
    checks: list


_PIECES = 1 << 11  # pieces of output text joined per write: lines, or json rows of up to 170 bytes


class _Rows:
    """An (N, 12) int16 array of residue rows; lines is the only code that
    writes a row as text, each format passing its own template."""

    def __init__(self, rows):
        self.rows = rows

    def lines(self, sep=",", head="", tail=""):
        """Each row as head + its residues joined by sep + tail, CHUNK rows at a time."""
        template = head + sep.join(["%d"] * self.rows.shape[1]) + tail
        for i in range(0, len(self.rows), CHUNK):
            yield from map(template.__mod__, map(tuple, self.rows[i:i + CHUNK].tolist()))


def _md_lines(blocks):
    """The md blocks as lines, with a blank line between two blocks."""
    for i, block in enumerate(blocks):
        if i:
            yield ""
        if isinstance(block, tuple):
            headers, rows = block
            yield "| " + " | ".join(headers) + " |"
            yield "|" + "|".join("---" for _ in headers) + "|"
            yield from ("| " + " | ".join(map(str, row)) + " |" for row in rows)
        else:
            yield from block.lines() if isinstance(block, _Rows) else [block]


def _json_pieces(data, indent=None, depth=0):
    """data, depth levels deep, as json.dumps(data, indent=indent, sort_keys=True)
    writes it, in pieces: a dict key by key, _Rows a row at a time, any other
    value whole, re-indented (json.dumps escapes every newline in a string)."""
    step = " " * (indent or 0)
    outer = "" if indent is None else "\n" + step * depth  # what starts a line at this depth
    comma, inner = ", " if indent is None else ",", outer + step
    if isinstance(data, dict) and data:
        for i, key in enumerate(sorted(data)):
            yield (comma if i else "{") + inner + json.dumps(key) + ": "
            yield from _json_pieces(data[key], indent, depth + 1)
        yield outer + "}"
    elif isinstance(data, _Rows):
        rows = data.lines(comma + inner + step, comma + inner + "[" + inner + step, inner + "]")
        for row in rows:  # once: the first row opens the list where the others have a comma
            yield "[" + row[len(comma):]
            yield from rows
        yield outer + "]" if len(data.rows) else "[]"
    else:
        yield json.dumps(data, indent=indent, sort_keys=True).replace("\n", outer)


def _csv_lines(headers, rows):
    """The csv lines of a table, a str row (a _Rows line) as it is.  A last cell that is a
    generator of JSON pieces (of a dict or a list, so it holds a '"') is quoted piece by piece."""
    import csv
    from types import GeneratorType, SimpleNamespace

    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")  # writerow returns a line
    for row in chain([headers], rows):
        if isinstance(row[-1], GeneratorType):
            yield writer.writerow(row[:-1])[:-1] + ',"'
            yield from (piece.replace('"', '""') for piece in row[-1])
            yield '"\n'
        else:
            yield row if isinstance(row, str) else writer.writerow(row)


def render(section: Section, fmt: str) -> Iterator[str]:
    """A section's newline-terminated json, md or csv text, _PIECES lines or json pieces at a time."""
    if fmt == "json":
        pieces = chain(_json_pieces(section.data, indent=2), ["\n"])
    elif fmt == "md":
        pieces = (line + "\n" for line in _md_lines(section.md))
    else:
        pieces = _csv_lines(*section.csv)
    while text := "".join(islice(pieces, _PIECES)):
        yield text


# --- per-command builders --------------------------------------------------


def _cmd_enumerate(args):
    n = args.modulus
    count = len(normal_forms(n)) * gl2_order(n)  # GL(2) acts freely
    data = {"modulus": n, "count": count}
    md = [f"# Admissible six-tuples (mod {n})", f"count: {count}"]
    csv = (["count"], [[count]])
    if args.dump:
        data["tuples"] = tuples = _Rows(admissible_array(n))
        md += [tuples] if count else []
        csv = (["tuple"], tuples.lines(head='"', tail='"\n'))  # one quoted field, as csv.writer writes it
    drift = n == 5 and count != golden.ADMISSIBLE_COUNT
    checks = [f"count {count} != {golden.ADMISSIBLE_COUNT}"] if drift else []
    return Section(data, md, csv, checks)


def _cmd_orbits(args):
    n = args.modulus
    part = orbit_partition(n)
    sums = _pg_chi([orb.representative.residues for orb in part.orbits], n)  # one batched pass
    entries = [
        {
            "id": i,
            "size": orb.size,
            "stabilizer_order": orb.stabilizer_order,
            "representative": orb.representative.format(),
            "reference_label": None,
            "pg": inv.pg,
            "q": inv.q,
        }
        for i, (orb, inv) in enumerate(zip(part.orbits, (_invariants(*s, n) for s in sums.tolist())))
    ]
    checks = []
    if n == 5:
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
    check_sheaf_table(n)
    _admitted(args.tuple, n)  # the memo's check: the residues are read once
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


def _cmd_group(args):
    closure = group_closure(args.modulus)
    data = {"s5_order": closure.s5_order, "gl2_order": closure.gl2_order, "order": closure.order}
    table = (["swap closure", "GL2 order", "full closure"], [list(data.values())])
    checks = []
    orders = (golden.S5_ORDER, golden.GL2_ORDER, golden.GROUP_ORDER)
    if args.modulus == 5 and tuple(data.values()) != orders:
        checks.append("group closure orders differ from reference")
    return Section(data, ["# Symmetry group", table], table, checks)


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
    got = {
        **rep._asdict(),
        "basis": dict(rep.basis.entries),
        "base_points": {bp.pair: bp.type.multiplicities() for bp in rep.base_points},
    }
    ref = golden.CANONICAL_U3
    return [f"{key} {got[key]} != {ref[key]}" for key in ref if got[key] != ref[key]]


def _cmd_canonical(args):
    rep = degree_certificate(args.tuple, args.modulus)
    keys = ("moving_selfint", "type_square_sum", "degree_product", "birational")
    rows = [["fixed_part", " ".join(map(str, rep.fixed_part))]]
    rows += [[k, getattr(rep, k)] for k in keys]
    csv = (["key", "value"], rows)
    return Section(rep.as_dict(), _canonical_markdown(rep), csv, _check_canonical(rep))


# --- sections that only the report has ------------------------------------


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
    parts = {
        "enumerate": _cmd_enumerate(args),
        "orbits": _cmd_orbits(args),
        "homology": _cmd_homology(args),
        "group": _cmd_group(args),
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
        (["section", "json"], [[k, _json_pieces(v)] for k, v in data.items()]),
        [problem for part in parts.values() for problem in part.checks],
    )


_COMMANDS = {
    "enumerate": (_cmd_enumerate, False),
    "orbits": (_cmd_orbits, False),
    "invariants": (_cmd_invariants, True),
    "sheaf-table": (_cmd_sheaf_table, True),
    "canonical": (_cmd_canonical, True),
    "homology": (_cmd_homology, False),
    "group": (_cmd_group, False),
    "equations": (_cmd_equations, True),
    "report": (_cmd_report, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcover",
        description="Abelian covers of the plane branched on a complete quadrangle",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("tuple", nargs="?", help="12 comma-separated residues (tuple commands only)")
    parser.add_argument("--modulus", type=int, default=5, help="prime modulus (default 5)")
    parser.add_argument("--format", choices=("json", "md", "csv"), default="json")
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="compare against the embedded reference values; nonzero exit on drift",
    )
    parser.add_argument("--dump", action="store_true", help="include full tuple listings")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # options may come before, between and after the positionals
    args = parser.parse_intermixed_args(argv)
    builder, needs_tuple = _COMMANDS[args.command]
    if needs_tuple != (args.tuple is not None):
        parser.error(f"{args.command} {'needs a' if needs_tuple else 'takes no'} tuple")
    try:
        require_prime(args.modulus)
        if needs_tuple:
            args.tuple = SixTuple.parse(args.tuple, args.modulus)
        section = builder(args)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(render(section, args.format))
        else:
            sys.stdout.writelines(render(section, args.format))
            sys.stdout.flush()  # a closed pipe raises here, not at exit
    except OSError as err:
        if not args.output:  # the unwritten rest goes to os.devnull: the flush at exit cannot raise
            import os
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.verify:
        for problem in section.checks:
            print(f"verify: {problem}", file=sys.stderr)
        if section.checks:
            return 1
        print("verify: all reference checks passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
