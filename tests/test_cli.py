import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from quadcover import canonical, cli, covers, golden, sheaves, symmetry

U3 = "1,0,1,0,0,1,4,1,3,2,1,1"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_verify(capsys):
    code, out, err = run(capsys, "enumerate", "--verify")
    assert code == 0
    assert json.loads(out)["count"] == 201600
    assert "all reference checks passed" in err


def test_enumerate_md(capsys):
    code, out, _ = run(capsys, "enumerate", "--format", "md")
    assert code == 0
    assert "count: 201600" in out


def test_invariants_json(capsys):
    code, out, _ = run(capsys, "invariants", U3, "--format", "json", "--verify")
    assert code == 0
    assert json.loads(out) == {"k2": 45, "chi": 5, "pg": 4, "q": 0}


def test_invariants_rejects_non_admissible(capsys):
    code, _, err = run(capsys, "invariants", "1,0,1,0,1,0,1,0,1,0,1,0")
    assert code == 2
    assert "not admissible" in err


def test_parse_error(capsys):
    code, _, err = run(capsys, "invariants", "1,2,3")
    assert code == 2
    assert "error" in err


def test_composite_modulus(capsys):
    code, _, err = run(capsys, "--modulus", "4", "homology")
    assert code == 2
    assert "not prime" in err


def test_orbits_md(capsys):
    code, out, _ = run(capsys, "orbits", "--format", "md", "--verify")
    assert code == 0
    assert "| 28800 |" in out
    assert out.count("57600") == 3
    for label in ("U1", "U2", "U3", "U4"):
        assert label in out


def test_sheaf_table_verify(capsys):
    code, out, _ = run(capsys, "sheaf-table", U3, "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["classes"]["(1,3)"] == [3, -1, -1, -1, -1]
    assert len(data["classes"]) == 25


def test_sheaf_table_md_layout(capsys):
    code, out, _ = run(capsys, "sheaf-table", U3, "--format", "md")
    assert code == 0
    assert "| b=3 |" in out
    assert "4H - 2E0 - E1 - 2E2 - 2E3" in out


def test_verify_without_reference_data(capsys):
    # an admissible tuple outside the representative list has no golden row
    other = "0,1,0,1,1,0,1,0,3,1,0,2"
    code, _, err = run(capsys, "sheaf-table", other, "--verify")
    assert code == 1
    assert "no reference sheaf table" in err


def _drifted(name, key, value):
    """golden.<name> with its entry key set to value."""
    return {**getattr(golden, name), key: value}


_U1_RESIDUES = golden.REFERENCE_TUPLES["U1"]
_U3_INVARIANTS = {"k2": 45, "chi": 5, "pg": 4, "q": 0}

# One case per reference check: the golden value it reads, drifted, the
# command that reads it and the verify line it must print.  printed: the
# drifted value is part of stdout (the orbits' reference labels).
VERIFY_DRIFTS = {
    "enumerate count": ("ADMISSIBLE_COUNT", 201601, "enumerate", "count 201600 != 201601", False),
    "orbit sizes": ("ORBIT_SIZES", (28800, 28800, 57600, 57600), "orbits",
                    "orbit sizes [28800, 57600, 57600, 57600] != [28800, 28800, 57600, 57600]", False),
    "orbit labels": ("REFERENCE_TUPLES", _drifted("REFERENCE_TUPLES", "U4", _U1_RESIDUES), "orbits",
                     "reference tuples do not fall in four distinct orbits", True),
    "invariants": ("INVARIANTS", _drifted("INVARIANTS", "U3", {**_U3_INVARIANTS, "pg": 5, "q": 1}),
                   f"invariants {U3}",
                   f"invariants {_U3_INVARIANTS} != reference {({**_U3_INVARIANTS, 'pg': 5, 'q': 1})}", False),
    "sheaf table": ("SHEAF_TABLE_U3", _drifted("SHEAF_TABLE_U3", (1, 0), (0, 0, 0, 0, 0)), f"sheaf-table {U3}",
                    "sheaf (1,0) = (2, 0, -1, -1, -1) != (0, 0, 0, 0, 0)", False),
    "homology": ("HOMOLOGY_RANK", 6, "homology", "homology (5, ()) != reference", False),
    "group": ("S5_ORDER", 121, "group", "group closure orders differ from reference", False),
    "equations": ("COVER_RELATION_COUNT", 301, f"equations {U3}", "relation count 300 != 301", False),
    "canonical": ("CANONICAL_U3", _drifted("CANONICAL_U3", "degree_product", 18), f"canonical {U3}",
                  "degree_product 19 != 18", False),
    "canonical without reference": (
        "REFERENCE_TUPLES", {f"{k}'" if k == "U3" else k: v for k, v in golden.REFERENCE_TUPLES.items()},
        f"canonical {U3}", "no reference canonical data for this tuple", False),
    "report invariants": ("INVARIANTS", _drifted("INVARIANTS", "U1", _U3_INVARIANTS), "report",
                          "invariants of U1 differ from reference", False),
    "report branch residues": ("COEFF_ROWS_U3", _drifted("COEFF_ROWS_U3", (1, 3), (0,) * 10), "report",
                               "U3 branch residue rows differ from reference", False),
    "report ramification curves": ("RAM_CURVE", (-1, 3, 3), "report",
                                   "ramification curve numbers differ from reference", False),
}


@pytest.mark.parametrize("case", VERIFY_DRIFTS)
def test_verify_names_every_drift(monkeypatch, capsys, case):
    # --verify adds the named line and exit 1, and leaves stdout as it is
    name, value, argv, line, printed = VERIFY_DRIFTS[case]
    code, reference, err = run(capsys, *argv.split(), "--verify")
    assert (code, err) == (0, "verify: all reference checks passed\n")
    monkeypatch.setattr(golden, name, value)
    code, plain, err = run(capsys, *argv.split())
    assert (code, err) == (0, "")
    assert (plain == reference) is not printed
    code, out, err = run(capsys, *argv.split(), "--verify")
    assert (code, out, err) == (1, plain, f"verify: {line}\n")


def test_sheaf_table_rejects_non_admissible(capsys):
    # the loop image at L1' is zero
    code, out, err = run(capsys, "sheaf-table", "0,0,1,0,0,1,4,1,3,2,2,1")
    assert (code, out) == (2, "")
    assert "not admissible" in err


@pytest.mark.parametrize(
    "argv",
    [
        f"--format md invariants {U3} --verify",
        f"invariants --format md {U3} --verify",
        f"invariants {U3} --verify --format md",
        f"--verify --modulus 5 invariants --format md {U3}",
        f"invariants --modulus 5 {U3} --format md --verify",
    ],
)
def test_options_on_either_side_of_the_command(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 0
    assert out == "| k2 | chi | pg | q |\n|---|---|---|---|\n| 45 | 5 | 4 | 0 |\n"
    assert "all reference checks passed" in err


@pytest.mark.parametrize("argv", ["invariants", "sheaf-table --verify", f"homology {U3}", f"report {U3}"])
def test_tuple_given_exactly_for_the_tuple_commands(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "tuple" in out.err


@pytest.mark.parametrize(
    "argv",
    ["orbits --format csv", f"equations {U3} --format csv", "report --format csv",
     "enumerate --dump --format csv"],
)
def test_csv_rows_are_as_wide_as_the_header(capsys, argv):
    # representatives, relations, json cells and tuples hold commas
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)


def test_homology_json(capsys):
    code, out, _ = run(capsys, "homology", "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 5 and data["torsion"] == []
    assert data["matrix"][0] == [1, 1, 1, 0, 0]


def test_equations_csv(capsys):
    code, out, _ = run(capsys, "equations", U3, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 301  # header + 300 relations


def test_canonical_verify(capsys):
    code, out, _ = run(capsys, "canonical", U3, "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["degree_product"] == 19


def test_canonical_other_modulus_exits_2(capsys):
    # this form has an eigenspace with h0(K + L_chi) = 2, so it has no
    # monomial basis; the modulus guard comes first
    form = "1,0,0,1,0,1,0,1,1,0,5,4"
    with pytest.raises(AssertionError, match="not a basis"):
        canonical.basis(covers.SixTuple.parse(form), 7)
    code, out, err = run(capsys, "--modulus", "7", "canonical", form)
    assert (code, out) == (2, "")
    assert "modulus 5" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "inv.json"
    code, out, _ = run(capsys, "invariants", U3, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"k2": 45, "chi": 5, "pg": 4, "q": 0}


def test_report_verify_and_byte_stable(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert cli.main(["report", "--verify", "--output", str(p)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    data = json.loads(paths[0].read_text())
    assert data["group"] == {"s5_order": 120, "gl2_order": 480, "order": 57600}
    assert data["invariants"]["U3"] == {"k2": 45, "chi": 5, "pg": 4, "q": 0}
    assert data["canonical_u3"]["degree_product"] == 19


def test_report_verify_stdout_equals_the_golden_report(capsys):
    # the benchmark's golden file, read only: report stdout must not drift
    golden = Path(__file__).parents[1] / "perfbench" / "golden_report.json"
    code, out, _ = run(capsys, "report", "--verify")
    assert code == 0
    assert out.encode() == golden.read_bytes()


def test_report_does_not_import_numpy_ma():
    # numpy.ma costs a cold report about 30 ms; np.unique over rows
    # (axis=0) imports it, the void-view keys do not
    script = (
        "import contextlib, io, sys\n"
        "from quadcover import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['report', '--verify'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


def _child_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_round_trip_representative(capsys):
    # re-running on an emitted representative reproduces its orbit report
    code, out, _ = run(capsys, "orbits")
    assert code == 0
    entries = json.loads(out)["orbits"]
    rep = next(e for e in entries if e["reference_label"] == "U3")
    code, out, _ = run(capsys, "invariants", rep["representative"])
    assert code == 0
    assert json.loads(out) == {"k2": 45, "chi": 5, "pg": 4, "q": 0}


def test_dump_csv(capsys):
    code, out, _ = run(capsys, "--modulus", "3", "enumerate", "--dump", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[0] == "tuple"


def test_residue_not_below_modulus_is_rejected(capsys):
    # 6 = 1 mod 5 would silently alias U3
    code, out, err = run(capsys, "invariants", "6,0,1,0,0,1,4,1,3,2,1,1", "--verify")
    assert code == 2
    assert out == ""
    assert "below the modulus 5" in err


def test_oversized_modulus_is_refused(capsys):
    # the expanded admissible array at n = 7 (11640 normal forms x 2016
    # matrices), the normal forms at n = 17, the smallest prime whose
    # search refuses them, and their search buffer at n = 127 are over
    # the byte limit; the search refuses before its working set passes it
    for argv in (["--modulus", "7", "enumerate", "--dump"], ["--modulus", "17", "report"],
                 ["--modulus", "127", "enumerate"]):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert "MiB" in err
        assert peak <= covers.MAX_ARRAY_BYTES


def test_enumerate_at_13_counts_the_forms_times_gl2(capsys):
    # 1520340 normal forms, each the form of |GL(2, Z/13)| = 26208 tuples
    code, out, err = run(capsys, "--modulus", "13", "enumerate")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"modulus": 13, "count": 39845070720}


def test_equations_at_an_oversized_modulus_are_refused_before_building(capsys):
    # n = 1009 has 518 billion character pairs: their count is refused
    # before any array is built
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "--modulus", "1009", "equations",
                             "477,516,761,959,35,145,830,957,251,314,673,136")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "character pairs over 256 MiB" in err
    assert peak < 1 << 20


def test_invariants_beyond_the_memo_bound_exit_2(capsys):
    # an admissible tuple at 449, the smallest prime whose characters the
    # per-tuple memo refuses
    t = "1,0,0,1,97,107,97,366,197,63,57,361"
    assert covers.check_admissibility(covers.SixTuple.parse(t), 449)
    for command in ("invariants", "sheaf-table"):
        code, out, err = run(capsys, "--modulus", "449", command, t)
        assert (code, out) == (2, "")
        assert err == "error: modulus 449: 201601 characters per tuple over 256 MiB\n"


def test_sheaf_table_command_refuses_its_records_before_building(capsys):
    # 389, the smallest prime whose records sheaf_table refuses: the
    # command checks them before the memo's admissibility check
    t = "1,0,67,3,248,206,0,1,332,163,130,16"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "--modulus", "389", "sheaf-table", t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: modulus 389: 151321 characters per tuple over 256 MiB\n"
    assert peak < 1 << 20


def test_group_order_at_a_large_modulus_builds_no_gl2_array(capsys):
    # GL(2, Z/37) has 1.8 million elements; its order is the closed form
    symmetry.group_closure.cache_clear()
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "--modulus", "37", "group")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    gl2 = (37 * 37 - 1) * (37 * 37 - 37)
    assert json.loads(out) == {"s5_order": 120, "gl2_order": gl2, "order": 120 * gl2}
    assert peak < 8 << 20


def test_group_above_the_int8_residues_is_refused(capsys):
    code, out, err = run(capsys, "--modulus", "131", "group")
    assert code == 2
    assert out == ""
    assert "above 127" in err


def test_huge_modulus_is_refused_before_trial_division(capsys):
    # trial division up to the square root of 10^16 + 61 would take seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "--modulus", "10000000000000061", "group")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "not below 2^31" in err


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "homology", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err


# sha256 of `enumerate --dump` stdout at n = 5, taken before the dump was
# streamed
DUMP_DIGESTS = {
    "json": "0da495965fd0311facfe6fa628505f98e7a65b4879a376d13ad739826e1b3ecd",
    "csv": "444ccf4a8b30250764f3a3a50824a30f3a15706c58e2f457a03b9aeb72340c92",
    "md": "1bea3e2005ae04deed86d4eb59ba2d576152bd6e0b9efc66ef43da5dd125d4a1",
}
# sha256 of `report --dump` stdout at n = 5, taken before its csv cells were
# encoded lazily
REPORT_DUMP_DIGESTS = {
    "json": "3963963b7be6f5c447c56862469732727b97c7e12906eff02c1aaa2bf79ec3cc",
    "csv": "f34ab5686229e37272055cf93a72fa30c37783d48ec09daaf259a65b6a22866d",
    "md": "93c941c4e9a428405a4313b9c2ca67cc3997b062cc7c29777d859102c76baffe",
}


# sha256 of stdout: the md, csv and json layouts are kept byte-stable
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("orbits", "3a62c5fb71f462b87908370f774277b075ff5fc20a0f307b240d6fd90eed1658"),
        ("homology", "931079724b01c1a70c1820c01ddb771d819872ee519437f4a48e2af4585be2f1"),
        ("group", "901e9341aff03a40448ee59d682305a776d27acdf31bcd93e8af5dd73f26de5b"),
        (f"invariants {U3}", "f340a1cecc0a07ca5d20d69df58d9e5dac1a43fa4e24017246e5ca696186af8f"),
        (f"sheaf-table {U3}", "831f6227d14f4d299ac95d29a71185315bfe38b360b2d0a53c7aa2068507fb18"),
        (f"equations {U3}", "9f4c3f3d9abb08d84684ff12fabe0bc743711628481c8b79f2f6e5c057a9f2ce"),
        (f"canonical {U3}", "a82d5cec25e7a3b590efddd2a0d1d009899f42c0b884f11397a9e6f625791000"),
        ("--modulus 7 orbits", "2ea483293e40e2a2a44e40e9c6724ff1dd1c8612d6441deece8d1105a4c15452"),
        ("--modulus 3 enumerate --dump", "b3de6cdfcab9b6083a5f347a35810e588703bb9d4a65b905e0856434da6374ff"),
        ("report --format md", "e973b6f7da60635700e0f91651b53b271af9d01bcd93d46182e97c48ce141c1d"),
        ("report --format csv", "4dd36c33500825dca8b86412288c1c8209185e084f273b759362406c16c6103c"),
        (f"canonical {U3} --format md", "0c9ad61722387d627821f6dc53b840a983636e3eac5b84f419e87cb38f0b6f3f"),
        (f"sheaf-table {U3} --format csv", "91aff4b6048e1551466b72e8dedf8d56865a9f08a46a282f0a66e01c86577c8d"),
        (
            "--modulus 3 enumerate --dump --format md",  # no tuples: ends like every md output
            "ada624350ff1adf1b35fa2d8e480de3dba5ec4e3561de6adbf7dfe11810f4f40",
        ),
        ("--modulus 3 enumerate --dump --format csv", "7ebb15439e4e04f92ccc12fce3e29d0a1eeae5ee2911ce130d5d058102109cfe"),
        *((f"enumerate --dump --format {fmt}", digest) for fmt, digest in DUMP_DIGESTS.items()),
    ],
)
def test_md_and_csv_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _dump_in_child(*argv):
    """stdout and peak RSS (KiB) of a child interpreter running the cli on
    argv.  The child reads the high-water mark of its own address space at
    exit: RUSAGE_CHILDREN of this process keeps the largest peak of every
    earlier child, and the child's RUSAGE_SELF starts from this process's
    peak, which Linux carries over at exec."""
    script = (
        "import sys\n"
        "from quadcover import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(line for line in fh if line.startswith('VmHWM:')), file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *argv], env=_child_env(), capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    kib, unit = done.stderr.split()[-2:]
    assert unit == b"kB"
    return done.stdout, int(kib)


@pytest.mark.parametrize("fmt", DUMP_DIGESTS)
def test_dump_streams_in_bounded_memory(fmt):
    # the 201600 rows are written 2^14 at a time, so the child's peak RSS
    # stays under 64 MiB (about 41 MiB in each format)
    out, kib = _dump_in_child("enumerate", "--dump", "--format", fmt)
    assert hashlib.sha256(out).hexdigest() == DUMP_DIGESTS[fmt]
    assert kib < 64 << 10


def test_report_dump_is_pinned_and_its_csv_streams():
    # the csv cell of the admissible rows is written a row at a time, so
    # the csv report peaks within 4 MiB of the json one (both about 42 MiB;
    # 92 and 80 MiB when json.dumps copied the rows into one list for
    # every format)
    peaks = {}
    for fmt, digest in REPORT_DUMP_DIGESTS.items():
        out, peaks[fmt] = _dump_in_child("report", "--dump", "--format", fmt)
        assert hashlib.sha256(out).hexdigest() == digest, fmt
    assert peaks["json"] < 64 << 10
    assert peaks["csv"] <= peaks["json"] + (4 << 10)


def _read_whole(data):
    """data with every _Rows read whole into a list of rows, for json.dumps."""
    if isinstance(data, cli._Rows):
        return data.rows.tolist()
    if isinstance(data, dict):
        return {key: _read_whole(value) for key, value in data.items()}
    return [_read_whole(value) for value in data] if isinstance(data, list) else data


def test_json_pieces_write_what_json_dumps_writes():
    # json.dumps would read the rows whole; the pieces read _Rows a row at a time
    rows = covers.admissible_array(5)[:40000]
    for data in (
        cli._Rows(rows),
        cli._Rows(rows[:0]),
        {"b": 1, "a": cli._Rows(rows[:3]), "c": [{"y": 2, "x": None}], "d": 'q"uote'},
        {"tuples": cli._Rows(rows[:0])},
        [{"b": 1, "a": 2.5}],
        {},
        {"group": {"order": 7}, "enumerate": {"tuples": cli._Rows(rows[:5]), "count": 5}},  # report --dump
        {"a": {"c": cli._Rows(rows[:0]), "b": {}}},  # both empty at depth 2
        {"text": 'q"uote\nnext line, caf\u00e9'},
    ):
        for indent in (None, 2):
            pieces = list(cli._json_pieces(data, indent))
            assert "".join(pieces) == json.dumps(_read_whole(data), indent=indent, sort_keys=True)
            if isinstance(data, cli._Rows):
                assert len(pieces) == len(data.rows) + 1  # never the rows whole


def _row_samples():
    rows = covers.admissible_array(5)
    pick = np.random.default_rng(29).choice(len(rows), 5000, replace=False)
    return {"5000 rows at 5": rows[np.sort(pick)], "normal forms at 7": covers.normal_forms(7)}


@pytest.mark.parametrize("name", ["5000 rows at 5", "normal forms at 7"])
def test_row_lines_match_independent_writers(name):
    # every format's row text comes from _Rows.lines; each is checked
    # against a writer that shares no code with it
    rows = _row_samples()[name]
    table = cli._Rows(rows)
    plain = [",".join(map(str, row)) for row in rows.tolist()]
    assert list(table.lines()) == plain  # md
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for line in plain:
        writer.writerow([line])
    csv_lines = list(table.lines(head='"', tail='"\n'))
    assert "".join(csv_lines) == out.getvalue() and len(csv_lines) == len(rows)
    for indent in (None, 2):
        assert "".join(cli._json_pieces(table, indent)) == json.dumps(rows.tolist(), indent=indent)


@pytest.mark.parametrize("argv, head", [("enumerate --dump --format csv", [b"tuple\n"]), ("group", [])],
                         ids=["in-a-write", "in-the-flush"])
def test_a_closed_stdout_pipe_exits_2_without_a_traceback(argv, head):
    # the reader goes after the head lines, as `| head` does: in the dump's
    # writes or in the flush of the group's few bytes.  What is left
    # unwritten goes to os.devnull, so the flush at exit cannot raise again
    # ("Exception ignored", exit 120); stdout is buffered, as in a shell
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    child = subprocess.Popen([sys.executable, "-m", "quadcover.cli", *argv.split()], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert [child.stdout.readline() for _ in head] == head
    child.stdout.close()
    err = child.communicate(timeout=120)[1]
    assert child.returncode == 2
    assert err.startswith(b"error: ") and err.count(b"\n") == 1, err


def test_modulus_7_from_the_forms(capsys):
    # 11640 normal forms: counted, classified and grouped without expansion
    code, out, _ = run(capsys, "--modulus", "7", "enumerate")
    assert code == 0 and json.loads(out)["count"] == 11640 * 2016 == 23466240
    code, out, _ = run(capsys, "--modulus", "7", "orbits")
    assert code == 0 and json.loads(out)["orbit_count"] == 100
    assert sum(e["size"] for e in json.loads(out)["orbits"]) == 23466240
    # p_g and q at every prime: 75 orbits have (13, 0), 25 have (16, 3)
    values = sorted((e["pg"], e["q"]) for e in json.loads(out)["orbits"])
    assert values == [(13, 0)] * 75 + [(16, 3)] * 25
    code, out, _ = run(capsys, "--modulus", "7", "group", "--format", "csv")
    assert code == 0 and out.splitlines()[1] == "120,2016,241920"


def test_orbits_read_invariants_from_one_batched_pass(capsys, monkeypatch):
    # the per-tuple route is not taken: every representative's p_g and q
    # come from one sheaves._pg_chi call
    def refuse(t, n=5):
        raise AssertionError("invariants called")

    calls, batched = [], sheaves._pg_chi
    monkeypatch.setattr(sheaves, "invariants", refuse)
    monkeypatch.setattr(cli, "invariants", refuse)
    monkeypatch.setattr(cli, "_pg_chi", lambda rows, n: calls.append(len(rows)) or batched(rows, n))
    code, out, _ = run(capsys, "--modulus", "7", "orbits")
    assert code == 0 and calls == [100]
    assert sorted((e["pg"], e["q"]) for e in json.loads(out)["orbits"]) == [(13, 0)] * 75 + [(16, 3)] * 25


def test_report_does_not_expand(monkeypatch, tmp_path):
    # a cold report reads the normal forms only: no admissible array
    def refuse(n=5):
        raise AssertionError("admissible_array called")

    monkeypatch.setattr(covers, "admissible_array", refuse)
    monkeypatch.setattr(cli, "admissible_array", refuse)
    symmetry.group_closure.cache_clear()
    symmetry.orbit_partition.cache_clear()
    assert cli.main(["report", "--verify", "--output", str(tmp_path / "r.json")]) == 0
