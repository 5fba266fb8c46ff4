import hashlib
import json

import pytest

from quadcover import cli

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
    # matrices) and the group at n = 13 are over the byte limit
    for argv in (["--modulus", "7", "enumerate"], ["--modulus", "13", "report"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "MiB" in err


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "homology", "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err


# sha256 of stdout: the md and csv layouts are kept byte-stable
@pytest.mark.parametrize(
    "argv, digest",
    [
        ("report --format md", "e973b6f7da60635700e0f91651b53b271af9d01bcd93d46182e97c48ce141c1d"),
        ("report --format csv", "c355ae1762a65a2048781b69a5784337cf5b70982c0fe62f4db88e4bdc8a84d6"),
        (f"canonical {U3} --format md", "0c9ad61722387d627821f6dc53b840a983636e3eac5b84f419e87cb38f0b6f3f"),
        (f"sheaf-table {U3} --format csv", "91aff4b6048e1551466b72e8dedf8d56865a9f08a46a282f0a66e01c86577c8d"),
        (
            "--modulus 3 enumerate --dump --format md",  # no tuples: ends in a blank line
            "df4175439a79f6e0b7f07a383e00b36a6b6310fb77d9de33927cc669afa66231",
        ),
    ],
)
def test_md_and_csv_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
