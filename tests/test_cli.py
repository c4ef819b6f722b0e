from __future__ import annotations

import json

import pytest

from relasph.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_shorthand(capsys):
    rc, out, _ = run(capsys, "classify", "--cyclic", "4", "--l", "4",
                     "--k", "-3", "--g", "1", "--h", "2")
    assert rc == 0
    assert out.startswith("Aspherical")
    assert "case-J4-isomorphism" in out


def test_classify_verify(capsys):
    rc, out, _ = run(capsys, "classify", "--cyclic", "5", "--l", "2",
                     "--k", "-1", "--g", "2", "--h", "1", "--verify",
                     "--cap", "100000")
    assert rc == 0
    assert "NonAspherical" in out and "|G(Q)|=55" in out
    assert "reproduces order 55" in out


def test_classify_json_is_deterministic(capsys):
    args = ("classify", "--cyclic", "6", "--l", "4", "--k", "1", "--g", "2",
            "--h", "1", "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2
    data = json.loads(out1)
    assert data["aspherical"] == "unknown" and data["rule"] == "table-open"


def test_classify_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "presentation.txt"
    bad.write_text("group <g g^4>; x; rel x")
    with pytest.raises(SystemExit) as err:
        run(capsys, "classify", str(bad))
    assert err.value.code == 2


def test_classify_presentation_file(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^4>; x; rel x^4 g x^-3 g^2")
    rc, out, _ = run(capsys, "classify", str(f))
    assert rc == 0 and out.startswith("Aspherical")


def test_order_command(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <h | h^5>; x; rel x^2 h^2 x^-1 h")
    rc, out, _ = run(capsys, "order", str(f), "--cap", "10000")
    assert rc == 0 and out.strip() == "Finite(55)"
    f2 = tmp_path / "free.txt"
    f2.write_text("group <g | g^2>; x; rel x g x g x^-1 g x^-1 g")
    rc, out, _ = run(capsys, "order", str(f2), "--cap", "2000")
    assert rc == 0 and out.strip() == "ExceedsBudget(2000)"


def test_order_subgroup(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^8>; x; rel x^2 g^2 x^-1 g")
    rc, out, _ = run(capsys, "order", str(f), "--subgroup", "g",
                     "--cap", "3000000")
    assert rc == 0 and out.strip() == "Index(295245)"


def test_stargraph_dot(capsys):
    rc, out, _ = run(capsys, "stargraph", "--cyclic", "8", "--l", "2",
                     "--k", "-1", "--g", "2", "--h", "1")
    assert rc == 0
    assert out.count("--") == 3  # three unoriented edges
    assert "x_bar" in out


def test_weighttest_file(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^2>; x; rel x^3 g")
    w = tmp_path / "weights.txt"
    w.write_text("0 1/3\n1 1/3\n2 1/3\n")
    rc, out, _ = run(capsys, "weighttest", str(f), str(w), "--mode", "full")
    assert rc == 0
    assert "sum = 2" in out and "VIOLATED (weight 2/3" in out


def test_weighttest_zero_denominator_exits_2(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^2>; x; rel x^3 g")
    w = tmp_path / "weights.txt"
    w.write_text("0 1/3\n1 1/0\n2 1/3\n")
    rc, out, err = run(capsys, "weighttest", str(f), str(w))
    assert rc == 2 and out == ""
    assert err.startswith("error: line 2:") and err.count("\n") == 1


def test_weighttest_search(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <y | >; x; rel y^-1 x^3")
    rc, out, _ = run(capsys, "weighttest", str(f), "search", "--bound", "4")
    assert rc == 0


def test_picture_command(fixtures_dir, capsys):
    rc, out, _ = run(capsys, "picture", str(fixtures_dir / "fig2.json"),
                     "--reduce")
    assert rc == 0
    assert "reduced: no dipole found" in out
    rc, out, _ = run(capsys, "picture", str(fixtures_dir / "fig1a.json"),
                     "--reduce")
    assert rc == 0
    assert "cancelled dipole" in out and "0 discs remain" in out


def test_picture_curvature(fixtures_dir, capsys):
    rc, out, _ = run(capsys, "picture", str(fixtures_dir / "fig2.json"),
                     "--curvature")
    assert rc == 0 and "total curvature: 4 pi" in out


def test_table1_only_filter(capsys):
    rc, out, _ = run(capsys, "table1", "--only", "L6", "--cap", "200000")
    assert rc == 0
    assert out.count("[ok ]") == 3  # {2,1}, {2,-1}, {3,-1} L6 rows
