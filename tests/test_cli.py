from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import relasph
from relasph.classify import ORDER_VS_G_CAP
from relasph.cli import build_parser, main
from relasph.coset import DEFAULT_CAP, MAX_CAP


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


def test_classify_verify_order_vs_g_has_its_own_budget(monkeypatch, capsys):
    # at the default cap the order-vs-G enumeration of this aspherical
    # verdict ran for minutes to reach the cap and skip the check
    monkeypatch.delenv("ASPH_COSET_CAP", raising=False)
    start = time.monotonic()
    rc, out, _ = run(capsys, "classify", "--cyclic", "7", "--l", "2",
                     "--k", "1", "--g", "1", "--h", "3", "--verify")
    assert time.monotonic() - start < 20
    assert rc == 0 and out.startswith("Aspherical")
    assert (f"[skipped] order-vs-G: defined group not enumerated within "
            f"{ORDER_VS_G_CAP} cosets") in out


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
    rc, out, err = run(capsys, "classify", str(bad))
    assert rc == 2 and out == ""
    assert err == "error: expected '|' (line 1, column 11)\n"


_NO_X = "group <g | g^2>; x; rel g"


@pytest.mark.parametrize("text,argv", [
    ("group <\u00e9 | >; x; rel x", ("classify", "{file}")),
    ("group <g | g^\u00b2>; x; rel x g", ("classify", "{file}")),
    (b"group <g | g^2>; x; rel x \xff", ("classify", "{file}")),
    (_NO_X, ("stargraph", "{file}")),
    (_NO_X, ("weighttest", "{file}", "search")),
    (_NO_X, ("picture", "{fig2}", "--presentation", "{file}")),
    ("group <g, h | h^2>; x; rel g h",
     ("picture", "{fig2}", "--presentation", "{file}")),
    (None, ("classify", "--cyclic", "5", "--l", "0", "--k", "1", "--g", "1",
            "--h", "2")),
    (None, ("classify", "--cyclic", "5", "--l", "2")),
    (None, ("classify", "--cyclic", "0", "--l", "2", "--k", "1", "--g", "1",
            "--h", "1")),
    (None, ("classify",)),
    ("group <h | h^5>; x; rel x^2 h^2 x^-1 h",
     ("order", "{file}", "--subgroup", "h^0")),
    ("group <h | h^5>; x; rel x^2 h^2 x^-1 h",
     ("order", "{file}", "--subgroup", "h^+1")),
], ids=("non-ascii-name", "unicode-digit", "not-utf8", "stargraph-no-x",
        "search-no-x", "picture-override-lacks-h", "picture-relator-no-x",
        "l-zero", "cyclic-incomplete", "cyclic-zero", "no-input", "subgroup-zero-exponent",
        "subgroup-plus-sign"))
def test_malformed_input_exits_2(fixtures_dir, tmp_path, capsys, text, argv):
    f = tmp_path / "p.txt"
    if isinstance(text, bytes):
        f.write_bytes(text)
    elif text is not None:
        f.write_text(text, encoding="utf-8")
    argv = [a.format(file=f, fig2=fixtures_dir / "fig2.json") for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_unreducible_relator_is_open(tmp_path, capsys):
    # at cap 4 the oracle cannot tell whether g is trivial in S3 x Z3, so the
    # relator's length-four shape is undecided: an open verdict, not a crash
    f = tmp_path / "p.txt"
    f.write_text("group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; "
                 "rel x^2 g x^-1 h")
    rc, out, err = run(capsys, "classify", str(f), "--cap", "4", "--verify")
    assert rc == 0 and err == ""
    assert out.startswith("OpenCase; dr=unknown; rule=open-blocked\n")
    assert "  instance: <G, x | x^2 g x^-1 h>\n" in out
    assert "  blocked on: cannot decide triviality of g\n" in out
    assert "[skipped] order-checks" in out
    rc, out, err = run(capsys, "classify", str(f), "--cap", "4",
                       "--format", "json")
    data = json.loads(out)
    assert rc == 0 and err == ""
    assert data["aspherical"] == data["dr"] == "unknown"
    assert data["rule"] == "open-blocked"
    assert data["blockers"] == ["cannot decide triviality of g"]


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


# relative presentations for `order` without --subgroup: A5 and PSL(2,7)
# with a trivial x, and the S3xZ3 and Z3xZ3 examples; three small table1
# fixtures join them
_ORDER_EXAMPLES = {
    "A5": "group <a, b | a^2, b^3, " + " ".join(["a b"] * 5) + ">; x; rel x",
    "PSL27": "group <a, b | a^2, b^3, " + " ".join(["a b"] * 7) + ", "
             + " ".join(["a^-1 b^-1 a b"] * 4) + ">; x; rel x",
    "S3xZ3": "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; "
             "rel x^2 g x^-1 h",
    "Z3xZ3": "group <g, h | g^3, h^3, g h g^-1 h^-1>; x; rel x^2 g x^-1 h",
}


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
@pytest.mark.parametrize("name", [*_ORDER_EXAMPLES, "{2,-1} K5", "{2,-1} L6",
                                  "{3,-1} K5"])
def test_order_without_subgroup_prints_the_regular_order(tmp_path, capsys,
                                                         name, strategy):
    from relasph.classify import TABLE1_FIXTURES
    from relasph.coset import enumerate_cosets, lift
    from relasph.words import parse_presentation
    if name in _ORDER_EXAMPLES:
        pres = parse_presentation(_ORDER_EXAMPLES[name])
        target = [str(tmp_path / "p.txt")]
        (tmp_path / "p.txt").write_text(_ORDER_EXAMPLES[name])
    else:
        fix = {f.name: f for f in TABLE1_FIXTURES}[name]
        pres = fix.instance().presentation()
        target = ["--cyclic", str(fix.n), "--l", str(fix.l), "--k",
                  str(fix.k), "--g", str(fix.a), "--h", str(fix.b)]
    t = enumerate_cosets(lift(pres), [], 10 ** 5, strategy=strategy)
    assert t.complete
    rc, out, _ = run(capsys, "order", *target, "--cap", str(10 ** 5),
                     "--strategy", strategy)
    assert rc == 0 and out == f"Finite({t.n})\n"


def test_order_counts_through_the_first_generator_when_it_can(
        tmp_path, capsys, monkeypatch):
    # |g| = 2 is pinned in S3xZ3, so the enumeration runs over <g>; |a| = 2
    # in A5 is not (A5 is perfect), so it enumerates the whole group
    from relasph import coset
    calls = []
    enumerate_cosets = coset.enumerate_cosets

    def counting(pres, subs, *args, **kwargs):
        calls.append(list(subs))
        return enumerate_cosets(pres, subs, *args, **kwargs)

    monkeypatch.setattr(coset, "enumerate_cosets", counting)
    for name, subs, line in (("S3xZ3", [(("g", 1),)], "Finite(27216)"),
                             ("A5", [], "Finite(60)")):
        f = tmp_path / f"{name}.txt"
        f.write_text(_ORDER_EXAMPLES[name])
        calls.clear()
        rc, out, _ = run(capsys, "order", str(f))
        assert rc == 0 and out == line + "\n"
        assert calls == [subs], name


def test_one_process_enumerates_a_repeated_table_once(capsys, monkeypatch):
    """order --subgroup h and classify --verify on one instance read the
    oracle's one table over <h>; another strategy or cap enumerates its
    own, and a budget table is kept like a complete one."""
    import importlib
    from relasph import coset
    monkeypatch.delenv("ASPH_COSET_CAP", raising=False)
    calls = []
    enumerate_cosets = coset.enumerate_cosets

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_cosets(*args, **kwargs)

    monkeypatch.setattr(coset, "enumerate_cosets", counting)
    monkeypatch.setattr(importlib.import_module("relasph.classify"),
                        "enumerate_cosets", counting)
    inst = ("--cyclic", "5", "--l", "2", "--k", "1", "--g", "2", "--h", "1")
    order = ("order", *inst, "--subgroup", "h")
    verify = ("classify", "--verify", *inst)

    def cold(*argv):
        monkeypatch.setattr(coset, "_context_cache", {})
        return run(capsys, *argv)

    expected = [cold(*order), cold(*verify)]
    assert expected[0] == (0, "Index(33)\n", "")
    assert "reproduces order 165" in expected[1][1]
    monkeypatch.setattr(coset, "_context_cache", {})
    calls.clear()
    assert [run(capsys, *order), run(capsys, *verify)] == expected
    assert len(calls) == 1
    for argv, line in (((*order, "--strategy", "felsch"), "Index(33)"),
                       ((*order, "--cap", "1000"), "Index(33)")):
        calls.clear()
        assert run(capsys, *argv) == (0, line + "\n", "")
        assert len(calls) == 1, argv
    calls.clear()
    for _ in range(2):
        assert run(capsys, *order, "--cap", "10") == \
            (0, "ExceedsBudget(10)\n", "")
    assert len(calls) == 1


def test_order_with_a_huge_exponent_exceeds_the_budget(tmp_path, capsys,
                                                       monkeypatch):
    """A coefficient relator of 10^12 letters is over any budget: order
    answers ExceedsBudget, with or without --subgroup, and expands no
    word (it used to end in a MemoryError traceback)."""
    monkeypatch.delenv("ASPH_COSET_CAP", raising=False)
    f = tmp_path / "p.txt"
    f.write_text("group <h | h^1000000000000>; x; rel x^2 h x^-1 h")
    for extra, cap in (([], DEFAULT_CAP), (["--subgroup", "h"], DEFAULT_CAP),
                       (["--cap", "50"], 50)):
        rc, out, err = run(capsys, "order", str(f), *extra)
        assert (rc, out, err) == (0, f"ExceedsBudget({cap})\n", ""), extra


def test_order_bogus_strategy_exits_2(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text(_ORDER_EXAMPLES["Z3xZ3"])
    with pytest.raises(SystemExit) as err:
        run(capsys, "order", str(f), "--strategy", "bogus")
    assert err.value.code == 2


def test_order_subgroup(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^8>; x; rel x^2 g^2 x^-1 g")
    rc, out, _ = run(capsys, "order", str(f), "--subgroup", "g",
                     "--cap", "3000000")
    assert rc == 0 and out.strip() == "Index(295245)"


def test_order_subgroup_felsch_agrees_with_hlt(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <h | h^2>; x; rel x")
    for strategy in ("hlt", "felsch"):
        rc, out, _ = run(capsys, "order", str(f), "--subgroup", "h^3",
                         "--strategy", strategy)
        assert rc == 0 and out.strip() == "Index(1)", strategy


@pytest.mark.parametrize("word,message", [
    ("h^x", "error: --subgroup: bad exponent in 'h^x'"),
    ("h, q", "error: --subgroup: unknown generator 'q'"),
], ids=("bad-exponent", "unknown-generator"))
def test_order_bad_subgroup_exits_2(tmp_path, capsys, word, message):
    f = tmp_path / "p.txt"
    f.write_text("group <h | h^2>; x; rel x")
    rc, out, err = run(capsys, "order", str(f), "--subgroup", word)
    assert rc == 2 and out == ""
    assert err == message + "\n"


def test_stargraph_dot(capsys):
    rc, out, _ = run(capsys, "stargraph", "--cyclic", "8", "--l", "2",
                     "--k", "-1", "--g", "2", "--h", "1")
    assert rc == 0
    assert out.count("--") == 3  # three unoriented edges
    assert "x_bar" in out


def test_stargraph_of_a_relator_ending_in_another_letter(tmp_path):
    # the relator starts and ends with x-syllables of different letters,
    # which never merge: cyclic reduction used to rotate it forever
    f = tmp_path / "xy.txt"
    f.write_text("group <g | g^2>; x, y; rel x y^-3")
    env = dict(os.environ, PYTHONPATH=str(Path(relasph.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "relasph", "stargraph",
                           str(f)], capture_output=True, text=True, env=env,
                          timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[5:9] == [
        '  x -- y [label="1"];', '  y_bar -- x_bar [label="1"];',
        '  y_bar -- y [label="1"];', '  y_bar -- y [label="1"];']


def test_weighttest_file(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^2>; x; rel x^3 g")
    w = tmp_path / "weights.txt"
    w.write_text("0 1/3\n1 1/3\n2 1/3\n")
    rc, out, _ = run(capsys, "weighttest", str(f), str(w), "--mode", "full")
    assert rc == 0
    assert "sum = 2" in out and "VIOLATED (weight 2/3" in out


def test_weighttest_search_rejects_a_huge_denominator_bound(tmp_path, capsys):
    """A denominator bound of 10^5 would build about 6 * 10^9 candidate
    values; the search refuses it at once with exit 2."""
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^2>; x; rel x^3 g")
    start = time.perf_counter()
    rc, out, err = run(capsys, "weighttest", str(f), "search",
                       "--denominator-bound", "100000")
    assert time.perf_counter() - start < 5
    assert (rc, out) == (2, "")
    assert err == "error: denominator bound must be at most 100, not 100000\n"


def test_weighttest_zero_denominator_exits_2(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <g | g^2>; x; rel x^3 g")
    w = tmp_path / "weights.txt"
    w.write_text("0 1/3\n1 1/0\n2 1/3\n")
    rc, out, err = run(capsys, "weighttest", str(f), str(w))
    assert rc == 2 and out == ""
    assert err.startswith("error: line 2:") and err.count("\n") == 1


def test_weighttest_repeated_pair_exits_2(tmp_path, capsys):
    f = tmp_path / "p.txt"
    f.write_text("group <h | h^5>; x; rel x^3 h")
    w = tmp_path / "weights.txt"
    w.write_text("0 1/3\n0 1\n1 1/3\n2 1/3\n")
    rc, out, err = run(capsys, "weighttest", str(f), str(w))
    assert rc == 2 and out == ""
    assert err == "error: line 2: pair 0 given twice\n"


@pytest.mark.parametrize("cap", ["0", "-5", str(MAX_CAP + 1)])
def test_cap_out_of_range_exits_2(capsys, cap):
    rc, out, err = run(capsys, "order", "--cyclic", "5", "--l", "2",
                       "--k", "-1", "--g", "2", "--h", "1", "--cap", cap)
    assert rc == 2 and out == ""
    assert err.startswith("error: --cap must be between") and err.count("\n") == 1


@pytest.mark.parametrize("env,line", [
    ("abc", "ASPH_COSET_CAP must be an integer, not 'abc'"),
    ("1e6", "ASPH_COSET_CAP must be an integer, not '1e6'"),
    ("0", f"ASPH_COSET_CAP must be between 1 and {MAX_CAP}, not 0"),
    (str(MAX_CAP + 1),
     f"ASPH_COSET_CAP must be between 1 and {MAX_CAP}, not {MAX_CAP + 1}"),
], ids=["abc", "1e6", "0", str(MAX_CAP + 1)])
def test_bad_cap_environment_exits_2(monkeypatch, capsys, env, line):
    # the message names the setting at fault, although --cap has a default
    monkeypatch.setenv("ASPH_COSET_CAP", env)
    rc, out, err = run(capsys, "table1", "--only", "L6")
    assert rc == 2 and out == ""
    assert err == f"error: {line}\n"


def test_cap_environment_sets_the_default(monkeypatch, capsys):
    # the parser is reused, but each call takes the cap of its environment
    f = ("order", "--cyclic", "2", "--l", "2", "--k", "2", "--g", "1",
         "--h", "1")
    for cap in ("2000", "3000"):
        monkeypatch.setenv("ASPH_COSET_CAP", cap)
        assert run(capsys, *f) == (0, f"ExceedsBudget({cap})\n", "")


def _exits(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_a_reused_parser_prints_what_a_fresh_one_does(monkeypatch, capsys):
    """A call after a usage error and after --help prints the bytes that
    the same call prints with a parser built for it alone."""
    monkeypatch.setenv("COLUMNS", "80")
    order = ("order", "--cyclic", "5", "--l", "2", "--k", "-1", "--g", "2",
             "--h", "1", "--cap", "1000")

    def cold(call, *argv):
        build_parser.cache_clear()
        return call(capsys, *argv)

    usage = ("order", "--strategy", "nope")
    cold_order = cold(run, *order)
    cold_usage = cold(_exits, *usage)
    cold_help = cold(_exits, "order", "--help")
    assert cold_order == (0, "Finite(55)\n", "")
    assert cold_usage[0] == 2
    assert cold_usage[2].startswith("usage: relasph order")
    assert cold_help[0] == 0
    assert cold_help[1].startswith("usage: relasph order")
    assert _exits(capsys, *usage) == cold_usage
    assert run(capsys, *order) == cold_order
    assert _exits(capsys, "order", "--help") == cold_help
    assert run(capsys, *order) == cold_order
    assert _exits(capsys, "order", "--help") == cold_help


def test_main_builds_the_parser_once(monkeypatch, capsys):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    monkeypatch.setenv("ASPH_COSET_CAP", "2000")
    build_parser.cache_clear()
    f = ("order", "--cyclic", "2", "--l", "2", "--k", "2", "--g", "1",
         "--h", "1")
    for _ in range(10):
        assert run(capsys, *f) == (0, "ExceedsBudget(2000)\n", "")
    assert builds == ["relasph"]
    # a cap from --cap or another environment reuses the same parser
    assert run(capsys, *f, "--cap", "500") == (0, "ExceedsBudget(500)\n", "")
    monkeypatch.setenv("ASPH_COSET_CAP", "3000")
    assert run(capsys, *f) == (0, "ExceedsBudget(3000)\n", "")
    assert builds == ["relasph"]


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


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", ["K7", "k5", ""])
def test_table1_only_without_a_fixture_exits_2(capsys, case, fmt):
    # selecting no fixture is malformed input, not a battery that passed
    rc, out, err = run(capsys, "table1", "--only", case, "--format", fmt)
    assert rc == 2 and out == ""
    assert err == (f"error: --only {case!r} selects no fixture; "
                   "the cases are K5, K6+, K6-, L6\n")


@pytest.mark.parametrize("mangle,error", [
    (lambda text: text[:-2], "error: picture is not JSON: "),
    (lambda text: text.replace('"arcs"', '"arks"'),
     "error: picture lacks the key 'arcs'"),
    (lambda text: text.replace('"group <', '"grope <'),
     "error: picture's presentation: expected keyword 'group'"),
    (lambda text: text.replace('"orient": 1', '"orient": "1"', 1),
     "error: arc 0: orient must be 1 or -1, not '1'"),
    (lambda text: text.replace('{"corner": "h^-1"}', '{"corner": "q"}', 1),
     "error: disc 0 corner: unknown generator 'q'"),
], ids=("not-json", "missing-key", "bad-presentation", "string-orient",
        "unknown-corner-generator"))
def test_picture_malformed_file_exits_2(fixtures_dir, tmp_path, capsys,
                                        mangle, error):
    f = tmp_path / "pic.json"
    f.write_text(mangle((fixtures_dir / "fig2.json").read_text()))
    rc, out, err = run(capsys, "picture", str(f))
    assert rc == 2 and out == ""
    assert err.startswith(error) and err.count("\n") == 1


@pytest.mark.parametrize("path,value,error", [
    (("discs", 0, "boundary", 0, "arc"), "a", "must be integers"),
    (("discs", 0, "boundary", 0, "arc"), None, "must be integers"),
    (("discs", 0, "boundary", 0, "arc"), [0], "must be integers"),
    (("discs", 0, "boundary", 0, "arc"), 1.0, "must be integers"),
    (("discs", 0, "boundary", 0, "end"), {}, "must be integers"),
    (("arcs", 0, "orient"), True, "orient must be 1 or -1, not True"),
], ids=("string-arc", "null-arc", "list-arc", "float-arc", "object-end",
        "boolean-orient"))
def test_picture_json_types_exit_2(fixtures_dir, tmp_path, capsys, path,
                                   value, error):
    data = json.loads((fixtures_dir / "fig2.json").read_text())
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    f = tmp_path / "pic.json"
    f.write_text(json.dumps(data))
    rc, out, err = run(capsys, "picture", str(f), "--reduce", "--curvature")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and error in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("mangle,args,summary", [
    (lambda d: d["discs"][0]["boundary"].__setitem__(0, {"arc": 2, "end": 1}),
     ("--reduce", "--curvature"),
     "discs: 4, regions: 0, connected: False, spherical: True"),
    (lambda d: d.__setitem__("discs", []), ("--reduce", "--curvature"),
     "discs: 0, regions: 0, connected: False, spherical: False"),
    (lambda d: d.update(discs=[], arcs=[], outer=[{"arc": 0, "end": 0}] * 2),
     ("--reduce",),
     "discs: 0, regions: 0, connected: False, spherical: False"),
], ids=("end-at-wrong-arc", "no-discs", "empty-map-repeated-end"))
def test_picture_broken_map_exits_2(fixtures_dir, tmp_path, capsys, mangle,
                                    args, summary):
    data = json.loads((fixtures_dir / "fig2.json").read_text())
    mangle(data)
    f = tmp_path / "pic.json"
    f.write_text(json.dumps(data))
    rc, out, err = run(capsys, "picture", str(f), *args)
    assert rc == 2 and "valid: NO" in out
    # the report counts the picture's own discs although the map cannot
    # be traced
    assert summary + "\n" in out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["order", "picture"])
def test_format_is_not_an_option_of(fixtures_dir, capsys, command):
    target = ("--cyclic", "5", "--l", "2", "--k", "1", "--g", "2", "--h", "1") \
        if command == "order" else (str(fixtures_dir / "fig2.json"),)
    with pytest.raises(SystemExit) as err:
        run(capsys, command, *target, "--format", "json")
    assert err.value.code == 2


@pytest.mark.parametrize("text", [None, "group <g | g^2> x; rel x"],
                         ids=("unreadable", "unparsable"))
def test_picture_bad_presentation_file_exits_2(fixtures_dir, tmp_path,
                                               capsys, text):
    f = tmp_path / "p.txt"
    if text is not None:
        f.write_text(text)
    rc, out, err = run(capsys, "picture", str(fixtures_dir / "fig2.json"),
                       "--presentation", str(f))
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_python_m_relasph_runs_the_cli(capsys):
    # `PYTHONPATH=src python -m relasph ...` from a checkout: same output
    # as main() in-process, and main()'s return code as the exit status
    argv = ["classify", "--cyclic", "5", "--l", "2", "--k", "-1",
            "--g", "2", "--h", "1"]
    env = dict(os.environ, PYTHONPATH=str(Path(relasph.__file__).parents[1]))
    for args, code in ((argv, 0), (argv + ["--cap", "0"], 2)):
        rc, out, err = run(capsys, *args)
        proc = subprocess.run([sys.executable, "-m", "relasph", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == rc == code
        assert (proc.stdout, proc.stderr) == (out, err)


def test_weighttest_json_is_identical_across_processes(tmp_path):
    # a bounded cycle check over a free group and a search over Z_13 print
    # the same bytes under different string-hash seeds
    from relasph.stargraph import build_star_graph
    from relasph.words import parse_presentation
    text = "group <g, h | >; x; rel x^3 g x^-2 h^2"
    f = tmp_path / "free.txt"
    f.write_text(text)
    w = tmp_path / "weights.txt"
    graph = build_star_graph(parse_presentation(text))
    w.write_text("".join(f"{pid} 1/2\n" for pid in graph.pair_ids()))
    runs = (
        ([str(f), str(w), "--mode", "full"], "violated"),
        (["--cyclic", "13", "--l", "2", "--k", "1", "--g", "1", "--h", "5",
          "search"], "certified"),
    )
    for args, status in runs:
        out = _json_under_two_hash_seeds("weighttest", *args)
        report = json.loads(out[out.index("{"):])
        assert report["condition_II"]["status"] == status


def _json_under_two_hash_seeds(*argv) -> str:
    """`python -m relasph *argv --format json` under PYTHONHASHSEED 1 and
    2; asserts a clean exit and identical bytes, and returns them."""
    src = str(Path(relasph.__file__).parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "relasph", *argv, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    return outs[0]


def test_classify_json_is_identical_across_processes(tmp_path):
    # verified verdicts over a non-cyclic group and over Z_6, and an open
    # verdict whose case hits come from subgroup orders
    files = {}
    for name, text in (
            ("s3xz3", "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; "
                      "x; rel x^2 g x^-1 h"),
            ("z2xz4", "group <a, b | a^2, b^4, a b a^-1 b^-1>; x; "
                      "rel x^1 a x^-6 b")):
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    runs = (
        ([str(files["s3xz3"]), "--verify"], "no", ["claimed-order"]),
        (["--cyclic", "6", "--l", "2", "--k", "-1", "--g", "3", "--h", "1",
          "--verify"], "no", ["claimed-order"]),
        ([str(files["z2xz4"])], "unknown", None),
    )
    for args, aspherical, checks in runs:
        out = json.loads(_json_under_two_hash_seeds("classify", *args))
        assert out["aspherical"] == aspherical
        if checks is not None:
            assert [c["check"] for c in out["verify"]] == checks
    assert out["cases"] == ["BBP-E4", "AAE-E"]


def test_table1_json_is_identical_across_processes():
    rows = json.loads(_json_under_two_hash_seeds("table1", "--only", "L6"))
    assert [r["fixture"] for r in rows] == \
        ["{2,1} L6", "{2,-1} L6", "{3,-1} L6"]
    assert all(r["order_ok"] and r["verdict_ok"] for r in rows)
