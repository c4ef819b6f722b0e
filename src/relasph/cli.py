"""Command-line front end.

Subcommands: classify, table1, order, stargraph, weighttest, picture.
Budget exhaustion is reported in the output and exits 0 (scientific
openness is not a tool failure).  Malformed input exits 2 with one line
on stderr that starts with ``error: ``: a presentation, ``--subgroup``
word, weights file or picture file that does not parse, or that is not
UTF-8 text; a file that cannot be read; a ``--cap`` or ASPH_COSET_CAP
outside 1..coset.MAX_CAP (the message names the one at fault), a
non-integer ASPH_COSET_CAP or a non-positive bound; ``--cyclic`` without
all four of --l, --k, --g and --h, or neither a file nor ``--cyclic``; an
instance that is not of length four (l = 0 among them); a relator without
x-letters where a star graph or picture needs one; a picture corner
naming a generator its group lacks; a ``table1 --only`` case that selects
no fixture; and a picture that cannot be reduced or measured, after its
report.  Every such error is a ValueError (or an OSError) caught once, in
`main`.  Table mismatches and fatal verification inconsistencies exit 1.
The environment variable ASPH_COSET_CAP overrides the default coset cap;
`main` reads it on every call, before it parses the arguments.

The argument parser is built on the first `main` call, which takes about
1-2 ms, and reused by every later call in the process, whatever the cap:
``--cap`` has no parser default, and `main` fills in the default cap after
parsing.  A fresh process pays the build once, as before.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import coset
from .classify import (
    EXTENDED_FIXTURE,
    TABLE1_FIXTURES,
    LengthFourInstance,
    classify,
    classify_presentation,
    fixture_order,
    verify_verdict,
)
from .coset import lift
from .pictures import (
    cancel_dipole,
    curvature,
    find_dipole,
    picture_from_json,
    standard_angles,
    validate_picture,
)
from .stargraph import build_star_graph, to_dot
from .weights import (
    MAX_DENOMINATOR_BOUND,
    WeightFunction,
    check_weight_function,
    search_weight_function,
)
from .words import (
    TriState,
    cyclic,
    parse_presentation,
    parse_word,
    word_str,
)


def _check_cap(cap: int, name: str) -> int:
    if not 1 <= cap <= coset.MAX_CAP:
        raise ValueError(
            f"{name} must be between 1 and {coset.MAX_CAP}, not {cap}")
    return cap


def default_cap() -> int:
    """ASPH_COSET_CAP if set, else the library's default cap."""
    env = os.environ.get("ASPH_COSET_CAP")
    if not env:
        return coset.DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(
            f"ASPH_COSET_CAP must be an integer, not {env!r}") from None
    return _check_cap(cap, "ASPH_COSET_CAP")


def _check_arguments(args):
    _check_cap(args.cap, "--cap")
    for name in ("bound", "denominator_bound"):
        if getattr(args, name, 1) < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_presentation(args):
    if args.cyclic is not None:
        if None in (args.l, args.k, args.g, args.h):
            raise ValueError("--cyclic requires --l, --k, --g and --h")
        inst = LengthFourInstance(
            cyclic(args.cyclic, "h"), (("h", args.g),), (("h", args.h),),
            args.l, args.k)
        return inst.presentation()
    if not args.presentation:
        raise ValueError("need a presentation file or --cyclic shorthand")
    return parse_presentation(_read(args.presentation))


def _tri(t: TriState) -> str:
    return t.value


def cmd_classify(args) -> int:
    cap = args.cap
    pres = _load_presentation(args)
    inst, described, verdict = classify_presentation(pres, cap)
    out = {
        "instance": described,
        "dr": _tri(verdict.dr),
        "aspherical": _tri(verdict.aspherical),
        "rule": verdict.justification,
        "detail": verdict.detail,
        "conjectural": verdict.conjectural,
        "cases": list(verdict.case_hits),
        "blockers": list(verdict.blockers),
    }
    if verdict.expected_core_order:
        out["defined_group_order"] = verdict.expected_core_order
    rc = 0
    if args.verify:
        report = verify_verdict(inst, verdict, cap)
        out["verify"] = [{"check": c.name, "status": c.status,
                          "detail": c.detail} for c in report.checks]
        if not report.ok:
            rc = 1
    if args.format == "json":
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(verdict.summary())
        print(f"  instance: {out['instance']}")
        print(f"  detail: {verdict.detail}")
        if verdict.case_hits:
            print(f"  cases holding: {', '.join(verdict.case_hits)}")
        if verdict.blockers:
            print(f"  blocked on: {'; '.join(verdict.blockers)}")
        if args.verify:
            for line in report.lines():
                print("  " + line)
    return rc


def cmd_table1(args) -> int:
    fixtures = list(TABLE1_FIXTURES)
    if args.extended:
        fixtures.append(EXTENDED_FIXTURE)
    if args.only is not None:
        cases = dict.fromkeys(f.case for f in fixtures)
        fixtures = [f for f in fixtures if f.case == args.only]
        if not fixtures:
            raise ValueError(f"--only {args.only!r} selects no fixture; "
                             f"the cases are {', '.join(cases)}")
    rc = 0
    rows = []
    for fix in fixtures:
        inst = fix.instance()
        got = fixture_order(fix, args.cap)
        order_ok = got.is_finite and got.value == fix.expected_order
        verdict = classify(inst, args.cap)
        verdict_ok = verdict.aspherical == TriState.NO
        if not (order_ok and verdict_ok):
            rc = 1
        rows.append((fix, got, order_ok, verdict, verdict_ok))
    if args.format == "json":
        print(json.dumps([{
            "fixture": f.name, "case": f.case,
            "expected": f.expected_order, "computed": str(got),
            "order_ok": order_ok, "verdict": v.summary(), "verdict_ok": vok,
        } for f, got, order_ok, v, vok in rows], indent=2, sort_keys=True))
    else:
        for f, got, order_ok, v, vok in rows:
            mark = "ok " if (order_ok and vok) else "FAIL"
            print(f"[{mark}] {f.name:22s} expected {f.expected_order:>9} "
                  f"computed {str(got):>18}  {v.summary()}")
        print("all checks passed" if rc == 0 else "MISMATCH", file=sys.stderr)
    return rc


def cmd_order(args) -> int:
    pres = _load_presentation(args)
    lifted = lift(pres)
    if not args.subgroup:
        # |G| = [G:<g>] * |g| over the first generator g where |g| is pinned
        print(coset.order_via_cyclic_subgroup(
            lifted, ((lifted.generators[0], 1),), args.cap, args.strategy))
        return 0
    subgroup = [parse_word(chunk, lifted.generators, "--subgroup: ")
                for chunk in args.subgroup.split(",")]
    t = coset.context_for(lifted, args.cap).coset_table(subgroup, args.strategy)
    print(f"Index({t.n})" if t.complete else f"ExceedsBudget({args.cap})")
    return 0


def cmd_stargraph(args) -> int:
    pres = _load_presentation(args)
    graph = build_star_graph(pres)
    if args.format == "json":
        data = [{
            "id": e.eid,
            "source": f"{e.source[0]}{'' if e.source[1] == 1 else '^-1'}",
            "target": f"{e.target[0]}{'' if e.target[1] == 1 else '^-1'}",
            "label": word_str(e.label),
            "pair": graph.pair_id(e.eid),
            "origin": list(e.origin),
        } for e in graph.edges]
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(to_dot(graph), end="")
    return 0


def cmd_weighttest(args) -> int:
    pres = _load_presentation(args)
    graph = build_star_graph(pres)
    ctx = coset.context_for(pres.coeff, args.cap)
    if args.weights == "search":
        res = search_weight_function(graph, ctx, args.denominator_bound,
                                     args.bound)
        if res.found is None:
            print("no passing weight function found"
                  + (" (search capped)" if res.capped else ""))
            return 0
        theta = res.found
        print("found weight function: "
              + ", ".join(f"{pid}: {w}" for pid, w in sorted(theta.weights.items())))
    else:
        theta = WeightFunction.from_text(graph, _read(args.weights))
    report = check_weight_function(graph, theta, ctx, mode=args.mode,
                                   bound=args.bound)
    if args.format == "json":
        print(json.dumps({
            "condition_I": [{"relator": r.relator, "sum": str(r.total),
                             "ok": r.ok} for r in report.condition_I],
            "condition_II": {
                "status": report.condition_II.status,
                "min_weight": None if report.condition_II.min_weight is None
                else str(report.condition_II.min_weight),
                "witness": list(report.condition_II.witness)
                if report.condition_II.witness else None,
                "bound": report.condition_II.bound,
                "note": report.condition_II.note,
            },
            "nonnegative_cycles": report.nonneg_cycles,
            "passes": report.passes(),
        }, indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
        print("weight function passes" if report.passes()
              else "weight function does not certify reducibility")
    return 0


def cmd_picture(args) -> int:
    pres = parse_presentation(_read(args.presentation)) \
        if args.presentation else None
    pic, pres = picture_from_json(_read(args.picture), pres)
    if pres is None:
        raise ValueError("picture file carries no presentation; "
                         "pass --presentation")
    ctx = coset.context_for(pres.coeff, args.cap)
    report = validate_picture(pic, pres, ctx)
    for line in report.lines():
        print(line)
    # a broken map still gets its report; reducing or measuring it then
    # raises ValueError
    if args.reduce:
        steps = 0
        cur = pic
        while True:
            d = find_dipole(cur, pres, ctx)
            if d is None:
                break
            cur = cancel_dipole(cur, d)
            steps += 1
            print(f"cancelled dipole at arc {d.arc} (region {d.region}); "
                  f"{len(cur.discs)} discs remain")
        if steps == 0:
            print("reduced: no dipole found")
        else:
            print(f"reduced after {steps} cancellations")
    if args.curvature:
        per, total = curvature(pic, standard_angles(pic))
        for ri, c in sorted(per.items()):
            print(f"curvature of region {ri}: {c} pi")
        print(f"total curvature: {total} pi")
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once a process.  ``--cap``
    parses to None where it is not given; `main` fills in the default."""
    ap = argparse.ArgumentParser(
        prog="relasph",
        description="asphericity and diagrammatic reducibility of "
                    "one-relator relative presentations")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, formats=True):
        p.add_argument("presentation", nargs="?",
                       help="presentation file (grammar: group <gens | "
                            "relators>; x-gens; rel word [; rel word]*)")
        p.add_argument("--cyclic", type=int, metavar="N",
                       help="shorthand coefficient group Z_N")
        p.add_argument("--l", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--g", type=int, metavar="A",
                       help="g = h^A in the cyclic shorthand")
        p.add_argument("--h", type=int, metavar="B")
        p.add_argument("--cap", type=int,
                       help="coset enumeration budget")
        if formats:
            p.add_argument("--format", choices=("text", "json"),
                           default="text")

    p = sub.add_parser("classify", help="classify a length-four instance")
    add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="cross-check the verdict by coset enumeration")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("table1", help="run the resolved-order fixture battery")
    p.add_argument("--extended", action="store_true",
                   help="include the order-24530688 case (minutes)")
    p.add_argument("--only", metavar="CASE",
                   help="restrict to one case column, e.g. K5")
    p.add_argument("--cap", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("order", help="order of the defined group")
    add_common(p, formats=False)
    p.add_argument("--subgroup", help="comma-separated subgroup generator words")
    p.add_argument("--strategy", choices=("hlt", "felsch"), default="hlt")
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("stargraph", help="star graph of a presentation")
    add_common(p)
    p.set_defaults(fn=cmd_stargraph)

    p = sub.add_parser("weighttest", help="check or search weight functions")
    add_common(p)
    p.add_argument("weights",
                   help="weights file (lines: pair_id p/q) or 'search'")
    p.add_argument("--mode", choices=("weak", "full"), default="weak")
    p.add_argument("--bound", type=int, default=6,
                   help="cycle-length bound for non-exact condition II")
    p.add_argument("--denominator-bound", type=int, default=3,
                   help="largest denominator of a searched weight, at most "
                   f"{MAX_DENOMINATOR_BOUND}")
    p.set_defaults(fn=cmd_weighttest)

    p = sub.add_parser("picture", help="validate / reduce a picture")
    p.add_argument("picture", help="picture JSON file")
    p.add_argument("--presentation", help="presentation file override")
    p.add_argument("--reduce", action="store_true",
                   help="cancel dipoles until reduced")
    p.add_argument("--curvature", action="store_true",
                   help="standard-angle curvature per region")
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=cmd_picture)
    return ap


def main(argv=None) -> int:
    try:
        cap = default_cap()
        args = build_parser().parse_args(argv)
        if args.cap is None:
            args.cap = cap
        _check_arguments(args)
        return args.fn(args)
    except (OSError, ValueError) as err:
        # malformed input: readers and validators raise ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
