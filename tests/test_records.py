"""The library's value records: reprs, hashes, validation errors and
immutability, each recorded from the frozen dataclasses the records were
before they became NamedTuples, and the start-up imports they no longer
pull in."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import relasph
from relasph.classify import (
    TABLE1_FIXTURES,
    LengthFourInstance,
    case_flags,
    classify,
    instance_from_presentation,
    pair_facts,
    verify_verdict,
)
from relasph.coset import LiftedPresentation, context_for, lift
from relasph.pictures import find_dipole, picture_from_json, validate_picture
from relasph.stargraph import (
    admissible_cycles,
    build_star_graph,
    product_graph,
)
from relasph.weights import (
    WeightFunction,
    check_weight_function,
    search_weight_function,
)
from relasph.words import (
    CoefficientGroup,
    OrderResult,
    RelativePresentation,
    fpw,
    is_orientable,
    mu,
    parse_presentation,
    xsyl,
)

SRC = str(Path(relasph.__file__).resolve().parents[1])
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
TEXT = "group <g | g^6>; x; rel x^2 g x^-1 g^2"


def _records() -> dict:
    """One instance of each record type, by type name."""
    pres = parse_presentation(TEXT)
    ctx = context_for(pres.coeff, 1000)
    inst = instance_from_presentation(pres, 1000)
    flags = case_flags(inst, 1000)
    verdict = classify(inst, 1000)
    report = verify_verdict(inst, verdict, 1000)
    graph = build_star_graph(pres)
    theta = WeightFunction.uniform(graph, Fraction(1, 2))
    weights = check_weight_function(graph, theta, ctx, mode="full")
    fig2, fig2_pres = picture_from_json((FIXTURES / "fig2.json").read_text())
    fig1a, fig1a_pres = picture_from_json((FIXTURES / "fig1a.json").read_text())
    validation = validate_picture(fig2, fig2_pres,
                                  context_for(fig2_pres.coeff, 10 ** 4))
    return {
        "OrderResult": OrderResult.exceeds(1000),
        "CoefficientGroup": pres.coeff,
        "FreeProductWord": pres.relators[0],
        "RelativePresentation": pres,
        "OrientabilityResult": is_orientable(pres, ctx),
        "MuValue": mu(ctx, inst.g, inst.h),
        "LiftedPresentation": lift(pres),
        "LengthFourInstance": inst,
        "Side": flags.sides[0],
        "CaseFlags": flags,
        "Pair": pair_facts(ctx, inst.g, inst.h),
        "CaseVerdict": verdict,
        "VerifyCheck": report.checks[0],
        "VerifyReport": report,
        "Fixture": TABLE1_FIXTURES[0],
        "StarEdge": graph.edges[0],
        "AdmissibleCycle": admissible_cycles(graph, ctx, 4)[0],
        "WeightFunction": theta,
        "ConditionIResult": weights.condition_I[0],
        "ConditionIIResult": weights.condition_II,
        "WeightReport": weights,
        "SearchResult": search_weight_function(graph, ctx, max_candidates=50),
        "Arc": fig2.arcs[0],
        "Disc": fig2.discs[0],
        "Picture": fig2,
        "Region": validation.regions[0],
        "DiscCheck": validation.discs[0],
        "ValidationReport": validation,
        "Dipole": find_dipole(fig1a, fig1a_pres,
                              context_for(fig1a_pres.coeff, 10 ** 4)),
    }


# sha256 of the newline-joined lines "<type name> <repr>" over _records()
_REPR_DIGEST = (
    "8a5c7934aee9704a8fb19e60183e60332902a36cd7083ab179a1c0fe51260085")


def test_record_reprs():
    assert repr(OrderResult.finite(6)) == \
        "OrderResult(kind='finite', value=6, cap=0)"
    assert repr(parse_presentation(TEXT)) == (
        "RelativePresentation(coeff=CoefficientGroup(generators=('g',), "
        "relators=((('g', 6),),)), x_gens=('x',), relators=("
        "FreeProductWord(syllables=(('x', 'x', 2), ('c', (('g', 1),)), "
        "('x', 'x', -1), ('c', (('g', 2),)))),))")
    records = _records()
    for name, rec in records.items():
        assert repr(rec).startswith(f"{name}("), name
    lines = [f"{name} {rec!r}" for name, rec in records.items()]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _REPR_DIGEST


_HASHES = """
from relasph.classify import instance_from_presentation
from relasph.coset import lift
from relasph.words import OrderResult, parse_presentation
pres = parse_presentation({text!r})
print(hash(pres), hash(pres.coeff), hash(lift(pres)),
      hash(instance_from_presentation(pres, 1000)), hash(OrderResult.finite(6)))
"""

# the hashes _HASHES prints under each PYTHONHASHSEED, for the string hash
# algorithm and width they were recorded with
_RECORDED_HASHES = {("siphash13", 64): {
    "1": ["4305732493792839054", "7955779348232680871", "-5365641069760767368",
          "1443252510949338323", "505740348909410150"],
    "2": ["759303732949897889", "-5278763182979366248", "-6551605062450529324",
          "-1187898071308115466", "-3340322907143523439"],
}}


def test_record_hashes_across_hash_seeds():
    got = {}
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHES.format(text=TEXT)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        got[seed] = proc.stdout.split()
    # string hashes differ between the seeds, and so do the records'
    assert got["1"] != got["2"]
    recorded = _RECORDED_HASHES.get((sys.hash_info.algorithm,
                                     sys.hash_info.width))
    if recorded is not None:
        assert got == recorded
    # a record hashes as the tuple of its fields
    pres = parse_presentation(TEXT)
    assert hash(pres) == hash((pres.coeff, pres.x_gens, pres.relators))
    assert hash(pres.coeff) == hash((pres.coeff.generators,
                                     pres.coeff.relators))


def test_record_validation():
    G = CoefficientGroup(["g"], [[("g", 2), ("g", 1)], [("g", 1), ("g", -1)]])
    assert G == CoefficientGroup(("g",), ((("g", 3),),))
    assert G.generators == ("g",) and G.relators == ((("g", 3),),)
    assert LiftedPresentation(("g",), ([("g", 1), ("g", 1)],)).relators == \
        ((("g", 2),),)
    word = fpw(xsyl("y", 1))
    with pytest.raises(ValueError, match=r"^x-generators clash with "
                       r"coefficient generators: \['g'\]$"):
        RelativePresentation(G, ("g",), ())
    with pytest.raises(ValueError,
                       match=r"^unknown x-generator 'y' in relator$"):
        RelativePresentation(G, ("x",), (word,))
    for l, k in ((0, 1), (-1, 2), (2, 0)):
        with pytest.raises(ValueError, match=r"^need l > 0 and k != 0$"):
            LengthFourInstance(G, (("g", 1),), (("g", 2),), l, k)
    inst = LengthFourInstance(G, [("g", 1)], [("g", 2)], 2, -1)
    assert (inst.g, inst.h, inst.x) == ((("g", 1),), (("g", 2),), "x")
    theta = WeightFunction({0: 1, 2: "1/3"})
    assert theta.weights == {0: Fraction(1), 2: Fraction(1, 3)}
    assert all(type(v) is Fraction for v in theta.weights.values())
    # the NamedTuple copy paths validate as the constructor does
    with pytest.raises(ValueError, match=r"^need l > 0 and k != 0$"):
        inst._replace(k=0)
    with pytest.raises(ValueError, match=r"^unknown x-generator 'y'"):
        RelativePresentation._make((G, ("x",), (word,)))
    assert G._replace(relators=[[("g", 4), ("g", -1)]]).relators == \
        ((("g", 3),),)


def test_records_are_immutable():
    records = _records()
    graph = build_star_graph(parse_presentation(TEXT))
    records["StarGraph"] = graph
    records["ProductGraph"] = product_graph(
        graph, context_for(graph.presentation.coeff, 1000).regular_table())
    assert len(records) == 31
    for name, rec in records.items():
        for field in type(rec)._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
        with pytest.raises(AttributeError):
            rec.extra = None


def test_import_loads_no_dataclasses_or_inspect():
    code = ("import sys, relasph, relasph.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
