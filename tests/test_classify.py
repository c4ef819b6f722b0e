from __future__ import annotations

import functools
import hashlib
import importlib
import random

import pytest

from relasph.classify import (
    CASE_NAMES,
    EXCEPTIONAL_NAMES,
    POWERS,
    LengthFourInstance,
    _spread_exponent_case,
    case_flags,
    classify,
    classify_presentation,
    instance_from_presentation,
    verify_verdict,
)
from relasph import coset
from relasph.coset import enumerate_cosets
from relasph.words import (
    CoefficientGroup,
    TriState,
    cyclic,
    free_group,
    parse_presentation,
    parse_word,
)

YES, NO, UNKNOWN = TriState.YES, TriState.NO, TriState.UNKNOWN


def cyc(n, l, k, a, b):
    return LengthFourInstance(cyclic(n, "h"), (("h", a),), (("h", b),), l, k)


Z2Z4 = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 4),),
                                     (("a", 1), ("b", 1), ("a", -1), ("b", -1))))
S3xZ3 = CoefficientGroup(
    ("g", "h"), ((("g", 2),), (("h", 3),),
                 (("g", 1), ("h", 1)) * 2 + (("g", -1), ("h", -1)) * 2))
Z3Z3 = CoefficientGroup(("g", "h"), ((("g", 3),), (("h", 3),),
                                     (("g", 1), ("h", 1), ("g", -1), ("h", -1))))


def test_instance_extraction_and_length_check():
    p = parse_presentation("group <g | g^4>; x; rel x^4 g x^-3 g^2")
    inst = instance_from_presentation(p)
    assert (inst.l, inst.k) == (4, -3)
    assert inst.g == (("g", 1),) and inst.h == (("g", 2),)
    bad = parse_presentation("group <g | g^4>; x; rel x^2 g")
    with pytest.raises(ValueError, match="length four"):
        instance_from_presentation(bad)


def test_trivial_coefficient_rejected():
    with pytest.raises(ValueError, match="trivial"):
        classify(cyc(4, 2, 1, 4, 1), 1000)


def test_flag_table_j4():
    f = case_flags(cyc(4, 4, -3, 1, 2), 10 ** 4)
    assert f["J4"] == YES and f["Z"] == NO and f["P"] == NO
    assert f.mu.value == 1


def test_flag_table_bbp_e4():
    inst = LengthFourInstance(Z2Z4, (("a", 1),), (("b", 1),), 3, 1)
    f = case_flags(inst, 10 ** 4)
    assert f["BBP-E4"] == YES
    assert all(f[c] == NO for c in CASE_NAMES)
    assert f.mu.value == 1


def test_flag_overlap_recorded():
    # h = g^2 with |g| = 4 satisfies J4, D-E1 and D-E2 simultaneously
    f = case_flags(cyc(4, 4, -3, 1, 2), 10 ** 4)
    assert set(f.holding()) >= {"J4", "D-E1", "D-E2"}


def test_j4_positive_instance():
    inst = cyc(4, 4, -3, 1, 2)
    v = classify(inst, 10 ** 4)
    assert v.aspherical == YES and v.dr in (YES, UNKNOWN)
    assert v.justification == "case-J4-isomorphism"
    rep = verify_verdict(inst, v, 10 ** 4)
    assert rep.ok
    assert enumerate_cosets(inst.lifted(), [], 10 ** 4).n == 4


def test_j4_negative_instance():
    v = classify(cyc(4, 2, 1, 2, 1), 10 ** 4)
    assert v.aspherical == NO and v.dr == NO


def test_case_z_and_m_never_aspherical_here():
    assert classify(cyc(6, 2, -1, 1, 1), 10 ** 4).aspherical == NO
    assert classify(cyc(5, 3, 1, 1, 4), 10 ** 4).aspherical == NO
    assert classify(cyc(6, 2, -1, 1, 1), 10 ** 4).justification == "case-Z-isomorphism"


def test_proper_power_precedence():
    # g = h with l = k dominates everything else: never aspherical
    for n, l in ((4, 2), (6, 3)):
        v = classify(cyc(n, l, l, 1, 1), 10 ** 4)
        assert v.aspherical == NO and v.justification == "relator-proper-power"
        assert v.dr == YES  # equal exponents with g = h stay reducible


def test_equal_exponents_rule():
    # g != h with finite |g^-1 h|: neither; infinite: both
    v = classify(cyc(5, 2, 2, 1, 2), 10 ** 4)
    assert v.dr == NO and v.aspherical == NO
    G = free_group("g")
    v = classify(LengthFourInstance(G, (("g", 1),), (("g", 3),), 2, 2), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES


def test_opposite_exponents_rule():
    G = free_group("g", "h")
    v = classify(LengthFourInstance(G, (("g", 1),), (("h", 1),), 3, -3), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES
    v = classify(cyc(6, 2, -2, 1, 2), 10 ** 4)
    assert v.aspherical == NO


def test_non_orientable_instance():
    G = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 2),),
                                      (("a", 1), ("b", 1), ("a", -1), ("b", -1))))
    v = classify(LengthFourInstance(G, (("a", 1),), (("b", 1),), 2, -2), 10 ** 4)
    assert v.aspherical == NO and v.justification == "relator-non-orientable"


def test_torsion_free_shortcut():
    G = free_group("g")
    v = classify(LengthFourInstance(G, (("g", 1),), (("g", 5),), 3, 2), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES
    assert v.justification == "torsion-free-coefficients"


def test_bbp_e4_instance_is_aspherical():
    inst = LengthFourInstance(Z2Z4, (("a", 1),), (("b", 1),), 3, 1)
    v = classify(inst, 10 ** 4)
    assert v.dr == YES and v.aspherical == YES and v.justification == "lk-n-1"
    assert verify_verdict(inst, v, 10 ** 4).ok


def test_unresolved_table_cells_are_open():
    # K6+ at {4,1} is an open table cell
    v = classify(cyc(6, 4, 1, 2, 1), 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "table-open"
    open_cells = [
        (6, 3, 1, 2, 1),   # {3,1} K6+
        (6, 3, 1, 4, 1),   # {3,1} K6-
        (6, 4, 1, 2, 1), (6, 4, 1, 4, 1), (6, 4, 1, 3, 1),   # {4,1}
        (6, 3, 2, 2, 1), (6, 3, 2, 4, 1), (6, 3, 2, 3, 1),   # {3,2}
        (5, 5, 1, 2, 1), (6, 5, 1, 2, 1), (6, 5, 1, 4, 1), (6, 5, 1, 3, 1),
        (5, 5, 3, 2, 1), (6, 5, 3, 3, 1),                    # general l,k>0
        (6, 3, -1, 2, 1), (6, 3, -1, 4, 1),                  # {3,-1} K6+-
    ]
    for n, l, k, a, b in open_cells:
        v = classify(cyc(n, l, k, a, b), 10 ** 4)
        assert v.aspherical == UNKNOWN, (n, l, k, a, b, v.summary())
        assert v.justification == "table-open"


def test_resolved_negative_cells():
    cells = [
        ((5, 2, 1, 2, 1), 165), ((6, 2, 1, 2, 1), 378),
        ((6, 2, 1, 4, 1), 342), ((6, 2, 1, 3, 1), 342),
        ((5, 3, 1, 2, 1), 1100), ((5, 4, 1, 2, 1), 3775),
        ((5, 3, 2, 2, 1), 2525), ((5, 2, -1, 2, 1), 55),
        ((6, 2, -1, 2, 1), 336), ((6, 2, -1, 3, 1), 54),
        ((5, 3, -1, 2, 1), 110), ((6, 3, -1, 3, 1), 9072),
    ]
    for args, order in cells:
        v = classify(cyc(*args), 10 ** 4)
        assert v.aspherical == NO and v.dr == NO, args
        assert v.expected_core_order == order, (args, v.expected_core_order)


def test_three_manifold_cell():
    v = classify(cyc(6, 2, -1, 4, 1), 10 ** 4)
    assert v.aspherical == NO and v.justification == "three-manifold-core"


def test_2neg1_obstruction_examples():
    inst = LengthFourInstance(S3xZ3, (("g", 1),), (("h", 1),), 2, -1)
    v = classify(inst, 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-iii"
    assert v.expected_core_order == 27216
    inst = LengthFourInstance(Z3Z3, (("g", 1),), (("h", 1),), 2, -1)
    v = classify(inst, 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-iv"
    assert v.expected_core_order == 13608
    v = classify(cyc(8, 2, -1, 2, 1), 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-E-E3"
    assert v.expected_core_order == 2361960
    # (i): h = g^-2 with finite order outside K6-: n = 10
    v = classify(cyc(10, 2, -1, 1, -2), 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-i"
    # (ii): commuting with an order-2 coefficient: Z2 x Z5
    G25 = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 5),),
                                        (("a", 1), ("b", 1), ("a", -1), ("b", -1))))
    v = classify(LengthFourInstance(G25, (("a", 1),), (("b", 1),), 2, -1), 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-ii"
    # (v): |g| = |h| = 7 with g = h^2
    v = classify(cyc(7, 2, -1, 2, 1), 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-v"
    # (vi): |g| = |h| = 9 with g = h^2
    v = classify(cyc(9, 2, -1, 2, 1), 10 ** 4)
    assert v.aspherical == NO and v.justification == "lk-2-neg1-vi"


def test_2neg1_exceptional_families_open():
    # E-E1: |g| = 9, |h| = 3, h = g^3
    v = classify(cyc(9, 2, -1, 1, 3), 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "open-exceptional-E-E1"
    # E-E2: h = g^-3
    v = classify(cyc(9, 2, -1, 1, -3), 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "open-exceptional-E-E2"


def test_2neg1_positive():
    # Z11 with g = t, h = t^4: no case, no obstruction
    v = classify(cyc(11, 2, -1, 1, 4), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES and v.justification == "lk-2-neg1"


def test_3neg1_exceptional_families_open():
    inst = LengthFourInstance(Z2Z4, (("a", 1), ("b", 2)), (("b", 1),), 3, -1)
    f = case_flags(inst, 10 ** 4)
    assert f["AAE-E"] == YES
    v = classify(inst, 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "open-exceptional-AAE-E"
    v = classify(cyc(8, 3, -1, 4, 1), 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "open-exceptional-AAE-E4"


def test_3neg1_positive():
    v = classify(cyc(11, 3, -1, 1, 4), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES and v.justification == "lk-3-neg1"


def test_hm_family_open_at_32():
    # g = h^2 with 6 < |h| finite at exponents (3,2) stays open
    v = classify(cyc(9, 3, 2, 2, 1), 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "open-exceptional-HM-E"


def test_aej_family_conjectural():
    v = classify(cyc(8, 4, 3, 2, 1), 10 ** 4)
    assert v.conjectural and v.aspherical == UNKNOWN
    assert v.justification == "conjecture-positive-exponents"


def test_case_p_family_verdicts():
    S3 = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 3),),
                                       (("a", 1), ("b", 1)) * 2))
    # {2,1}: proven non-aspherical
    v = classify(LengthFourInstance(S3, (("a", 1),), (("b", 1),), 2, 1), 10 ** 4)
    assert v.aspherical == NO and v.justification == "case-P-platonic"
    # {3,1}: non-weakly aspherical, hence non-aspherical
    v = classify(LengthFourInstance(S3, (("a", 1),), (("b", 1),), 3, 1), 10 ** 4)
    assert v.aspherical == NO
    # spread exponents with mu > 1: only conjectural
    A5ish = CoefficientGroup(("a", "b"), ((("a", 2),), (("b", 3),),
                                          (("a", 1), ("b", 1)) * 5))
    v = classify(LengthFourInstance(A5ish, (("a", 1),), (("b", 1),), 5, 2), 10 ** 4)
    assert v.conjectural and v.aspherical == UNKNOWN and v.dr == NO


def test_negative_k_one_families():
    v = classify(cyc(11, 5, -1, 1, 3), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES and v.justification == "lk-l-neg1"
    # D-E4 instance resolved by the spread-exponent theorem
    v = classify(cyc(9, 4, -1, 3, 1), 10 ** 4)
    assert v.aspherical == YES and v.dr == UNKNOWN
    assert v.justification == "spread-exponents"
    # K5 at l >= 7, k = -1
    v = classify(cyc(5, 7, -1, 2, 1), 10 ** 4)
    assert v.dr == YES and v.aspherical == YES
    assert v.justification == "lk-K5-large-exponent"
    # K5 at l in 4..6, k = -1 stays open
    for l in (4, 5, 6):
        v = classify(cyc(5, l, -1, 2, 1), 10 ** 4)
        assert v.aspherical == UNKNOWN, l
    # D-E2 stays open: g = h^-2, |h| = 13, l = 5
    v = classify(cyc(13, 5, -1, -2, 1), 10 ** 4)
    assert v.aspherical == UNKNOWN and v.justification == "open-exceptional-D-E2"


def test_uncovered_exponents_open():
    v = classify(cyc(7, 3, -2, 1, 3), 10 ** 4)
    assert v.aspherical == UNKNOWN


def _grid_sample(rng, size):
    """`size` instances drawn from the grid: Z_n with n <= 12 and the three
    non-cyclic groups, l and |k| at most 6."""
    grid = [cyc(n, l, k, a, b) for n in range(2, 13)
            for l, k in _GRID_EXPONENTS
            for a in range(1, n) for b in range(1, n)]
    for group, words in _GRID_GROUPS:
        G = parse_presentation(f"{group}; x; rel x").coeff
        words = [parse_word(w) for w in words]
        grid += [LengthFourInstance(G, g, h, l, k) for l, k in _GRID_EXPONENTS
                 for g in words for h in words]
    return rng.sample(grid, size)


def _rewritten(inst):
    """The rotation (l,k,g,h) -> (k,l,h,g) for k > 0, else the inversion
    substitution (l,k,g,h) -> (-k,-l,h,g)."""
    l, k = (inst.k, inst.l) if inst.k > 0 else (-inst.k, -inst.l)
    return LengthFourInstance(inst.G, inst.h, inst.g, l, k)


def test_normalization_invariance(monkeypatch):
    # each instance and its rewriting give one verdict line, whichever of
    # the two is classified first, with the pair's record cold or warm
    sample = _grid_sample(random.Random(14), 1200)
    runs = []
    for order in (1, -1):
        monkeypatch.setattr(coset, "_context_cache", {})
        lines = []
        for inst in sample:
            both = (inst, _rewritten(inst))[::order]
            lines.append([_verdict_line(classify(i, 1000)) for i in both][::order])
        runs.append(lines)
    assert runs[0] == runs[1]
    for (line, rewritten_line), inst in zip(runs[0], sample):
        assert line == rewritten_line, inst.describe()


def test_budget_monotonicity():
    # raising the cap never flips a decided verdict
    samples = [cyc(5, 2, -1, 2, 1), cyc(4, 4, -3, 1, 2), cyc(6, 4, 1, 2, 1),
               cyc(11, 2, -1, 1, 4)]
    chains = [(inst, [classify(inst, cap) for cap in (10 ** 3, 10 ** 5)])
              for inst in samples]
    # and the sample of the differential flag test below, cap by cap
    chains += zip(_sample(), zip(*map(_sample_verdicts, _SAMPLE_CAPS)))
    compared = 0
    for inst, per_cap in chains:
        for j, low in enumerate(per_cap):
            for high in per_cap[j + 1:]:
                for attr in ("aspherical", "dr"):
                    if getattr(low, attr) != UNKNOWN:
                        compared += 1
                        assert getattr(low, attr) == getattr(high, attr), \
                            (inst.describe(), attr)
    assert compared > 1000


def test_fabricated_verdict_is_fatal():
    from relasph.classify import CaseVerdict
    inst = cyc(5, 2, -1, 2, 1)
    fake = CaseVerdict(TriState.UNKNOWN, YES, "fabricated", "made up")
    rep = verify_verdict(inst, fake, 10 ** 4)
    assert not rep.ok
    assert any(c.status == "fatal" for c in rep.checks)


def test_claimed_order_check_runs_one_enumeration(monkeypatch):
    # one order policy: when the cyclic route hits the cap the check is
    # skipped, with no second, larger enumeration after it
    inst = cyc(5, 2, -1, 2, 1)
    v = classify(inst, 10 ** 4)
    assert v.expected_core_order == 55
    calls = []

    def counting(pres, subgroup_words, *args, **kwargs):
        calls.append(list(subgroup_words))
        return enumerate_cosets(pres, subgroup_words, *args, **kwargs)

    monkeypatch.setattr(coset, "enumerate_cosets", counting)
    monkeypatch.setattr(importlib.import_module("relasph.classify"),
                        "enumerate_cosets", counting)
    rep = verify_verdict(inst, v, 5)
    assert [(c.name, c.status) for c in rep.checks] == [
        ("claimed-order", "skipped")]
    assert calls == [[(("h", 1),)]]


def test_aspherical_yes_never_with_dr_no():
    from relasph.classify import CaseVerdict
    inst = cyc(5, 2, -1, 2, 1)
    fake = CaseVerdict(NO, YES, "fabricated", "made up")
    rep = verify_verdict(inst, fake, 10 ** 4)
    assert any(c.name == "internal-consistency" and c.status == "fatal"
               for c in rep.checks)


# The benchmark's classify grid cut to Z_n with n <= 9, plus its three
# non-cyclic groups: 25,272 instances that reach every rule the full grid
# (n <= 12) reaches.  E-E1/E-E2 need n = 9; case P and AAE-E need Z2xZ4.
_GRID_EXPONENTS = [(l, k) for l in range(1, 7) for k in range(-6, 7) if k]
_GRID_GROUPS = (
    ("group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>",
     ("g", "h", "h^-1", "g h", "h g", "g h^-1", "g h g")),
    ("group <g, h | g^3, h^3, g h g^-1 h^-1>",
     ("g", "h", "g^-1", "h^-1", "g h", "g h^-1", "g^-1 h")),
    ("group <a, b | a^2, b^4, a b a^-1 b^-1>",
     ("a", "b", "b^2", "b^-1", "a b", "a b^2", "a b^-1")),
)
# sha256 of the newline-joined verdict lines, recorded from the classifier
# with one hand-written block per exponent row
_GRID_DIGEST = "e56b0e3c1f6b94a7d2a7e02c8580d782096e60244e9c8f6b2b6a4d9aefb962b4"


def test_verdicts_match_the_recorded_grid():
    texts = [f"group <h | h^{n}>; x; rel x^{l} h^{a} x^{k} h^{b}"
             for n in range(2, 10) for l, k in _GRID_EXPONENTS
             for a in range(1, n) for b in range(1, n)]
    texts += [f"{group}; x; rel x^{l} {gw} x^{k} {hw}"
              for group, words in _GRID_GROUPS for l, k in _GRID_EXPONENTS
              for gw in words for hw in words]
    lines = []
    for text in texts:
        inst = instance_from_presentation(parse_presentation(text), 1000)
        v = classify(inst, 1000)
        lines.append(f"{v.summary()} | {v.detail} | hits={','.join(v.case_hits)}"
                     f" | blockers={';'.join(v.blockers)}")
    assert len(lines) == 25272
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _GRID_DIGEST


def test_classify_presentation_gives_open_verdict_for_unreduced_relator():
    # at caps too small to enumerate the grid's non-cyclic groups the
    # relator cannot be reduced; the library answers with an open verdict
    texts = [f"{group}; x; rel x^{l} {gw} x^{k} {hw}"
             for group, words in _GRID_GROUPS for l, k in _GRID_EXPONENTS
             for gw in words for hw in words]
    sample = random.Random(8).sample(texts, 150)
    for cap in (4, 8, 12):
        unreduced = 0
        for text in sample:
            inst, described, v = classify_presentation(
                parse_presentation(text), cap)
            if inst is not None:
                assert described == inst.describe()
                continue
            unreduced += 1
            assert (v.dr, v.aspherical) == (UNKNOWN, UNKNOWN)
            assert v.justification == "open-blocked"
            assert v.detail == "relator not reduced within budget"
            assert v.blockers and v.blockers[0].startswith(
                "cannot decide triviality of ")
        assert unreduced > 0, cap


def _counting(monkeypatch, method):
    """Record every call of GroupContext.<method> from here on."""
    calls = []
    real = getattr(coset.GroupContext, method)

    def counting(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(coset.GroupContext, method, counting)
    return calls


def test_case_flags_asks_each_order_once(monkeypatch):
    # |g|, |h| and |g h^-1| are each asked once, all through mu
    calls = _counting(monkeypatch, "element_order")
    flags = case_flags(cyc(5, 2, -1, 2, 1), 1000)
    assert len(calls) == 3
    assert (flags.og, flags.oh, flags.ogh) == flags.mu.orders


def test_pair_facts_asks_the_subgroup_order_once(monkeypatch):
    # commuting a, b of orders 2 and 4 leave both BBP-E4 and AAE-E open
    # until |gp{a,b}| is known; the pair's record asks it once for both
    calls = _counting(monkeypatch, "subgroup_order")
    inst = LengthFourInstance(Z2Z4, (("a", 1),), (("b", 1),), 3, 1)
    f = case_flags(inst, 10 ** 4)
    assert len(calls) == 1
    assert f["BBP-E4"] == YES and f["AAE-E"] == YES
    v = classify(inst, 10 ** 4)
    assert len(calls) == 1
    assert v.dr == YES and v.aspherical == YES and v.justification == "lk-n-1"


@pytest.mark.parametrize("inst, rule", [
    (cyc(8, 1, -2, 1, 3), "lk-2-neg1"),
    (cyc(7, 1, -6, 1, 2), "spread-exponents"),
])
def test_classify_asks_each_equality_once(monkeypatch, inst,
                                          rule):
    # the (2,-1) obstructions and the spread-exponent families read the
    # equalities case_flags decided instead of asking the oracle again
    calls = _counting(monkeypatch, "equal")
    verdict = classify(inst, 1000)
    assert verdict.justification == rule
    assert len(calls) == len(set(calls)) == 13
    # and a second classification of the pair asks none of them again
    calls.clear()
    assert classify(inst, 1000) == verdict
    assert calls == []


def test_pair_records_change_no_verdict(monkeypatch):
    # a seeded grid sample classified with fresh contexts, again in reverse
    # order from the contexts' pair records alone, and once more in reverse
    # order with fresh contexts, where each pair is met first at another
    # instance
    sample = _grid_sample(random.Random(13), 1500)
    first = [_verdict_line(classify(inst, 1000)) for inst in sample]
    equal = _counting(monkeypatch, "equal")
    orders = _counting(monkeypatch, "element_order")
    warm = [_verdict_line(classify(inst, 1000)) for inst in reversed(sample)]
    assert equal == [] and orders == []
    monkeypatch.setattr(coset, "_context_cache", {})
    cold = [_verdict_line(classify(inst, 1000)) for inst in reversed(sample)]
    assert warm[::-1] == first and cold == warm


# ---------------------------------------------------------------------------
# the case flags before each g <-> h mirrored condition was stated once over
# a pair of sides, frozen as they were, for the differential test below
# ---------------------------------------------------------------------------

def _frozen_case_flags(inst, cap):
    """(values, og, oh, equalities, blockers) as the classifier computed
    them with both halves of every mirrored condition written out."""
    from relasph.classify import (
        order_finite, order_in_open_range, order_is, tri_and, tri_bool,
        tri_not, tri_or)
    from relasph.words import mu, winv, wmul
    inst = inst.normalized()
    ctx = coset.context_for(inst.G, cap)
    A, B = inst.g, inst.h
    l, k = inst.l, inst.k
    m = mu(ctx, A, B)
    og, oh, ogh = m.orders
    A2, B2 = wmul(A, A), wmul(B, B)
    A3, B3 = wmul(A2, A), wmul(B2, B)
    eqs = {
        "g=h": ctx.equal(A, B),
        "g=h^-1": ctx.equal(A, winv(B)),
        "g=h^2": ctx.equal(A, B2),
        "h=g^2": ctx.equal(B, A2),
        "g=h^-2": ctx.equal(A, winv(B2)),
        "h=g^-2": ctx.equal(B, winv(A2)),
        "g=h^3": ctx.equal(A, B3),
        "h=g^3": ctx.equal(B, A3),
        "g=h^-3": ctx.equal(A, winv(B3)),
        "h=g^-3": ctx.equal(B, winv(A3)),
        "g=h^4": ctx.equal(A, wmul(B2, B2)),
        "h=g^4": ctx.equal(B, wmul(A2, A2)),
        "gh=hg": ctx.equal(wmul(A, B), wmul(B, A)),
    }
    if m.value > 1 and not m.lower_bound_only:
        p_mu = YES
    elif m.value > 1 and m.lower_bound_only:
        p_mu = YES
    elif not m.lower_bound_only:
        p_mu = NO
    else:
        p_mu = UNKNOWN
    flag_P = tri_and(p_mu, tri_not(eqs["g=h"]))

    def orders_are(na, nb):
        return tri_or(tri_and(order_is(og, na), order_is(oh, nb)),
                      tri_and(order_is(og, nb), order_is(oh, na)))

    values = {
        "P": flag_P,
        "Z": tri_and(eqs["g=h"], order_finite(og)),
        "M": tri_and(eqs["g=h^-1"], order_finite(og)),
        "J4": tri_or(tri_and(eqs["g=h^2"], order_is(oh, 4)),
                     tri_and(eqs["h=g^2"], order_is(og, 4))),
        "J6": tri_and(orders_are(2, 3), eqs["gh=hg"]),
        "K5": tri_or(tri_and(eqs["g=h^2"], order_is(oh, 5)),
                     tri_and(eqs["h=g^2"], order_is(og, 5))),
        "K6+": tri_or(tri_and(eqs["g=h^2"], order_is(oh, 6)),
                      tri_and(eqs["h=g^2"], order_is(og, 6))),
        "K6-": tri_or(tri_and(eqs["g=h^-2"], order_is(oh, 6)),
                      tri_and(eqs["h=g^-2"], order_is(og, 6))),
        "L6": tri_or(tri_and(eqs["g=h^3"], order_is(oh, 6)),
                     tri_and(eqs["h=g^3"], order_is(og, 6))),
    }

    def subgroup_is_2_x(n2):
        pre = tri_and(orders_are(2, n2), eqs["gh=hg"])
        if pre == NO:
            return NO
        return tri_and(pre, order_is(ctx.subgroup_order([A, B]), 2 * n2))

    def aae_e():
        small = tri_and(
            eqs["gh=hg"],
            tri_or(order_is(og, 2), order_is(og, 4)),
            tri_or(order_is(oh, 2), order_is(oh, 4)))
        if small == NO:
            return NO
        return tri_and(small, order_is(ctx.subgroup_order([A, B]), 8))

    values.update({
        "BBP-E4": subgroup_is_2_x(4),
        "BBP-E5": subgroup_is_2_x(5),
        "HM-E": tri_or(tri_and(eqs["g=h^2"], order_in_open_range(oh, 6)),
                       tri_and(eqs["h=g^2"], order_in_open_range(og, 6))),
        "AEJ-E": tri_or(
            tri_and(eqs["g=h^2"], order_in_open_range(oh, 6),
                    tri_bool(l < k < 2 * l)),
            tri_and(eqs["h=g^2"], order_in_open_range(og, 6),
                    tri_bool(k < l < 2 * k)),
            tri_and(eqs["h=g^2"], order_in_open_range(og, 6),
                    tri_bool(l < k < 2 * l)),
            tri_and(eqs["g=h^2"], order_in_open_range(oh, 6),
                    tri_bool(k < l < 2 * k))),
        "E-E1": tri_or(
            tri_and(order_is(og, 9), order_is(oh, 3), eqs["h=g^3"]),
            tri_and(order_is(oh, 9), order_is(og, 3), eqs["g=h^3"])),
        "E-E2": tri_or(
            tri_and(order_is(og, 9), order_is(oh, 3), eqs["h=g^-3"]),
            tri_and(order_is(oh, 9), order_is(og, 3), eqs["g=h^-3"])),
        "E-E3": tri_or(
            tri_and(order_is(og, 8), order_is(oh, 4), eqs["h=g^2"]),
            tri_and(order_is(oh, 8), order_is(og, 4), eqs["g=h^2"])),
        "AAE-E": aae_e(),
        "AAE-E4": tri_or(tri_and(order_is(oh, 8), eqs["g=h^4"]),
                         tri_and(order_is(og, 8), eqs["h=g^4"])),
        "D-E1": tri_or(tri_and(eqs["g=h^2"], order_in_open_range(oh, 3)),
                       tri_and(eqs["h=g^2"], order_in_open_range(og, 3))),
        "D-E2": tri_or(tri_and(eqs["g=h^-2"], order_in_open_range(oh, 3)),
                       tri_and(eqs["h=g^-2"], order_in_open_range(og, 3))),
        "D-E4": tri_or(tri_and(eqs["g=h^3"], order_is(oh, 9)),
                       tri_and(eqs["h=g^3"], order_is(og, 9))),
    })
    blockers = tuple(sorted(n for n, v in values.items() if v == UNKNOWN))
    return values, og, oh, eqs, blockers


def _frozen_spread_exponent_case(values, og, oh, eqs, l, k):
    from relasph.classify import order_at_least, tri_and, tri_not, tri_or
    if not (k < 0 and l > 2 * (-k)):
        return NO
    if values["Z"] != NO or values["M"] != NO:
        return UNKNOWN if (values["Z"] == UNKNOWN
                           or values["M"] == UNKNOWN) else NO
    ne = lambda name: tri_not(eqs[name])
    c1 = tri_and(order_at_least(og, 6), order_at_least(oh, 3),
                 ne("h=g^2"), ne("h=g^-2"), ne("h=g^-3"), ne("g=h^-2"))
    c2 = tri_and(order_at_least(og, 3), order_at_least(oh, 6),
                 ne("g=h^2"), ne("g=h^-2"), ne("g=h^-3"), ne("h=g^-2"))
    c3 = tri_and(order_at_least(og, 4), order_at_least(oh, 4),
                 ne("g=h^-2"), ne("h=g^-2"))
    return tri_or(c1, c2, c3)


def _equalities(flags):
    """The 13 equalities a CaseFlags holds, under the frozen copy's keys."""
    gh, hg = flags.sides
    eqs = {"g=h": flags.equal, "g=h^-1": flags.inverse,
           "gh=hg": flags.commute}
    for p in POWERS:
        eqs[f"g=h^{p}"] = gh.power[p]
        eqs[f"h=g^{p}"] = hg.power[p]
    return eqs


# Directly built instances over the grid's three non-cyclic groups (no
# relator reduction, so the small caps reach case_flags), at caps where
# their regular tables do and do not complete.
_SAMPLE_CAPS = (4, 8, 12, 1000)
# sha256 of the newline-joined verdict lines of the sample, cap by cap,
# recorded from the classifier with both halves of every mirrored
# condition written out
_SAMPLE_DIGEST = "d1c0d5aba6fb67fe38a8a43a2b63b881b6c11eea02f653b10a536c907ac233ff"


@functools.lru_cache(maxsize=None)
def _sample():
    instances = []
    for group, words in _GRID_GROUPS:
        G = parse_presentation(f"{group}; x; rel x").coeff
        for l, k in _GRID_EXPONENTS:
            for gw in words:
                for hw in words:
                    instances.append(LengthFourInstance(
                        G, parse_word(gw), parse_word(hw), l, k))
    return random.Random(11).sample(instances, 1500)


@functools.lru_cache(maxsize=None)
def _sample_verdicts(cap):
    return [classify(inst, cap) for inst in _sample()]


def _verdict_line(v):
    return (f"{v.summary()} | {v.detail} | hits={','.join(v.case_hits)}"
            f" | blockers={';'.join(v.blockers)}")


def _assert_flags_match_the_frozen_copy(inst, cap):
    flags = case_flags(inst, cap)
    values, og, oh, eqs, blockers = _frozen_case_flags(inst, cap)
    where = (inst.describe(), inst.G.relators, cap)
    assert flags.values == values, where
    assert flags.blockers == blockers, where
    assert _equalities(flags) == eqs, where
    assert (flags.og, flags.oh) == (og, oh), where
    norm = inst.normalized()
    assert _spread_exponent_case(flags, norm.l, norm.k) == \
        _frozen_spread_exponent_case(values, og, oh, eqs, norm.l, norm.k), where
    return values


def test_case_flags_match_the_frozen_mirrored_flags():
    seen = set()  # (flag, value) pairs met
    lines = []
    for cap in _SAMPLE_CAPS:
        for inst, verdict in zip(_sample(), _sample_verdicts(cap)):
            seen.update(_assert_flags_match_the_frozen_copy(inst, cap).items())
            lines.append(_verdict_line(verdict))
    # the cyclic groups, where the K and L cases and E-E1/2/3 hold
    cyclic_grid = [(n, l, k, a, b) for n in range(2, 13)
                   for l, k in _GRID_EXPONENTS
                   for a in range(1, n) for b in range(1, n)]
    for args in random.Random(12).sample(cyclic_grid, 3000):
        seen.update(_assert_flags_match_the_frozen_copy(cyc(*args), 1000).items())
    # every flag is met decided both ways and undecided
    for name in (*CASE_NAMES, *EXCEPTIONAL_NAMES):
        assert {(name, v) for v in (YES, NO, UNKNOWN)} <= seen, name
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _SAMPLE_DIGEST
