from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from relasph.classify import TABLE1_FIXTURES
from relasph.coset import (
    DEFAULT_CAP,
    MAX_CAP,
    CosetTable,
    GroupContext,
    LiftedPresentation,
    abelian_order_of_word,
    context_for,
    enumerate_cosets,
    group_order,
    lift,
    order_via_cyclic_subgroup,
    ordinary,
)
from relasph.words import (
    CoefficientGroup,
    OrderResult,
    TriState,
    csyl,
    cyclic,
    fpw,
    free_group,
    parse_presentation,
    parse_word,
    winv,
    wmul,
    xsyl,
)


def P(gens, rels):
    return LiftedPresentation(tuple(gens), tuple(tuple(r) for r in rels))


S3 = P(["a", "b"], [[("a", 2)], [("b", 3)], [("a", 1), ("b", 1)] * 2])
Q8 = P(["a", "b"], [[("a", 4)], [("a", 2), ("b", -2)],
                    [("b", -1), ("a", 1), ("b", 1), ("a", 1)]])
A5 = P(["a", "b"], [[("a", 2)], [("b", 3)], [("a", 1), ("b", 1)] * 5])
PSL27 = P(["a", "b"], [[("a", 2)], [("b", 3)], [("a", 1), ("b", 1)] * 7,
                       [("a", -1), ("b", -1), ("a", 1), ("b", 1)] * 4])
F25 = P([f"x{i}" for i in range(5)],
        [[(f"x{i}", 1), (f"x{(i + 1) % 5}", 1), (f"x{(i + 2) % 5}", -1)]
         for i in range(5)])
S3Z3 = lift(parse_presentation(
    "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; "
    "rel x^2 g x^-1 h"))
Z3Z3 = lift(parse_presentation(
    "group <g, h | g^3, h^3, g h g^-1 h^-1>; x; rel x^2 g x^-1 h"))
S3xZ3 = parse_presentation(
    "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; rel x g").coeff
# the (2,3,7) triangle group: infinite, so every enumeration of it ends in
# the budget path
VD = P(["a", "b"], [[("a", 2)], [("b", 3)], [("a", 1), ("b", 1)] * 7])


def _row_major(t):
    """The table's entries row by row, coset a's W columns at a * W, as
    bytes: the layout the recorded digests hash (a budget table has none)."""
    return array("i", [x for row in zip(*t.cols) for x in row]).tobytes()


def test_cyclic_orders_1_to_64():
    for n in range(1, 65):
        t = enumerate_cosets(P(["g"], [[("g", n)]]), [], 1000)
        assert t.complete and t.n == n


# the trivial group on no generators has no table column at all
@pytest.mark.parametrize("pres,order", [(S3, 6), (Q8, 8), (A5, 60), (PSL27, 168),
                                        (P([], []), 1)])
def test_known_orders_both_strategies(pres, order):
    for strategy in ("hlt", "felsch"):
        t = enumerate_cosets(pres, [], 10 ** 4, strategy=strategy)
        assert t.complete and t.n == order
        t.check()  # inverse-consistent permutations + relator closure


def test_fibonacci_f25():
    t = enumerate_cosets(F25, [], 10 ** 4)
    t.check()
    assert t.n == 11


def test_subgroup_index():
    t = enumerate_cosets(S3, [(("a", 1),)], 100)
    assert t.complete and t.n == 3
    t = enumerate_cosets(S3, [(("b", 1),)], 100)
    assert t.complete and t.n == 2


def test_budget_is_a_value():
    t = enumerate_cosets(P(["g"], []), [], 1000)
    assert t.status == "budget" and not t.complete
    assert enumerate_cosets(VD, [], 5000).status == "budget"


def test_cap_must_fit_the_table_entries():
    for cap in (0, MAX_CAP + 1):
        with pytest.raises(ValueError, match="cap must be between"):
            enumerate_cosets(S3, [], cap)
    assert enumerate_cosets(S3, [], MAX_CAP).n == 6


_CHECK_UNDER_O = """
import sys
from relasph.coset import LiftedPresentation, enumerate_cosets

if not sys.flags.optimize:
    sys.exit("not running under -O")
S3 = LiftedPresentation(("a", "b"), ((("a", 2),), (("b", 3),),
                                     (("a", 1), ("b", 1)) * 2))
t = enumerate_cosets(S3, [(("a", 1),)], 100)
t.check()


def rejects(what):
    try:
        t.check()
    except ValueError as err:
        print(what, err)
    else:
        print(what, "accepted")


entry = t.cols[0][1]  # coset 1 under a
t.cols[0][1] = 2
rejects("entry")
t.cols[0][1] = entry
t.check()
t.subs = ((2,),)  # b in place of a: b moves coset 1
rejects("subgroup")
"""


def test_check_raises_under_python_O():
    """check() raises ValueError, not AssertionError, so python -O keeps
    it: a tampered entry and a tampered subgroup column are rejected."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-O", "-c", _CHECK_UNDER_O],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "entry entry (1,0) is inverse-inconsistent",
        "subgroup subgroup generator (2,) does not fix coset 1",
    ]


def test_check_rejects_a_table_that_is_not_transitive():
    """Two cosets, each fixed by a, meet every other condition of a coset
    table of <a | a^2> over <a>, but coset 2 is not in the orbit of coset
    1; the one-coset table passes."""
    pres = LiftedPresentation(("a",), ((("a", 2),),))
    fixed = CosetTable(pres, ((0,),), [array("i", [0, 1, 2])] * 2, 2,
                       "complete", 100, 2)
    with pytest.raises(ValueError,
                       match="orbit of coset 1 holds 1 of the 2 cosets"):
        fixed.check()
    t = enumerate_cosets(pres, [(("a", 1),)], 100)
    assert t.n == 1 and t.cols == [array("i", [0, 1])] * 2


def test_a_word_longer_than_ten_times_the_cap_is_over_budget():
    """A relator or subgroup word of more than 10 * cap letters gives a
    budget table without being expanded; one of 10 * cap letters is
    enumerated, and a subgroup word is counted freely reduced."""
    for e, status in ((50, "complete"), (51, "budget")):
        zn = LiftedPresentation(("a",), ((("a", e),),))
        t = enumerate_cosets(zn, [(("a", 1),)], 5)
        assert (t.status, t.n) == (status, 1), e
    huge = 10 ** 12
    z2 = LiftedPresentation(("a",), ((("a", 2),),))
    t = enumerate_cosets(z2, [(("a", huge), ("a", -huge), ("a", 1))], 5)
    assert (t.status, t.n) == ("complete", 1)
    t = enumerate_cosets(z2, [(("a", huge),)], MAX_CAP)
    assert (t.status, t.cols, t.total_defined) == ("budget", [], 1)
    zhuge = LiftedPresentation(("a",), ((("a", huge),),))
    for strategy in ("hlt", "felsch"):
        t = enumerate_cosets(zhuge, [(("a", 1),)], MAX_CAP, strategy)
        assert (t.status, t.cols, t.total_defined) == ("budget", [], 1)
    assert order_via_cyclic_subgroup(zhuge, (("a", 1),)) == \
        OrderResult.exceeds(DEFAULT_CAP)


def test_enumerate_cosets_checks_the_table_it_returns(monkeypatch):
    """Every complete table is checked before it is returned: a compaction
    that corrupts one entry makes enumerate_cosets raise ValueError."""
    from relasph import coset
    compact = coset._Enum.compact

    def corrupt(self, cursor=0):
        n = compact(self, cursor)
        if not cursor:  # the final compaction, not an HLT rescue's
            col = self.T[0]
            col[1] = col[1] % n + 1
        return n

    monkeypatch.setattr(coset._Enum, "compact", corrupt)
    for strategy in ("hlt", "felsch"):
        with pytest.raises(ValueError, match="inverse-inconsistent"):
            enumerate_cosets(S3, [], 100, strategy=strategy)


def test_enumeration_holds_only_the_rows_it_uses():
    """Growth slack, compaction, the coincidence queue and the check on
    return stay small next to the rows defined: the traced peak of
    one enumeration is at most 1.5 rows of 4W bytes per definition."""
    fixtures = {f.name: f for f in TABLE1_FIXTURES}
    for pres, subs, strategy, n, defined in (
            # most rows die in coincidences
            (fixtures["{3,-1} L6"].instance().lifted(), [(("h", 1),)],
             "hlt", 1512, 4979),
            (fixtures["{3,-1} K5"].instance().lifted(), [(("h", 1),)],
             "hlt", 22, 4754),
            # most rows live to the end, and the check on return reads them
            (Z3Z3, [], "felsch", 13608, 14698)):
        tracemalloc.start()
        try:
            t = enumerate_cosets(pres, subs, 3 * 10 ** 6, strategy=strategy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.complete and (t.n, t.total_defined) == (n, defined)
        row = array("i").itemsize * 2 * len(pres.generators)
        assert peak <= 1.5 * t.total_defined * row, (n, peak)


def test_lookahead_rescue_completes_a5():
    # caps tight enough to trigger lookahead-and-compaction still complete
    for cap in (70, 90, 200):
        t = enumerate_cosets(A5, [], cap)
        if t.complete:
            assert t.n == 60
            t.check()
    assert enumerate_cosets(A5, [], 70).complete


def test_determinism():
    a = enumerate_cosets(PSL27, [], 10 ** 4)
    b = enumerate_cosets(PSL27, [], 10 ** 4)
    assert _row_major(a) == _row_major(b)
    assert a.total_defined == b.total_defined


def test_element_orders_and_equality():
    ctx = GroupContext(P(["g"], [[("g", 8)]]), 1000)
    assert ctx.element_order((("g", 1),)) == OrderResult.finite(8)
    assert ctx.element_order((("g", 2),)) == OrderResult.finite(4)
    assert ctx.element_order(()) == OrderResult.finite(1)
    assert ctx.equal((("g", 2),), (("g", -2),)) == TriState.NO
    assert ctx.equal((("g", 4),), (("g", -4),)) == TriState.YES
    assert ctx.equal((), (("g", 8),)) == TriState.YES


def _random_word(rng, gens, span):
    exps = [e for e in range(-span, span + 1) if e]
    return tuple((rng.choice(gens), rng.choice(exps))
                 for _ in range(rng.randrange(5)))


def _equality_pairs(rng, gens, span, count):
    """Word pairs: unrelated, identical, and freely equal but unreduced."""
    for _ in range(count):
        u = _random_word(rng, gens, span)
        pick = rng.randrange(3)
        if pick == 0:
            v = _random_word(rng, gens, span)
        elif pick == 1:
            v = u
        else:
            i = rng.randrange(len(u) + 1)
            g, e = rng.choice(gens), rng.randint(1, span)
            v = u[:i] + ((g, e), (g, -e)) + u[i:]
        yield u, v


_DECIDED = {TriState.YES, TriState.NO}
_EQUALITY_GROUPS = {
    **{f"Z{n}": cyclic(n) for n in range(2, 13)},
    "F2": free_group("g", "h"),
    "Z2*Z3": CoefficientGroup(("g", "h"), ((("g", 2),), (("h", 3),))),
    "S3xZ3": S3xZ3,
}


@pytest.mark.parametrize("name,cap,answers", [
    *((name, 1000, _DECIDED) for name in _EQUALITY_GROUPS),
    # S3xZ3 has order 18: its regular table cannot finish within 10 cosets,
    # so only freely equal words are decided
    ("S3xZ3", 10, {TriState.YES, TriState.UNKNOWN}),
])
def test_equal_agrees_with_the_product_word(name, cap, answers):
    # equal(u, v) compares elements; it must answer exactly as the
    # triviality of u v^-1 does, UNKNOWN included
    group = _EQUALITY_GROUPS[name]
    rng = random.Random(f"{name} {cap}")
    ctx = GroupContext(group, cap)
    seen = set()
    for u, v in _equality_pairs(rng, group.generators, 4, 300):
        got = ctx.equal(u, v)
        assert got == ctx.is_trivial_word(wmul(u, winv(v))), (u, v)
        seen.add(got)
    assert seen == answers


_SUBGROUP_GROUPS = {
    **{f"Z{n}": cyclic(n) for n in (1, 2, 6, 12, 30)},
    # Z6 with a trivial second generator, and Z6 and Z2xZ4 not written as
    # free products of cyclics, so that they go through the regular table
    "Z6+1": CoefficientGroup(("g", "h"), ((("g", 6),), (("h", 1),))),
    "Z2xZ3": CoefficientGroup(("g", "h"), ((("g", 2),), (("h", 3),),
                                           (("g", 1), ("h", 1), ("g", -1), ("h", -1)))),
    "Z2xZ4": CoefficientGroup(("g", "h"), ((("g", 2),), (("h", 4),),
                                           (("g", 1), ("h", 1), ("g", -1), ("h", -1)))),
    "S3xZ3": S3xZ3,
}


@pytest.mark.parametrize("name", _SUBGROUP_GROUPS)
def test_subgroup_order_matches_the_subgroup_index(name):
    # subgroup_order enumerates nothing of its own; it must agree with
    # |G| / [G : <words>] from an enumeration of the subgroup's cosets
    group = _SUBGROUP_GROUPS[name]
    rng = random.Random(name)
    ctx = GroupContext(group, 1000)
    total = ctx.group_order().value
    for _ in range(40):
        words = [_random_word(rng, group.generators, 4)
                 for _ in range(rng.randrange(4))]
        t = enumerate_cosets(ordinary(group), words, 1000)
        assert t.complete
        assert ctx.subgroup_order(words) == OrderResult.finite(total // t.n), words


def test_subgroup_order_over_z_m_needs_no_budget():
    # [Z30 : <h^6>] = 6 cosets do not fit a cap of 4, but |<h^6>| = 5 is
    # known from the exponent alone
    ctx = GroupContext(cyclic(30, "h"), 4)
    assert not enumerate_cosets(ordinary(cyclic(30, "h")), [(("h", 6),)], 4).complete
    assert ctx.subgroup_order([(("h", 6),)]) == OrderResult.finite(5)
    assert ctx.subgroup_order([(("h", 6),), (("h", -10),)]) == OrderResult.finite(15)


def test_element_order_power_divisibility():
    for n in (6, 8, 12):
        ctx = GroupContext(P(["g"], [[("g", n)]]), 1000)
        for a in range(1, n):
            o = ctx.element_order((("g", a),)).value
            for k in range(1, 2 * n + 1):
                trivial = ctx.is_trivial_word((("g", a * k),)) == TriState.YES
                assert trivial == (k % o == 0)


def test_free_product_normal_forms():
    G = CoefficientGroup(("g", "h"), ((("g", 2),), (("h", 3),)))
    ctx = GroupContext(G, 1000)
    assert ctx.equal((("g", 1),), (("h", 1),)) == TriState.NO
    assert ctx.element_order((("g", 1), ("h", 1))).is_infinite
    assert ctx.element_order((("h", 2),)) == OrderResult.finite(3)
    assert ctx.is_torsion_free() == TriState.NO
    assert ctx.group_order().is_infinite
    # conjugacy via cyclic rotation of normal forms
    u = (("g", 1), ("h", 1))
    v = (("h", 1), ("g", 1))
    assert ctx.conjugate(u, v) == TriState.YES
    assert ctx.conjugate(u, (("h", 2), ("g", 1))) == TriState.NO


def test_free_group_oracle():
    ctx = GroupContext(free_group("g"), 1000)
    assert ctx.is_torsion_free() == TriState.YES
    assert ctx.element_order((("g", 5),)).is_infinite
    assert ctx.group_order().is_infinite


def _elements(ctx, gens):
    """One word for each element of a finite group, breadth first."""
    reps = [()]
    for w in reps:
        for g in gens:
            c = wmul(w, ((g, 1),))
            if all(ctx.equal(c, r) == TriState.NO for r in reps):
                reps.append(c)
    return reps


def test_finite_group_conjugacy():
    ctx = GroupContext(S3, 1000)
    # all order-2 elements of S3 are conjugate
    assert ctx.conjugate((("a", 1),), (("b", 1), ("a", 1), ("b", -1))) == TriState.YES
    assert ctx.conjugate((("a", 1),), (("b", 1),)) == TriState.NO
    # every pair of elements against conjugation by every element
    Z3xZ3 = P(["a", "b"], [[("a", 3)], [("b", 3)],
                           [("a", 1), ("b", 1), ("a", -1), ("b", -1)]])
    # (pairs: the sum of |class|^2, 1 + 4 + 9 in S3 and 9 singletons)
    for pres, order, pairs in ((S3, 6, 14), (Z3xZ3, 9, 9)):
        ctx = GroupContext(pres, 1000)
        elements = _elements(ctx, pres.generators)
        assert len(elements) == order
        conjugate_pairs = 0
        for u in elements:
            for v in elements:
                want = any(ctx.equal(wmul(winv(x), u, x), v) == TriState.YES
                           for x in elements)
                conjugate_pairs += want
                assert ctx.conjugate(u, v) == (TriState.YES if want
                                               else TriState.NO), (u, v)
        assert conjugate_pairs == pairs


def test_x_has_order_four_in_the_isomorphism_example():
    # the defined group of <Z4, x | x^4 g x^-3 g^2> is cyclic of order four
    # with x mapping onto a generator
    p = parse_presentation("group <g | g^4>; x; rel x^4 g x^-3 g^2")
    ctx = GroupContext(lift(p), 10 ** 4)
    assert ctx.element_order((("x", 1),)) == OrderResult.finite(4)


def test_lift_flattens_relative_relators():
    p = parse_presentation("group <g | g^5>; x; rel x^2 g^2 x^-1 g")
    lifted = lift(p)
    assert lifted.generators == ("g", "x")
    assert lifted.relators == ((("g", 5),),
                               (("x", 2), ("g", 2), ("x", -1), ("g", 1)))
    p2 = parse_presentation(
        "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; rel x^2 g x^-1 h")
    assert len(lift(p2).relators) == 4


def test_abelian_orders():
    pres = P(["g", "x"], [[("g", 8)], [("x", 2), ("g", 2), ("x", -1), ("g", 1)]])
    assert abelian_order_of_word(pres, (("g", 1),)) == 8
    assert abelian_order_of_word(pres, (("x", 1),)) == 8  # x = g^-3 in ab
    free = P(["g", "x"], [[("g", 6)]])
    assert abelian_order_of_word(free, (("x", 1),)) is None
    assert abelian_order_of_word(free, (("g", 2),)) == 3


def test_order_via_cyclic_subgroup_cross_check():
    # order must agree with the plain enumeration where both are feasible
    pres = P(["h", "x"], [[("h", 6)], [("x", 3), ("h", 3), ("x", -1), ("h", 1)]])
    direct = enumerate_cosets(pres, [], 10 ** 5)
    assert direct.complete and direct.n == 9072
    via = order_via_cyclic_subgroup(pres, (("h", 1),), 10 ** 5)
    assert via == OrderResult.finite(9072)


def test_order_via_cyclic_subgroup_falls_back_to_group_order():
    # |a| = 2 in A5, but A5 is perfect, so the abelianized order (1) cannot
    # pin it; (a b) has no power relator at all
    assert order_via_cyclic_subgroup(A5, (("a", 1),), 10 ** 4) == \
        OrderResult.finite(60)
    assert order_via_cyclic_subgroup(S3, (("a", 1), ("b", 1)), 10 ** 4) == \
        OrderResult.finite(6)
    assert order_via_cyclic_subgroup(A5, (("a", 1),), 10) == \
        OrderResult.exceeds(10)


def test_order_via_cyclic_subgroup_rejects_an_unknown_strategy():
    # the pinned route (S3's a) and the fallback (A5's a) both raise what
    # enumerate_cosets raises
    with pytest.raises(ValueError) as direct:
        enumerate_cosets(S3, [], 100, strategy="bogus")
    for pres in (S3, A5):
        with pytest.raises(ValueError) as via:
            order_via_cyclic_subgroup(pres, (("a", 1),), 100, "bogus")
        assert str(via.value) == str(direct.value) == "unknown strategy 'bogus'"


def test_big_example_order_2361960():
    pres = P(["g", "x"], [[("g", 8)], [("x", 2), ("g", 2), ("x", -1), ("g", 1)]])
    r = order_via_cyclic_subgroup(pres, (("g", 1),), 3 * 10 ** 6)
    assert r == OrderResult.finite(2361960)


def test_torsion_witness_shift_presentation_7_3():
    """The length-7 product in the 7-strand shift presentation has order
    exactly two: the quotient by it is finite of order 128."""
    gens = [f"x{i}" for i in range(7)]
    rels = [[(f"x{i}", 1), (f"x{(i + 3) % 7}", 1), (f"x{(i + 1) % 7}", -1)]
            for i in range(7)]
    w = [(f"x{(3 * j) % 7}", 1) for j in range(7)]
    t = enumerate_cosets(P(gens, rels + [w]), [], 10 ** 5)
    assert t.complete and t.n == 128


@pytest.mark.slow
def test_torsion_witness_shift_presentation_9_3():
    gens = [f"x{i}" for i in range(9)]
    rels = [[(f"x{i}", 1), (f"x{(i + 3) % 9}", 1), (f"x{(i + 1) % 9}", -1)]
            for i in range(9)]
    w = [(f"x{(4 * j) % 9}", 1) for j in range(9)]
    t = enumerate_cosets(P(gens, rels + [w]), [], 10 ** 6)
    assert t.complete and t.n == 2 ** 15 * 7


def test_group_order_helper():
    assert group_order(P(["g"], [[("g", 12)]]), 100).value == 12
    assert group_order(P(["g"], []), 100).is_unknown


def test_strategies_agree_on_fixture_battery():
    """HLT and Felsch must produce the same index on every catalog fixture
    (enumerated over the cyclic coefficient subgroup to stay desk-scale),
    each in a table that passes check()."""
    for fix in TABLE1_FIXTURES:
        lifted = fix.instance().lifted()
        hlt = enumerate_cosets(lifted, [(("h", 1),)], 3 * 10 ** 6)
        felsch = enumerate_cosets(lifted, [(("h", 1),)], 3 * 10 ** 6,
                                  strategy="felsch")
        assert hlt.complete and felsch.complete, fix.name
        assert hlt.n == felsch.n == fix.expected_order // fix.n, fix.name
        hlt.check()
        felsch.check()


def test_hlt_gap_fill_does_not_overwrite_its_first_definition():
    """When an HLT relator scan leaves a gap whose first entry is the one
    the backward scan stopped at (f == b and w[i] == w[j]^-1), the closing
    deduction must not overwrite the coset defined there: every complete
    table passes check()."""
    pres = lift(parse_presentation("group <h | h^6>; x; rel x^2 h^3 x^-1 h"))
    t = enumerate_cosets(pres, [(("h", 1),)], 1000)
    assert t.complete and t.n == 9  # the {2,-1} L6 fixture: 54 / 6
    t.check()
    t = enumerate_cosets(S3Z3, [(("g", 1),)], 10 ** 5)
    assert t.complete and t.n == 13608
    t.check()


def test_felsch_deduces_from_its_subgroup_scans():
    """The cosets that scanning the subgroup generators defines are
    deductions for Felsch too: <a | a^2> over <a^3> has index 1, and
    both tables pass check()."""
    pres = P(["a"], [[("a", 2)]])
    for strategy in ("hlt", "felsch"):
        t = enumerate_cosets(pres, [(("a", 3),)], 100, strategy=strategy)
        assert t.complete and t.n == 1, strategy
        t.check()


_GUARD_GROUPS = {"S3": S3, "Q8": Q8, "A5": A5, "PSL27": PSL27, "F25": F25,
                 "VD": VD, "S3xZ3": S3Z3}
# (group, subgroup generators, strategy, cap, status, index, total_defined,
# sha256 of the table's bytes, first 16 hex digits), recorded from the
# list-based enumerator; the typed-array table must make the same
# definitions in the same order.
# {4,1} K5's regular table is left out: it takes 3e6 definitions.
_GUARD = (
    ("S3", "", "hlt", 10000, "complete", 6, 6, "62f8ea117b5cdf4e"),
    ("S3", "", "felsch", 10000, "complete", 6, 6, "62f8ea117b5cdf4e"),
    ("Q8", "", "hlt", 10000, "complete", 8, 8, "b74a71fad8bcc7f8"),
    ("Q8", "", "felsch", 10000, "complete", 8, 8, "d3f84356d9bc5adc"),
    ("A5", "", "hlt", 10000, "complete", 60, 82, "2f7639a2f836f783"),
    ("A5", "", "felsch", 10000, "complete", 60, 60, "aed1b90b53555cbe"),
    ("PSL27", "", "hlt", 10000, "complete", 168, 542, "36f3abf10a120225"),
    ("PSL27", "", "felsch", 10000, "complete", 168, 168, "e04d37cf8ddd7e43"),
    ("F25", "", "hlt", 10000, "complete", 11, 165, "74ed9832d714d864"),
    ("F25", "", "felsch", 10000, "complete", 11, 42, "cd041d32f5696142"),
    # the lookahead-and-compaction rescue, completing and at the budget
    ("A5", "", "hlt", 70, "complete", 60, 74, "2f7639a2f836f783"),
    ("VD", "", "hlt", 1000, "budget", 987, 1131, "e3b0c44298fc1c14"),
    ("VD", "", "felsch", 1000, "budget", 1000, 1000, "e3b0c44298fc1c14"),
    ("{2,1} K5", "", "hlt", 3000000, "complete", 165, 336, "d48697a9fd271f0c"),
    ("{2,1} K6+", "",
     "hlt", 3000000, "complete", 378, 838, "d8a4008d6ca3411e"),
    ("{2,1} K6-", "",
     "hlt", 3000000, "complete", 342, 1948, "43cbe56215b337e7"),
    ("{2,1} L6", "",
     "hlt", 3000000, "complete", 342, 1879, "18814e0e69b444e8"),
    ("{3,1} K5", "",
     "hlt", 3000000, "complete", 1100, 7179, "a9ccf52c2616ca57"),
    ("{3,2} K5", "",
     "hlt", 3000000, "complete", 2525, 9910, "0ee89d109d878479"),
    ("{2,-1} K5", "", "hlt", 3000000, "complete", 55, 341, "24b1505e4bfb9e6c"),
    ("{2,-1} K6+", "",
     "hlt", 3000000, "complete", 336, 862, "c65c10315fc3578d"),
    ("{2,-1} L6", "", "hlt", 3000000, "complete", 54, 211, "df96fefce160ffe1"),
    ("{3,-1} K5", "",
     "hlt", 3000000, "complete", 110, 21636, "a55cc193605de637"),
    ("{3,-1} L6", "",
     "hlt", 3000000, "complete", 9072, 29573, "6070025186a1b8bc"),
    # HLT's subgroup path (the scan and fill at coset 1), recorded from the
    # enumerator whose subgroup scans defined one coset per call
    ("{2,1} K5", "h", "hlt", 3000000, "complete", 33, 57, "a6c3fd5a1532f233"),
    ("{2,1} K6+", "h",
     "hlt", 3000000, "complete", 63, 153, "3c3ce7afee7978b0"),
    ("{2,1} K6-", "h",
     "hlt", 3000000, "complete", 57, 494, "3dfa8e7b00d5db99"),
    ("{2,1} L6", "h", "hlt", 3000000, "complete", 57, 325, "7a0f9cae72aa13c7"),
    ("{3,1} K5", "h",
     "hlt", 3000000, "complete", 220, 1486, "0456146500a51a91"),
    ("{3,2} K5", "h",
     "hlt", 3000000, "complete", 505, 2370, "92f3c291abf0250c"),
    ("{2,-1} K5", "h", "hlt", 3000000, "complete", 11, 83, "060c0bba9d5714f6"),
    ("{2,-1} K6+", "h",
     "hlt", 3000000, "complete", 56, 135, "ef430387995ef7ba"),
    ("{2,-1} L6", "h", "hlt", 3000000, "complete", 9, 32, "52b85eafb04069e6"),
    ("{3,-1} K5", "h",
     "hlt", 3000000, "complete", 22, 4754, "de22a1fb59467edd"),
    ("{3,-1} L6", "h",
     "hlt", 3000000, "complete", 1512, 4979, "37b6d74d0654f3e6"),
    # one coincidence kills 836,186 of its rows
    ("{4,1} K5", "h",
     "hlt", 3000000, "complete", 755, 883272, "fdc27d3379b449e5"),
    ("S3xZ3", "g",
     "hlt", 100000, "complete", 13608, 55628, "e744f09886658301"),
    ("A5", "a, b a b^-1", "hlt", 10000, "complete", 6, 7, "0336844fd7851188"),
    ("A5", "b, a b a^-1 b^-1 a",
     "hlt", 10000, "complete", 5, 9, "1d27532f3949cd61"),
    ("PSL27", "a b^-1 a b, b a b a^-1 b",
     "hlt", 10000, "complete", 1, 44, "eeb59ffe1ad6ccec"),
    ("PSL27", "b, a b a b^-1 a",
     "hlt", 10000, "complete", 7, 23, "8d76ba2a98c77e97"),
    ("PSL27", "a, b a b a b^-1 a b^-1",
     "hlt", 10000, "complete", 28, 108, "cc2e566d039e51dd"),
    # the cap stops the subgroup scans: "budget" at once, counted
    ("A5", "a b a b^-1 a b a b^-1 a b^-1 a b",
     "hlt", 10, "budget", 10, 10, "e3b0c44298fc1c14"),
    ("A5", "a b a b^-1 a b, a b^-1 a b a b a b^-1",
     "hlt", 10, "budget", 10, 10, "e3b0c44298fc1c14"),
)


def test_tables_identical_to_the_list_enumerator():
    fixtures = {f.name: f for f in TABLE1_FIXTURES}
    for group, subgroup, strategy, cap, status, n, defined, digest in _GUARD:
        pres = (_GUARD_GROUPS[group] if group in _GUARD_GROUPS
                else fixtures[group].instance().lifted())
        subs = [parse_word(w) for w in subgroup.split(",")] if subgroup else []
        t = enumerate_cosets(pres, subs, cap, strategy=strategy)
        got = (t.status, t.n, t.total_defined,
               hashlib.sha256(_row_major(t)).hexdigest()[:16])
        assert got == (status, n, defined, digest), (group, subgroup,
                                                     strategy, cap)


# two paths _GUARD leaves out, recorded from the enumerator before its scans
# were merged into one: Felsch with subgroup generators, and HLT without the
# lookahead rescue stopping at its cap
# (group, subgroup generators, strategy, cap, lookahead, status, index,
# total_defined, digest as in _GUARD)
_GUARD_PATHS = (
    ("PSL27", "b, a b a b^-1 a",
     "felsch", 10_000, True, "complete", 7, 9, "8d76ba2a98c77e97"),
    ("{3,-1} L6", "h",
     "felsch", 3_000_000, True, "complete", 1512, 2158, "0efccc09be8ac5f5"),
    ("VD", "", "hlt", 1000, False, "budget", 931, 1000, "e3b0c44298fc1c14"),
    ("A5", "", "hlt", 70, False, "budget", 62, 70, "e3b0c44298fc1c14"),
)


@pytest.mark.parametrize("row", _GUARD_PATHS, ids=lambda r: f"{r[0]}-{r[2]}")
def test_felsch_subgroup_and_hlt_without_lookahead_tables(row):
    group, subgroup, strategy, cap, lookahead, *expected = row
    fixtures = {f.name: f for f in TABLE1_FIXTURES}
    pres = (_GUARD_GROUPS[group] if group in _GUARD_GROUPS
            else fixtures[group].instance().lifted())
    subs = [parse_word(w) for w in subgroup.split(",")] if subgroup else []
    t = enumerate_cosets(pres, subs, cap, strategy=strategy,
                         lookahead=lookahead)
    assert [t.status, t.n, t.total_defined,
            hashlib.sha256(_row_major(t)).hexdigest()[:16]] == expected


# the coincidence routine as it was before a coset's column-0 edge moved at
# its death, frozen for the differential test below: the queue held each dead
# coset with the column-0 entry its parent link replaced, one generation at
# a time, and each dead row was visited in every column
def _frozen_coincidence(self, a, b, deductions=False):
    T0 = self.T[0]
    T1 = self.T[1]
    ded = self.dedstack if deductions else None
    a, b = sorted((self._rep(a), self._rep(b)))
    q = array("i")
    if a != b:
        q.extend((b, T0[b]))
        T0[b] = -a
    cols = self.cols
    while q:
        batch, q = q, array("i")
        self.dead += len(batch) >> 1
        pairs = iter(batch)
        for y, e in zip(pairs, pairs):
            mu = -T0[y]
            for c, ci, col, icol in cols:
                d = col[y] if c else e
                if not d or not c and T1[d] != y:
                    continue
                if ci or T0[d] >= 0:
                    icol[d] = 0
                else:
                    col[y] = 0
                if ded is not None:
                    ded.append((d, ci))
                while T0[mu] < 0:
                    mu = -T0[mu]
                nu = d
                t = T0[d]
                if t < 0:
                    nu = -t
                    while T0[nu] < 0:
                        nu = -T0[nu]
                    k = d
                    while t != -nu:
                        T0[k], k = -nu, -t
                        t = T0[k]
                phi = nu
                psi = col[mu]
                if not psi:
                    phi = mu
                    psi = icol[nu]
                    if not psi:
                        col[mu] = nu
                        icol[nu] = mu
                        if ded is not None:
                            ded.append((mu, c))
                        continue
                while T0[psi] < 0:
                    psi = -T0[psi]
                if phi != psi:
                    if phi > psi:
                        phi, psi = psi, phi
                    q.extend((psi, T0[psi]))
                    T0[psi] = -phi


def _random_presentation(rng):
    """2 or 3 generators, each with a power relator, and one or two longer
    random relators; maybe a random subgroup generator."""
    gens = ["a", "b", "c"][:rng.choice((2, 3))]
    rels = [[(g, rng.randint(2, 5))] for g in gens]
    for _ in range(rng.randint(1, 2)):
        rels.append(list(_random_word(rng, gens, 6)) or [(gens[0], 1)])
    subs = [_random_word(rng, gens, 3)] if rng.random() < 0.4 else []
    return P(gens, rels), subs


def test_coincidence_matches_the_frozen_pair_queue(monkeypatch):
    """Moving a dying coset's column-0 edge at its death, not from a queued
    (coset, entry) pair, changes no enumeration: status, index,
    definitions and table bytes match the frozen routine's, for HLT and
    Felsch, at caps that complete, run out, and need the lookahead rescue."""
    from relasph import coset
    new = coset._Enum._coincidence
    rng = random.Random(18)
    seen = set()
    for _ in range(60):
        pres, subs = _random_presentation(rng)
        for strategy, cap in (("hlt", 40), ("hlt", 400), ("hlt", 4000),
                              ("felsch", 400), ("felsch", 4000)):
            got = []
            for routine in (_frozen_coincidence, new):
                monkeypatch.setattr(coset._Enum, "_coincidence", routine)
                t = enumerate_cosets(pres, subs, cap, strategy=strategy)
                got.append((t.status, t.n, t.total_defined, _row_major(t)))
            assert got[0] == got[1], (pres, subs, strategy, cap)
            status, _, defined, _ = got[1]
            # a complete HLT run that defined more than its cap compacted
            seen.add((strategy, status, status == "complete" and defined > cap))
    assert seen >= {("hlt", "complete", False), ("hlt", "complete", True),
                    ("hlt", "budget", False), ("felsch", "complete", False),
                    ("felsch", "budget", False)}, seen
