from __future__ import annotations

import hashlib

import pytest

from relasph.classify import TABLE1_FIXTURES
from relasph.coset import (
    MAX_CAP,
    GroupContext,
    LiftedPresentation,
    abelian_order_of_word,
    context_for,
    enumerate_cosets,
    group_order,
    lift,
    order_via_cyclic_subgroup,
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
# the (2,3,7) triangle group: infinite, so every enumeration of it ends in
# the budget path
VD = P(["a", "b"], [[("a", 2)], [("b", 3)], [("a", 1), ("b", 1)] * 7])


def test_cyclic_orders_1_to_64():
    for n in range(1, 65):
        t = enumerate_cosets(P(["g"], [[("g", n)]]), [], 1000)
        assert t.complete and t.n == n


@pytest.mark.parametrize("pres,order", [(S3, 6), (Q8, 8), (A5, 60), (PSL27, 168)])
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
    assert a.tab == b.tab and a.total_defined == b.total_defined


def test_element_orders_and_equality():
    ctx = GroupContext(P(["g"], [[("g", 8)]]), 1000)
    assert ctx.element_order((("g", 1),)) == OrderResult.finite(8)
    assert ctx.element_order((("g", 2),)) == OrderResult.finite(4)
    assert ctx.element_order(()) == OrderResult.finite(1)
    assert ctx.equal((("g", 2),), (("g", -2),)) == TriState.NO
    assert ctx.equal((("g", 4),), (("g", -4),)) == TriState.YES
    assert ctx.equal((), (("g", 8),)) == TriState.YES


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


def test_finite_group_conjugacy():
    ctx = GroupContext(S3, 1000)
    # all order-2 elements of S3 are conjugate
    assert ctx.conjugate((("a", 1),), (("b", 1), ("a", 1), ("b", -1))) == TriState.YES
    assert ctx.conjugate((("a", 1),), (("b", 1),)) == TriState.NO


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
    s3z3 = lift(parse_presentation(
        "group <g, h | g^2, h^3, g h g h g^-1 h^-1 g^-1 h^-1>; x; "
        "rel x^2 g x^-1 h"))
    t = enumerate_cosets(s3z3, [(("g", 1),)], 10 ** 5)
    assert t.complete and t.n == 13608
    t.check()


_GUARD_GROUPS = {"S3": S3, "Q8": Q8, "A5": A5, "PSL27": PSL27, "F25": F25,
                 "VD": VD}
# (group, strategy, cap, status, index, total_defined, sha256 of the table's
# bytes, first 16 hex digits), recorded from the list-based enumerator; the
# typed-array table must make the same definitions in the same order.
# {4,1} K5 is left out: its regular table takes 3e6 definitions.
_GUARD = (
    ("S3", "hlt", 10000, "complete", 6, 6, "62f8ea117b5cdf4e"),
    ("S3", "felsch", 10000, "complete", 6, 6, "62f8ea117b5cdf4e"),
    ("Q8", "hlt", 10000, "complete", 8, 8, "b74a71fad8bcc7f8"),
    ("Q8", "felsch", 10000, "complete", 8, 8, "d3f84356d9bc5adc"),
    ("A5", "hlt", 10000, "complete", 60, 82, "2f7639a2f836f783"),
    ("A5", "felsch", 10000, "complete", 60, 60, "aed1b90b53555cbe"),
    ("PSL27", "hlt", 10000, "complete", 168, 542, "36f3abf10a120225"),
    ("PSL27", "felsch", 10000, "complete", 168, 168, "e04d37cf8ddd7e43"),
    ("F25", "hlt", 10000, "complete", 11, 165, "74ed9832d714d864"),
    ("F25", "felsch", 10000, "complete", 11, 42, "cd041d32f5696142"),
    # the lookahead-and-compaction rescue, completing and at the budget
    ("A5", "hlt", 70, "complete", 60, 74, "2f7639a2f836f783"),
    ("VD", "hlt", 1000, "budget", 987, 1131, "e3b0c44298fc1c14"),
    ("VD", "felsch", 1000, "budget", 1000, 1000, "e3b0c44298fc1c14"),
    ("{2,1} K5", "hlt", 3000000, "complete", 165, 336, "d48697a9fd271f0c"),
    ("{2,1} K6+", "hlt", 3000000, "complete", 378, 838, "d8a4008d6ca3411e"),
    ("{2,1} K6-", "hlt", 3000000, "complete", 342, 1948, "43cbe56215b337e7"),
    ("{2,1} L6", "hlt", 3000000, "complete", 342, 1879, "18814e0e69b444e8"),
    ("{3,1} K5", "hlt", 3000000, "complete", 1100, 7179, "a9ccf52c2616ca57"),
    ("{3,2} K5", "hlt", 3000000, "complete", 2525, 9910, "0ee89d109d878479"),
    ("{2,-1} K5", "hlt", 3000000, "complete", 55, 341, "24b1505e4bfb9e6c"),
    ("{2,-1} K6+", "hlt", 3000000, "complete", 336, 862, "c65c10315fc3578d"),
    ("{2,-1} L6", "hlt", 3000000, "complete", 54, 211, "df96fefce160ffe1"),
    ("{3,-1} K5", "hlt", 3000000, "complete", 110, 21636, "a55cc193605de637"),
    ("{3,-1} L6", "hlt", 3000000, "complete", 9072, 29573, "6070025186a1b8bc"),
)


def test_tables_identical_to_the_list_enumerator():
    fixtures = {f.name: f for f in TABLE1_FIXTURES}
    for group, strategy, cap, status, n, defined, digest in _GUARD:
        pres = (_GUARD_GROUPS[group] if group in _GUARD_GROUPS
                else fixtures[group].instance().lifted())
        t = enumerate_cosets(pres, [], cap, strategy=strategy)
        got = (t.status, t.n, t.total_defined,
               hashlib.sha256(t.tab.tobytes()).hexdigest()[:16])
        assert got == (status, n, defined, digest), (group, strategy, cap)
