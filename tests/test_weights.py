from __future__ import annotations

from fractions import Fraction

import pytest

from relasph.coset import context_for
from relasph.stargraph import build_star_graph
from relasph.weights import (
    CERTIFIED,
    NOT_CERTIFIED,
    VIOLATED,
    WeightFunction,
    check_condition_I,
    check_weight_function,
    search_weight_function,
)
from relasph.words import (
    RelativePresentation,
    csyl,
    cyclic,
    fpw,
    free_group,
    xsyl,
)


def root_adjunction(d):
    """Relator y^-1 x^d over an infinite cyclic coefficient group: the star
    graph has one y-labelled pair and d-1 trivially labelled pairs."""
    G = free_group("y")
    w = fpw(csyl((("y", -1),)), xsyl("x", d))
    graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
    return graph, context_for(G, 1000)


def marked_weights(graph, marked_value, other_value):
    weights = {}
    for pid in graph.pair_ids():
        lab = graph.edges[pid].label
        weights[pid] = Fraction(marked_value if lab else other_value)
    return WeightFunction(weights)


@pytest.mark.parametrize("d", range(2, 7))
def test_root_adjunction_weights_pass_condition_I(d):
    graph, ctx = root_adjunction(d)
    theta = marked_weights(graph, -1, 1)
    results = check_condition_I(graph, theta)
    assert len(results) == 1
    assert results[0].total == 2 and results[0].ok
    report = check_weight_function(graph, theta, ctx, bound=6)
    assert report.condition_I_ok
    # infinite-order label: no exact certificate, and no violation either
    assert report.condition_II.status == NOT_CERTIFIED
    assert report.condition_II.bound == 6


def test_uniform_one_fails_on_length_four():
    for l, k in ((2, 1), (2, -1), (3, 2), (4, -3)):
        w = fpw(xsyl("x", l), csyl((("g", 1),)), xsyl("x", k), csyl((("h", 1),)))
        graph = build_star_graph(
            RelativePresentation(free_group("g", "h"), ("x",), (w,)))
        res = check_condition_I(graph, WeightFunction.uniform(graph, 1))
        assert not res[0].ok and res[0].total == 0


def test_uniform_zero_passes_condition_I():
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", 1), csyl((("h", 1),)))
    graph = build_star_graph(
        RelativePresentation(free_group("g", "h"), ("x",), (w,)))
    res = check_condition_I(graph, WeightFunction.uniform(graph, 0))
    assert res[0].ok and res[0].total == 3


def test_x3g_third_weights_violated_with_witness():
    G = cyclic(2)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 3), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    ctx = context_for(G, 1000)
    report = check_weight_function(
        graph, WeightFunction.uniform(graph, Fraction(1, 3)), ctx, mode="full")
    assert report.condition_I[0].total == 2 and report.condition_I[0].ok
    c2 = report.condition_II
    assert c2.status == VIOLATED and c2.min_weight == Fraction(2, 3)
    assert c2.witness is not None
    got = sum(Fraction(1, 3) for _ in c2.witness)
    assert got == Fraction(2, 3)
    assert report.nonneg_cycles == "pass"
    assert not report.passes()


def test_certified_when_no_admissible_cycle():
    # single-letter relator over Z5: no admissible cycles at all, so any
    # condition-I-passing weights certify
    G = cyclic(5)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 1), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    ctx = context_for(G, 1000)
    theta = WeightFunction.uniform(graph, -1)
    report = check_weight_function(graph, theta, ctx)
    assert report.condition_I[0].ok
    assert report.condition_II.status == CERTIFIED
    assert report.condition_II.min_weight is None
    assert report.passes()


def test_negative_cycle_is_violation():
    G = cyclic(2)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 3), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    ctx = context_for(G, 1000)
    report = check_weight_function(graph, WeightFunction.uniform(graph, -1), ctx,
                                   mode="full")
    assert report.condition_II.status == VIOLATED
    assert report.condition_II.min_weight is None  # unbounded below
    assert report.nonneg_cycles == "fail"


def test_full_check_runs_one_bellman_ford(monkeypatch):
    """Over a finite group the exact condition-II pass has already decided
    whether a negative cycle exists, and mode='full' reuses that answer;
    otherwise the Bellman-Ford runs once for the non-negative-cycle check."""
    from relasph import stargraph, weights
    real = stargraph.has_negative_cycle
    calls = []

    def counting(graph, theta):
        calls.append(1)
        return real(graph, theta)

    monkeypatch.setattr(stargraph, "has_negative_cycle", counting)
    monkeypatch.setattr(weights, "has_negative_cycle", counting)
    G = cyclic(2)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 3), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    ctx = context_for(G, 1000)
    for value, nonneg in ((Fraction(1, 3), "pass"), (-1, "fail")):
        calls.clear()
        report = check_weight_function(
            graph, WeightFunction.uniform(graph, value), ctx, mode="full")
        assert report.nonneg_cycles == nonneg and len(calls) == 1
    graph, ctx = root_adjunction(3)
    for theta in (marked_weights(graph, -1, 1), WeightFunction.uniform(graph, -1)):
        calls.clear()
        report = check_weight_function(graph, theta, ctx, mode="full")
        assert len(calls) == 1
        assert report.nonneg_cycles == ("fail" if real(graph, theta.weights)
                                        else "pass")


def test_symmetry_and_totality_enforced():
    graph, _ = root_adjunction(3)
    with pytest.raises(ValueError, match="not total"):
        check_condition_I(graph, WeightFunction({graph.pair_ids()[0]: 1}))
    full = "\n".join(f"{pid} 1" for pid in graph.pair_ids())
    with pytest.raises(ValueError, match="unknown edge pairs"):
        WeightFunction.from_text(graph, full + "\n99 1/2\n")


def test_from_text_roundtrip():
    graph, _ = root_adjunction(3)
    text = "\n".join(f"{pid} 1/2  # pair" for pid in graph.pair_ids())
    theta = WeightFunction.from_text(graph, text)
    assert all(v == Fraction(1, 2) for v in theta.weights.values())


def test_determinism_of_reports():
    G = cyclic(2)
    p = RelativePresentation(G, ("x",), (fpw(xsyl("x", 3), csyl((("g", 1),))),))
    graph = build_star_graph(p)
    ctx = context_for(G, 1000)
    theta = WeightFunction.uniform(graph, Fraction(1, 3))
    a = check_weight_function(graph, theta, ctx)
    b = check_weight_function(graph, theta, ctx)
    assert a == b


def test_search_returns_verified_function():
    # relator x g x h x^-1 g^-1-free shape: use Z7 pair with long cycles so
    # theta = 1/2 certifies; search must find something that re-verifies
    G = cyclic(13, "t")
    w = fpw(xsyl("x", 2), csyl((("t", 1),)), xsyl("x", -1), csyl((("t", 5),)))
    graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
    ctx = context_for(G, 1000)
    res = search_weight_function(graph, ctx, denominator_bound=2, mode="weak")
    if res.found is not None:
        report = check_weight_function(graph, res.found, ctx)
        assert report.passes()
    else:
        assert not res.capped  # exhausted honestly


def test_search_space_cap_flag():
    graph, ctx = root_adjunction(6)
    res = search_weight_function(graph, ctx, denominator_bound=3,
                                 max_candidates=1)
    assert res.found is None and res.capped
