from __future__ import annotations

import random
from fractions import Fraction

import pytest

from relasph.classify import classify_presentation
from relasph.coset import context_for
from relasph.stargraph import build_star_graph
from relasph.weights import (
    CERTIFIED,
    MAX_DENOMINATOR_BOUND,
    NOT_CERTIFIED,
    VIOLATED,
    WeightFunction,
    check_condition_I,
    check_weight_function,
    search_weight_function,
)
from relasph.words import (
    RelativePresentation,
    TriState,
    csyl,
    cyclic,
    fpw,
    free_group,
    parse_presentation,
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
    from relasph import stargraph
    real = stargraph.has_negative_cycle
    bellman_ford = stargraph._negative_cycle
    calls = []

    def counting(succ, wt):
        calls.append(1)
        return bellman_ford(succ, wt)

    monkeypatch.setattr(stargraph, "_negative_cycle", counting)
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
    res = search_weight_function(graph, ctx, denominator_bound=2)
    if res.found is not None:
        report = check_weight_function(graph, res.found, ctx)
        assert report.passes()
    else:
        assert not res.capped  # exhausted honestly


def test_search_space_cap_flag():
    graph, ctx = root_adjunction(6)
    for denominator_bound in (3, MAX_DENOMINATOR_BOUND):
        res = search_weight_function(graph, ctx, denominator_bound,
                                     max_candidates=1)
        assert res.found is None and res.capped
    # the candidate list grows as the square of the bound
    with pytest.raises(ValueError, match="at most 100, not 101"):
        search_weight_function(graph, ctx, MAX_DENOMINATOR_BOUND + 1)


def _frozen_candidate_values(denominator_bound):
    primary = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 3),
               Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    extras = sorted({Fraction(p, q) for q in range(1, denominator_bound + 1)
                     for p in range(-q, q + 1)} - set(primary),
                    key=lambda v: (v.denominator, v))
    return primary + extras


def _frozen_search(graph, ctx, denominator_bound, bound, mode, max_candidates):
    """Reference for search_weight_function, independent of its integer
    path: the former backtracking search, pruning on Fraction sums of
    condition (I) and deciding each complete candidate with a full
    check_weight_function.  Returns (found weights or None, tried, capped)."""
    pairs = graph.pair_ids()
    values = _frozen_candidate_values(denominator_bound)
    vmin = min(values)
    rel_pairs = [[graph.pair_id(e.eid) for e in graph.rotation_edges(ri)]
                 for ri in range(len(graph.presentation.relators))]
    tried = 0
    assignment = {}

    def feasible():
        for rp in rel_pairs:
            best = Fraction(0)
            for pid in rp:
                best += (1 - assignment[pid]) if pid in assignment else (1 - vmin)
            if best < 2:
                return False
        return True

    def rec(i):
        nonlocal tried
        if i == len(pairs):
            tried += 1
            theta = WeightFunction(dict(assignment))
            report = check_weight_function(graph, theta, ctx, mode=mode, bound=bound)
            return theta if report.passes() else None
        for v in values:
            if tried >= max_candidates:
                return None
            assignment[pairs[i]] = v
            if feasible():
                got = rec(i + 1)
                if got is not None:
                    return got
            del assignment[pairs[i]]
        return None

    found = rec(0)
    return (None if found is None else found.weights, tried,
            tried >= max_candidates and found is None)


def test_search_matches_frozen_search():
    """The integer search visits the candidates of the former search in
    the same order and gives the same (found, tried, capped) as it did in
    both weak and full mode, on seeded templates over Z_n at denominator
    bounds 2 and 3, and on a free group, where no candidate can pass."""
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(24):
        n = rng.randint(2, 30)
        l = rng.randint(1, 3)
        k = rng.choice((-3, -2, -1, 1, 2))
        a, b = rng.randint(1, n - 1), rng.randint(1, n - 1)
        G = cyclic(n, "t")
        w = fpw(xsyl("x", l), csyl((("t", a),)), xsyl("x", k), csyl((("t", b),)))
        graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
        ctx = context_for(G, 1000)
        for denominator_bound in (2, 3):
            res = search_weight_function(graph, ctx, denominator_bound, 6,
                                         max_candidates=300)
            got = (None if res.found is None else res.found.weights,
                   res.tried, res.capped)
            for mode in ("weak", "full"):
                want = _frozen_search(graph, ctx, denominator_bound, 6, mode, 300)
                assert got == want, (n, l, k, a, b, denominator_bound, mode)
            outcomes.add("found" if got[0] is not None
                         else "capped" if got[2] else "exhausted")
    assert outcomes == {"found", "capped", "exhausted"}
    G = free_group("g", "h")
    w = fpw(xsyl("x", 2), csyl((("g", 1),)), xsyl("x", -1), csyl((("h", 1),)))
    graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
    ctx = context_for(G, 1000)
    res = search_weight_function(graph, ctx, 3, 4, max_candidates=12)
    assert (None, res.tried, res.capped) == \
        _frozen_search(graph, ctx, 3, 4, "weak", 12) == (None, 12, True)


def test_search_rejects_candidates_by_negative_cycles_found(monkeypatch):
    """A candidate whose weights close a negative cycle found for an earlier
    candidate is rejected without a Bellman-Ford, so on the (43, 2, 1, 17,
    36) template over Z_43 the search runs far fewer Bellman-Fords than it
    tries candidates, and it returns what the former search does."""
    from relasph import stargraph
    bellman_ford = stargraph._negative_cycle
    calls = []

    def counting(succ, wt):
        calls.append(1)
        return bellman_ford(succ, wt)

    G = cyclic(43, "t")
    w = fpw(xsyl("x", 2), csyl((("t", 17),)), xsyl("x", 1), csyl((("t", 36),)))
    graph = build_star_graph(RelativePresentation(G, ("x",), (w,)))
    ctx = context_for(G, 1000)
    want = _frozen_search(graph, ctx, 3, 6, "full", 200)
    monkeypatch.setattr(stargraph, "_negative_cycle", counting)
    res = search_weight_function(graph, ctx, 3, 6, max_candidates=200)
    assert (res.found.weights, res.tried, res.capped) == want
    assert want[:2] == ({0: 0, 1: Fraction(1, 3), 2: Fraction(2, 3)}, 192)
    # one per candidate that no cut rejects, and one for the re-check of
    # the function found: 19 here, against 193 without the cuts
    assert len(calls) * 4 < res.tried


def test_no_weight_function_for_nonaspherical_verdicts():
    """A passing weight function proves asphericity, so the search finds
    none over a seeded sample of cyclic grid instances that the classifier
    calls NonAspherical; the smaller shapes exhaust their candidates."""
    rng = random.Random(20261019)
    shapes = [(n, l, k, a, b) for n in range(2, 13) for l in (1, 2, 3)
              for k in (-3, -2, -1, 1, 2, 3)
              for a in range(1, n) for b in range(1, n)]
    rng.shuffle(shapes)
    checked = exhausted = 0
    for n, l, k, a, b in shapes:
        pres = parse_presentation(
            f"group <h | h^{n}>; x; rel x^{l} h^{a} x^{k} h^{b}")
        _, _, verdict = classify_presentation(pres, 1000)
        if verdict.aspherical != TriState.NO:
            continue
        res = search_weight_function(build_star_graph(pres),
                                     context_for(pres.coeff, 1000),
                                     max_candidates=4000)
        assert res.found is None, (n, l, k, a, b)
        exhausted += not res.capped
        checked += 1
        if checked == 50:
            break
    assert checked == 50 and exhausted >= 10
